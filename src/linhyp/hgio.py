"""Reader and writer for the ``.hg`` plain-text hypergraph format.

Layout (ASCII, LF line endings)::

    c optional comment lines
    p hg <n> <m>
    e <v1> <v2> ...     (m lines, 1-based ids, strictly increasing)

A line whose first token is ``c`` is a comment, whatever whitespace
follows it.  Readers reject out-of-range ids, unsorted ids, and a wrong edge count.
Writers emit edges in canonical order.
"""

from __future__ import annotations

from operator import lt

from .core import Hypergraph, HypergraphError


class FormatError(ValueError):
    """Malformed .hg input."""


def loads(text: str) -> Hypergraph:
    n = m = None
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "hg":
                raise FormatError(f"line {lineno}: expected 'p hg <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad header numbers") from exc
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative counts")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
            try:
                vs = list(map(int, parts[1:]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad vertex id") from exc
            if not vs:
                raise FormatError(f"line {lineno}: empty edge")
            if min(vs) < 1 or max(vs) > n:
                raise FormatError(f"line {lineno}: vertex id out of range")
            if not all(map(lt, vs, vs[1:])):
                raise FormatError(f"line {lineno}: ids not strictly increasing")
            edges.append([v - 1 for v in vs])
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing 'p hg' header")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return Hypergraph(n, edges)
    except HypergraphError as exc:
        raise FormatError(str(exc)) from exc


def dumps(h: Hypergraph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"c {c}")
    lines.append(f"p hg {h.n} {h.m}")
    for e in h.edges:
        lines.append("e " + " ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"


def load(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not ASCII: {exc}") from exc
    return loads(text)


def dump(h: Hypergraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(dumps(h, comment=comment))

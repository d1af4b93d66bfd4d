"""Differential test of the edge-level embedding search.

``oracle_find_embeddings`` is a frozen copy of the original vertex-by-vertex
search: it scans every host edge at each step and tries every permutation of
the free slots.  The edge-level ``find_embeddings`` must return exactly the
same list, representatives included, on every host of the corpus below.
"""

from __future__ import annotations

import importlib
import json
from itertools import permutations

import pytest

from linhyp import cli
from linhyp.algebra import affine_residual, random_linear
from linhyp.catalog import NAMES, special
from linhyp.core import Hypergraph
from linhyp.deficiency import Embedding, find_embeddings
from linhyp.hgio import dumps
from linhyp.rng import SplitMix64


def oracle_find_embeddings(host: Hypergraph, kind: str) -> list[Embedding]:
    """All edge-induced copies of a catalog entry, one per edge-index set."""
    pattern = special(kind)
    if host.n < pattern.n or host.m < pattern.m:
        return []
    if kind == "H4":
        return [Embedding("H4", tuple(e), (i,)) for i, e in enumerate(host.edges)]
    host_deg = host.degrees()
    pat_deg = pattern.degrees()
    order = [0]
    seen = set(pattern.edges[0])
    remaining = set(range(1, pattern.m))
    while remaining:
        nxt = min(i for i in remaining if seen & set(pattern.edges[i]))
        order.append(nxt)
        seen |= set(pattern.edges[nxt])
        remaining.discard(nxt)

    found: dict[frozenset[int], Embedding] = {}
    vmap: dict[int, int] = {}
    used_host_vertices: set[int] = set()
    used_edges: list[int] = []

    def extend(step: int) -> None:
        if step == len(order):
            key = frozenset(used_edges)
            if key not in found:
                full_map = tuple(vmap[v] for v in range(pattern.n))
                order_to_cat = {order[i]: used_edges[i] for i in range(len(order))}
                eidx = tuple(order_to_cat[i] for i in range(pattern.m))
                found[key] = Embedding(kind, full_map, eidx)
            return
        pe = pattern.edges[order[step]]
        mapped = [v for v in pe if v in vmap]
        free = [v for v in pe if v not in vmap]
        must_contain = {vmap[v] for v in mapped}
        for hi, he in enumerate(host.edges):
            if hi in used_edges or len(he) != len(pe):
                continue
            hset = set(he)
            if not must_contain <= hset:
                continue
            slots = sorted(hset - must_contain)
            if len(slots) != len(free):
                continue
            if any(s in used_host_vertices for s in slots):
                continue
            for perm in permutations(slots):
                if any(host_deg[w] < pat_deg[v] for v, w in zip(free, perm)):
                    continue
                for v, w in zip(free, perm):
                    vmap[v] = w
                    used_host_vertices.add(w)
                used_edges.append(hi)
                extend(step + 1)
                used_edges.pop()
                for v, w in zip(free, perm):
                    del vmap[v]
                    used_host_vertices.discard(w)

    extend(0)
    return sorted(found.values(), key=lambda e: e.edge_indices)


def relabel(h: Hypergraph, seed: int) -> Hypergraph:
    perm = SplitMix64(seed).sample(list(range(h.n)), h.n)
    return Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])


def bridged(kinds: tuple[str, ...], bridges: int, seed: int) -> Hypergraph:
    """Disjoint catalog copies joined by 4-edges through fresh vertices.

    Each bridge takes one vertex of degree < 3 from each of two copies and
    two new vertices, so the host stays 4-uniform, linear, max degree 3.
    """
    rng = SplitMix64(seed)
    n, edges, blocks = 0, [], []
    for kind in kinds:
        p = special(kind)
        edges += [[n + v for v in e] for e in p.edges]
        blocks.append(range(n, n + p.n))
        n += p.n
    for _ in range(bridges):
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        a, b = rng.sample(blocks, 2)
        open_a = [v for v in a if deg[v] < 3]
        open_b = [v for v in b if deg[v] < 3]
        if not open_a or not open_b:
            continue
        edges.append([rng.sample(open_a, 1)[0], rng.sample(open_b, 1)[0], n, n + 1])
        n += 2
    return relabel(Hypergraph(n, edges), seed)


def scrambled(n: int, m: int, sizes: tuple[int, ...], seed: int) -> Hypergraph:
    """Seeded edges of the given sizes, with no linearity requirement."""
    rng = SplitMix64(seed)
    edges = [rng.sample(list(range(n)), sizes[rng.randbelow(len(sizes))]) for _ in range(m)]
    return Hypergraph(n, edges)


def with_twin_edges(h: Hypergraph, count: int) -> Hypergraph:
    """h with its first ``count`` edges repeated (an edge multiset)."""
    return Hypergraph(h.n, list(h.edges) + list(h.edges[:count]))


CATALOG = [(f"catalog-{k}", special(k)) for k in NAMES]
RESIDUALS = [
    (f"residual-{q}-{s}", affine_residual(q, s)) for q in (2, 3, 4, 5) for s in range(1, q + 1)
]
RANDOM = [
    (f"random-{n}-{seed}", random_linear(n, 4, 3, m, seed))
    for n, m in ((12, 9), (15, 11), (18, 12), (21, 13), (24, 14), (27, 14), (30, 15))
    for seed in (1, 2)
]
NONLINEAR = [
    ("scrambled-4-12", scrambled(12, 9, (4,), 1)),
    ("scrambled-4-16", scrambled(16, 12, (4,), 2)),
    ("mixed-3-5-14", scrambled(14, 10, (3, 4, 5), 3)),
    ("mixed-2-4-10", scrambled(10, 12, (2, 4), 4)),
    ("twins-H10", with_twin_edges(special("H10"), 2)),
    ("twins-H14_2", with_twin_edges(relabel(special("H14_2"), 5), 3)),
    ("mixed-H11", Hypergraph(13, list(special("H11").edges) + [[0, 11, 12], [1, 2]])),
]
BRIDGED = [
    ("bridged-H10-H11", bridged(("H10", "H11"), 2, 1)),
    ("bridged-H14_1-H4-H10", bridged(("H14_1", "H4", "H10"), 3, 2)),
    ("bridged-H10-H10", bridged(("H10", "H10"), 1, 3)),
    ("bridged-H14_5-H11", bridged(("H14_5", "H11"), 2, 4)),
    ("bridged-H21_3-H4", bridged(("H21_3", "H4"), 2, 5)),
    ("bridged-H14_3-H14_6", bridged(("H14_3", "H14_6"), 2, 6)),
    ("bridged-H11-H10-H4", bridged(("H11", "H10", "H4"), 1, 7)),
    ("bridged-H14_2-H10", bridged(("H14_2", "H10"), 1, 8)),
]
CORPUS = CATALOG + RESIDUALS + RANDOM + NONLINEAR + BRIDGED


@pytest.mark.parametrize("name,host", CORPUS, ids=[name for name, _ in CORPUS])
def test_same_embeddings_as_oracle(name, host):
    for kind in NAMES:
        assert find_embeddings(host, kind) == oracle_find_embeddings(host, kind), kind


def test_corpus_reaches_non_h4_copies():
    found = {
        kind
        for _, host in CATALOG + NONLINEAR + BRIDGED
        for kind in NAMES
        if kind != "H4" and find_embeddings(host, kind)
    }
    assert found == set(NAMES) - {"H4"}


def defic_json(path: str, capsys) -> dict:
    assert cli.main(["defic", path]) == 0
    out = json.loads(capsys.readouterr().out)
    del out["manifest"]["elapsed_ms"]
    return out


@pytest.mark.parametrize("name", ["bridged-H10-H10", "bridged-H11-H10-H4", "bridged-H14_2-H10"])
def test_defic_json_matches_oracle(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "host.hg"
    path.write_text(dumps(dict(BRIDGED)[name]), encoding="ascii")
    got = defic_json(str(path), capsys)
    module = importlib.import_module("linhyp.deficiency")
    monkeypatch.setattr(module, "find_embeddings", oracle_find_embeddings)
    want = defic_json(str(path), capsys)
    assert got == want
    assert got["value"] > 0 and got["set"]

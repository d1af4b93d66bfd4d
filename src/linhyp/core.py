"""Hypergraph and graph data model plus structural transformations.

Hypergraphs are immutable: a vertex count ``n`` and a canonically ordered
tuple of edges, each a strictly increasing tuple of vertex ids in ``[0, n)``.
Duplicate edges are allowed (edge multisets), but linearity checks reject
them.  All operations are pure functions returning new values.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class HypergraphError(ValueError):
    """Raised when a construction or operation precondition is violated."""


class ArgumentError(ValueError):
    """An argument lies outside the documented domain of its function.

    Raised only for caller input, so the command line reports it as a usage
    error; any other ``ValueError`` signals a defect.
    """


class CertificateError(RuntimeError):
    """A computed answer failed the independent re-check of its certificate.

    This signals a defect in the library, never bad input.  The checks that
    raise it are explicit, so they also run under ``python -O``.
    """


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def members(mask: int) -> list[int]:
    """The set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph on vertices ``0..n-1`` with an edge multiset."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise HypergraphError("vertex count must be non-negative")
        canon = []
        for e in edges:
            e = tuple(sorted(e))
            if len(set(e)) != len(e):
                raise HypergraphError(f"repeated vertex within edge {e}")
            if e and (e[0] < 0 or e[-1] >= n):
                raise HypergraphError(f"vertex id out of range in edge {e}")
            if not e:
                raise HypergraphError("empty edge")
            canon.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Per-vertex edge counts; max is Delta, min is delta."""
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def edge_masks(self) -> list[int]:
        """Edges as vertex bitmasks (bit v set iff v in edge)."""
        return [vertex_mask(e) for e in self.edges]

    def incidence_masks(self) -> list[int]:
        """Vertices as edge bitmasks (bit i set iff the vertex lies in edge i)."""
        out = [0] * self.n
        for i, e in enumerate(self.edges):
            bit = 1 << i
            for v in e:
                out[v] |= bit
        return out


@dataclass(frozen=True)
class Graph:
    """A simple graph; optionally carries a bipartition covering ``[0, n)``.

    Stored as adjacency only: ``adj[v]`` is the increasing tuple of the
    neighbours of ``v``.  ``edges`` derives each edge once as a pair
    ``(a, b)`` with ``a < b``, in sorted order, on every access.  Two graphs
    are equal, and hash alike, iff they have the same ``n``, edge set and
    bipartition.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = field(default=None)

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]],
        bipartition: Optional[tuple[Iterable[int], Iterable[int]]] = None,
    ):
        if n < 0:
            raise HypergraphError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if a == b:
                raise HypergraphError(f"loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise HypergraphError(f"vertex id out of range in edge ({a},{b})")
            nbrs[a].add(b)
            nbrs[b].add(a)
        bip = None
        if bipartition is not None:
            left, right = frozenset(bipartition[0]), frozenset(bipartition[1])
            if left & right or left | right != frozenset(range(n)):
                raise HypergraphError("bipartition must partition the vertex set")
            for a, nb in enumerate(nbrs):
                same = nb & (left if a in left else right)
                if same:
                    raise HypergraphError(f"edge ({a},{min(same)}) does not cross bipartition")
            bip = (left, right)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple([tuple(sorted(nb)) for nb in nbrs]))
        object.__setattr__(self, "bipartition", bip)

    @classmethod
    def _trusted(
        cls,
        n: int,
        adj: tuple[tuple[int, ...], ...],
        bipartition: Optional[tuple[frozenset[int], frozenset[int]]],
    ) -> Graph:
        """A Graph from adjacency already in canonical form, unchecked.

        ``adj`` must hold ``n`` increasing tuples of vertex ids in ``[0, n)``,
        with ``b`` in ``adj[a]`` iff ``a`` in ``adj[b]`` and no ``a`` in
        ``adj[a]``; ``bipartition`` is None or two frozensets that partition
        ``range(n)`` and that every edge crosses.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "bipartition", bipartition)
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (a, b) for a, nb in enumerate(self.adj) for b in nb[bisect_right(nb, a):]
        )

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self.adj]

    def adjacency(self) -> list[set[int]]:
        """Each vertex's neighbours as a fresh set."""
        return [set(nb) for nb in self.adj]


def is_k_uniform(h: Hypergraph, k: int) -> bool:
    """True iff every edge has exactly k vertices."""
    return all(len(e) == k for e in h.edges)


def is_linear(h: Hypergraph) -> bool:
    """True iff every pair of distinct edges (by index) shares at most one vertex.

    A duplicated edge of size >= 2 therefore makes the hypergraph non-linear.
    Other edges meet edge e sum(deg v - 1) times over its vertices v, so the
    union of those vertices' incidence masks holds e and exactly that many
    other edges iff no other edge meets e twice.
    """
    inc = h.incidence_masks()
    deg = [mask.bit_count() for mask in inc]
    for e in h.edges:
        union = 0
        others = -len(e)
        for v in e:
            union |= inc[v]
            others += deg[v]
        if union.bit_count() - 1 != others:
            return False
    return True


def degrees(h: Hypergraph) -> list[int]:
    return h.degrees()


def delete_vertices(h: Hypergraph, xs: Iterable[int]) -> Hypergraph:
    """H - X: drop edges meeting X, drop X, drop resulting isolated vertices.

    Remaining vertices are re-indexed densely, preserving relative order.
    This is ``shrink_remove`` with an empty Y.
    """
    return shrink_remove(h, xs, ())


def shrink_remove(h: Hypergraph, xs: Iterable[int], ys: Iterable[int]) -> Hypergraph:
    """H(X,Y): remove edges meeting X, delete Y's vertices from the rest.

    X and Y themselves leave the vertex set, then isolated vertices go too.
    Raises if a surviving edge would become empty (edges of size zero are
    not allowed).
    """
    xset, yset = set(xs), set(ys)
    if any(v < 0 or v >= h.n for v in xset | yset):
        raise HypergraphError("vertex out of range")
    new_edges = []
    for e in h.edges:
        if xset & set(e):
            continue
        trimmed = [v for v in e if v not in yset]
        if not trimmed:
            raise HypergraphError(f"edge {e} would become empty")
        new_edges.append(trimmed)
    used = sorted({v for e in new_edges for v in e} - xset - yset)
    rid = {v: i for i, v in enumerate(used)}
    return Hypergraph(len(used), [[rid[v] for v in e] for e in new_edges])


def complement_hypergraph(h: Hypergraph) -> Hypergraph:
    """Same vertex set; each edge e becomes V(H) \\ e."""
    allv = set(range(h.n))
    comp = []
    for e in h.edges:
        c = sorted(allv - set(e))
        if not c:
            raise HypergraphError("complement of a full edge would be empty")
        comp.append(c)
    return Hypergraph(h.n, comp)


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite incidence graph: vertices 0..n-1, then one node per edge.

    Vertex v is adjacent to the nodes ``n + i`` of its edges, in increasing
    edge index, and node ``n + i`` to the vertices of edge i, whose tuple is
    shared with ``h`` rather than copied.  That is already canonical, so no
    check is needed.
    """
    n = h.n
    at: list[list[int]] = [[] for _ in range(n)]
    for node, e in enumerate(h.edges, start=n):
        for v in e:
            at[v].append(node)
    return Graph._trusted(
        n + h.m,
        tuple(map(tuple, at)) + h.edges,
        (frozenset(range(n)), frozenset(range(n, n + h.m))),
    )


def bipartite_complement(g: Graph) -> Graph:
    """Cross edges flipped: (a, b) present iff absent in g, across the split."""
    if g.bipartition is None:
        raise HypergraphError("graph carries no bipartition")
    left, right = g.bipartition
    right_sorted = sorted(right)
    edges = []
    for a in sorted(left):
        present = set(g.adj[a])
        edges += [(a, b) for b in right_sorted if b not in present]
    return Graph(g.n, edges, bipartition=(left, right))


def onh(g: Graph) -> Hypergraph:
    """Open neighborhood hypergraph: one edge N(x) per vertex x of g."""
    if not all(g.adj):
        raise HypergraphError("isolated vertex has an empty open neighborhood")
    return Hypergraph(g.n, g.adj)


def dual_graph(h: Hypergraph) -> Graph:
    """Dual of a linear hypergraph with max degree <= 2.

    Vertices are the edges of h; each degree-2 vertex of h contributes the
    graph edge joining its two incident hyperedges.  Linearity guarantees
    simplicity, so the neighbours of edge i are the other members of the
    union of its vertices' incidence masks, in increasing order.
    """
    if not is_linear(h):
        raise HypergraphError("dual requires a linear hypergraph")
    if h.max_degree() > 2:
        raise HypergraphError("dual requires max degree <= 2")
    inc = h.incidence_masks()
    adj = []
    for i, e in enumerate(h.edges):
        union = 0
        for v in e:
            union |= inc[v]
        adj.append(tuple(members(union & ~(1 << i))))
    return Graph._trusted(h.m, tuple(adj), None)


def components(h: Hypergraph | Graph) -> list[set[int]]:
    """Connected components as vertex sets, ordered by smallest member.

    Reads only ``n`` and ``edges``, so it serves graphs as well.
    """
    parent = list(range(h.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in range(h.n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def component_count(h: Hypergraph | Graph) -> int:
    return len(components(h))


def is_connected(h: Hypergraph | Graph) -> bool:
    return h.n == 0 or component_count(h) == 1


def _refine_colors(n: int, edges: Sequence[Sequence[int]], rounds: int = 3) -> list[int]:
    # iterated degree-profile refinement: a vertex's color folds in the sorted
    # color multisets of its incident edges
    col = [0] * n
    for _ in range(rounds):
        ekeys = [tuple(sorted(col[v] for v in e)) for e in edges]
        vkeys: list[tuple] = [(col[v],) for v in range(n)]
        for i, e in enumerate(edges):
            for v in e:
                vkeys[v] = vkeys[v] + (ekeys[i],)
        sig = [(k[0], tuple(sorted(k[1:]))) for k in vkeys]
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [remap[s] for s in sig]
        if new == col:
            break
        col = new
    return col


def _iso_backtrack(
    n: int,
    e1: Sequence[Sequence[int]],
    e2: Sequence[Sequence[int]],
) -> Optional[dict[int, int]]:
    c1 = _refine_colors(n, e1)
    c2 = _refine_colors(n, e2)
    if sorted(c1) != sorted(c2):
        return None
    target: dict[frozenset, int] = {}
    for e in e2:
        target[frozenset(e)] = target.get(frozenset(e), 0) + 1
    inc1: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(e1):
        for v in e:
            inc1[v].append(i)
    inc2: list[list[frozenset]] = [[] for _ in range(n)]
    for e in e2:
        fe = frozenset(e)
        for v in e:
            inc2[v].append(fe)
    # connected expansion order: always extend next to the mapped region,
    # preferring rarer colors, so edges complete (and prune) early
    freq = {c: c1.count(c) for c in set(c1)}
    order: list[int] = []
    placed = [False] * n
    adj1: list[set[int]] = [set() for _ in range(n)]
    for e in e1:
        for v in e:
            adj1[v].update(e)
    while len(order) < n:
        best = None
        for v in range(n):
            if placed[v]:
                continue
            attached = sum(1 for u in adj1[v] if placed[u])
            key = (-attached, freq[c1[v]], v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed[best[1]] = True
    mapping: dict[int, int] = {}
    used = [False] * n

    def consistent(v: int) -> bool:
        w = mapping[v]
        for i in inc1[v]:
            e = e1[i]
            img = {mapping[u] for u in e if u in mapping}
            if len(img) == len(e):
                if frozenset(img) not in target:
                    return False
            else:
                # a partially mapped edge must still fit inside some edge at w
                if not any(img <= fe for fe in inc2[w]):
                    return False
        return True

    def bt(i: int) -> bool:
        if i == n:
            got: dict[frozenset, int] = {}
            for e in e1:
                key = frozenset(mapping[u] for u in e)
                got[key] = got.get(key, 0) + 1
            return got == target
        v = order[i]
        for w in range(n):
            if used[w] or c2[w] != c1[v]:
                continue
            mapping[v] = w
            used[w] = True
            if consistent(v) and bt(i + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    if bt(0):
        return dict(mapping)
    return None


def hypergraph_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Backtracking isomorphism with degree-profile pruning."""
    if h1.n != h2.n or h1.m != h2.m:
        return False
    if sorted(map(len, h1.edges)) != sorted(map(len, h2.edges)):
        return False
    return _iso_backtrack(h1.n, h1.edges, h2.edges) is not None


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return _iso_backtrack(g1.n, g1.edges, g2.edges) is not None


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, bipartition=(range(a), range(a, a + b)))

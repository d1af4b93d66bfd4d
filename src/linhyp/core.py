"""Hypergraph and graph data model plus structural transformations.

Hypergraphs are immutable: a vertex count ``n`` and a canonically ordered
tuple of edges, each a strictly increasing tuple of vertex ids in ``[0, n)``.
Duplicate edges are allowed (edge multisets), but linearity checks reject
them.  All operations are pure functions returning new values.
"""

from __future__ import annotations

import copy
import math
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


def component_masks(edge_masks: Sequence[int]) -> list[int]:
    """The vertex sets of the connected components that hold edges, as
    bitmasks, in the order of their first edges.  A component grows from
    the first edge left: each pass over the edges left merges every edge
    that meets the union so far, until a pass merges none."""
    parts = []
    left = edge_masks
    while left:
        union = left[0]
        left = left[1:]
        while True:
            rest = []
            for em in left:
                if em & union:
                    union |= em
                else:
                    rest.append(em)
            if len(rest) == len(left):
                break
            left = rest
        parts.append(union)
    return parts


def components(h: Hypergraph | Graph) -> list[set[int]]:
    """Connected components as vertex sets, ordered by smallest member:
    those of ``component_masks`` and one singleton per vertex in no edge.

    Reads only ``n`` and ``edges``, so it serves graphs as well.
    """
    parts = component_masks([vertex_mask(e) for e in h.edges])
    # the parts are disjoint, so their sum is their union
    parts += [1 << v for v in members((1 << h.n) - 1 - sum(parts))]
    parts.sort(key=lambda part: part & -part)
    return [set(members(part)) for part in parts]


def component_count(h: Hypergraph | Graph) -> int:
    return len(components(h))


def is_connected(h: Hypergraph | Graph) -> bool:
    return h.n == 0 or component_count(h) == 1


def _refine(
    col: list[int],
    edges: Sequence[Sequence[int]],
    inc: Sequence[Sequence[int]],
    rounds: float = math.inf,
) -> tuple[list[int], int, bool]:
    """Refine the vertex colouring ``col`` towards the coarsest equitable one
    for at most ``rounds`` rounds; return the colouring reached, the rounds
    spent and whether it is equitable.

    Each round an edge takes the multiset of its vertices' colours, and a
    vertex its old colour with the multiset of its edges' colours; rounds
    repeat until no colour class splits.  Both partitions only ever split,
    so equal class counts mean equal partitions, and edge classes that did
    not split leave the vertex classes as they are.  Colours are named in
    order of first appearance, so they are consistent within one call only.
    """
    count, ecount = len(set(col)), -1
    spent = 0
    while spent < rounds:
        spent += 1
        names: dict = {}
        get = col.__getitem__
        ecol = [names.setdefault(tuple(sorted(map(get, e))), len(names)) for e in edges]
        if len(names) == ecount:
            return col, spent, True
        ecount = len(names)
        names = {}
        get = ecol.__getitem__
        new = [
            names.setdefault((c, tuple(sorted(map(get, iv)))), len(names))
            for c, iv in zip(col, inc)
        ]
        if len(names) == count:
            return col, spent, True
        col, count = new, len(names)
    return col, spent, False


def _incidence_lists(n: int, edges: Sequence[Sequence[int]]) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    return inc


def _maps_onto(perm: Sequence[int], e1: Sequence[Sequence[int]], want: list[tuple]) -> bool:
    """True iff ``perm`` maps the edge multiset ``e1`` onto ``want`` (sorted)."""
    return sorted(tuple(sorted([perm[v] for v in e])) for e in e1) == want


class _Union:
    """The disjoint union of two edge lists on ``n`` vertices each, for an
    individualize-and-refine isomorphism search (McKay and Piperno,
    *Practical graph isomorphism II*, 2014).

    Vertex v of the first copy is v, of the second ``n + v``.  Colours are
    refined jointly on both copies, so a colour class holding unequal
    numbers of vertices from the two copies admits no isomorphism.
    """

    def __init__(self, n: int, e1: Sequence[Sequence[int]], e2: Sequence[Sequence[int]]):
        self.n = n
        self.e1 = e1
        self.edges = [*e1, *([v + n for v in e] for e in e2)]
        self.inc = _incidence_lists(2 * n, self.edges)
        self.want = sorted(map(tuple, e2))

    def search(self, col: list[int], budget: float = math.inf) -> tuple[Optional[list[int]], int]:
        """An isomorphism from the first copy onto the second that respects the
        colouring ``col`` of the union, as a list of images, or None; and the
        refinement rounds spent, each one pass over the incidences.

        Depth first and iterative: refine; if every class holds one vertex
        of each copy, the leaf's bijection is returned once an explicit check
        confirms that it maps the first edge multiset onto the second;
        otherwise the first vertex of the first copy in the largest class is
        individualised against each vertex of the second copy in that class
        in turn.  Once ``budget`` rounds are spent the answer is None, which
        never claims an isomorphism.
        """
        n = self.n
        used = 0
        stack = []
        while True:
            col, spent, equitable = _refine(col, self.edges, self.inc, budget - used)
            used += spent
            if not equitable:
                return None, used
            cells: dict[int, list[int]] = {}
            for v, c in enumerate(col):
                cells.setdefault(c, []).append(v)
            # a class lists the first copy's vertices first; it must hold
            # as many of them as of the second copy's
            if all(
                len(c) % 2 == 0 and c[len(c) // 2 - 1] < n <= c[len(c) // 2]
                for c in cells.values()
            ):
                target = max(cells.values(), key=len, default=())
                if len(target) <= 2:
                    perm = [0] * n
                    for a, b in cells.values():
                        perm[a] = b - n
                    if _maps_onto(perm, self.e1, self.want):
                        return perm, used
                else:
                    stack.append((col, target[0], iter(target[len(target) // 2:])))
            while stack:
                base, x, ys = stack[-1]
                y = next(ys, None)
                if y is not None:
                    col = base[:]
                    col[x] = col[y] = max(base) + 1
                    break
                stack.pop()
            else:
                return None, used


class Automorphisms:
    """Automorphism queries on one hypergraph under one budget of refinement
    rounds, shared by every query.

    ``colors`` is a colouring of V(H), all one colour unless set by
    :meth:`restricted`, and every answer preserves it: a colour class that
    holds a vertex set S makes the answers maps of S onto itself, a setwise
    stabiliser.  The colouring is refined towards the coarsest equitable
    colouring one round at a time, and only as far as the queries need:
    once u and v differ in colour, no such automorphism maps u to v, and the
    query needs no search.  On a rigid host that takes a round or two, where
    the equitable colouring may take several.  The budget is unlimited
    unless set by :meth:`restricted`; once it is spent every query answers
    None.
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        self.left = math.inf
        self.colors = [0] * h.n
        self.equitable = False
        self._inc = _incidence_lists(h.n, h.edges)
        self._union = _Union(h.n, h.edges, h.edges)

    def restricted(self, colors: list[int], budget: int) -> Automorphisms:
        """Queries for the automorphisms of the same H that preserve
        ``colors``, under a budget of their own; they share this object's
        incidence lists and union of H with itself."""
        out = copy.copy(self)
        out.left, out.colors, out.equitable = budget, colors, False
        return out

    def discrete(self) -> bool:
        """Refine the colouring to equitable, whatever the budget, and tell
        whether each class then holds one vertex.  If so, the identity is
        the only automorphism that preserves the colouring, or any colouring
        that refines it, and every query for u != v answers None."""
        self.colors, _, self.equitable = _refine(self.colors, self.h.edges, self._inc)
        return len(set(self.colors)) == self.h.n

    def mapping(self, u: int, v: int) -> Optional[list[int]]:
        """A permutation of V(H) mapping the edge multiset onto itself, each
        colour class onto itself and ``u`` to ``v``, or None if there is none
        or the budget ran out."""
        while self.colors[u] == self.colors[v] and not self.equitable:
            if self.left <= 0:
                return None
            self.colors, spent, self.equitable = _refine(
                self.colors, self.h.edges, self._inc, 1
            )
            self.left -= spent
        if self.colors[u] != self.colors[v]:
            return None
        col = self.colors * 2
        col[u] = col[self.h.n + v] = max(self.colors) + 1
        perm, spent = self._union.search(col, self.left)
        self.left -= spent
        return perm


def hypergraph_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Individualize-and-refine isomorphism test on the disjoint union."""
    if h1.n != h2.n or h1.m != h2.m:
        return False
    if sorted(map(len, h1.edges)) != sorted(map(len, h2.edges)):
        return False
    return _Union(h1.n, h1.edges, h2.edges).search([0] * (2 * h1.n))[0] is not None


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """The same search on the edge pairs; bipartitions are ignored."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return _Union(g1.n, g1.edges, g2.edges).search([0] * (2 * g1.n))[0] is not None

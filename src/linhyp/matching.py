"""Maximum matching by blossom contraction, Hall violators, and Tutte-Berge
certificates.

One augmenting-path search serves every graph: ``max_matching_general``
starts greedily (in increasing order, each vertex takes its lowest free
neighbour) and then augments only from the vertices still unmatched, so most
roots need no search at all.  The pairs therefore depend on the greedy
start; the size does not.  On a bipartite graph the search meets no odd
cycle, and ``max_matching_bipartite`` only writes its pairs side by side.

The dual identity tau(H) = m(H) - alpha'(dual(H)) for linear hypergraphs of
maximum degree two is exposed as a two-sided check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    CertificateError,
    Graph,
    Hypergraph,
    HypergraphError,
    components,
    dual_graph,
)
from .solver import GuardExceeded, tau


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def check(self, g: Graph) -> bool:
        """True iff every pair is an edge of ``g`` and no vertex repeats.

        Each pair ``(a, b)`` needs both ids in ``[0, n)``, checked first,
        and ``b`` is then looked up by bisection in ``g.adj[a]``, which
        ``Graph`` keeps sorted and duplicate-free.
        """
        n, adj = g.n, g.adj
        seen: set[int] = set()
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                return False
            nb = adj[a]
            i = bisect_left(nb, b)
            if i == len(nb) or nb[i] != b:
                return False
            if a in seen or b in seen:
                return False
            seen.add(a)
            seen.add(b)
        return True


def max_matching_bipartite(g: Graph) -> Matching:
    """Maximum matching of a graph with a bipartition, as ``(left, right)``
    pairs in sorted order.

    The pairs are those of ``max_matching_general``, which meets no odd
    cycle on a bipartite graph and re-checks its result.
    """
    if g.bipartition is None:
        raise HypergraphError("bipartite matching needs a bipartition")
    left = g.bipartition[0]
    pairs = ((a, b) if a in left else (b, a) for a, b in max_matching_general(g).pairs)
    return Matching(tuple(sorted(pairs)))


def hall_violator(g: Graph, side: int = 0) -> Optional[frozenset[int]]:
    """A set S within the chosen side with |N(S)| < |S|, if one exists.

    Returns None when the side can be matched into the other side.  The
    violator is built from the vertices reachable by alternating paths from
    the unmatched side vertices; in a bipartite graph they are the same for
    every maximum matching (Dulmage-Mendelsohn), so the blossom pairs serve.
    """
    if g.bipartition is None:
        raise HypergraphError("Hall check needs a bipartition")
    chosen = sorted(g.bipartition[side])
    match = {a: b for a, b in max_matching_general(g).pairs}
    match.update({b: a for a, b in match.items()})
    unmatched = [v for v in chosen if v not in match]
    if not unmatched:
        return None
    reach_side = set(unmatched)
    reach_other: set[int] = set()
    frontier = list(unmatched)
    while frontier:
        v = frontier.pop()
        for w in g.adj[v]:
            if w in reach_other:
                continue
            reach_other.add(w)
            back = match.get(w)
            if back is not None and back not in reach_side:
                reach_side.add(back)
                frontier.append(back)
    # every vertex of reach_other is matched (else we could augment),
    # and matched into reach_side, so |N(S)| = |reach_other| < |S|
    if len(reach_other) >= len(reach_side):
        raise CertificateError("Hall violator has as many neighbours as members")
    return frozenset(reach_side)


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching in an arbitrary graph (blossom contraction).

    A greedy start gives each vertex, in increasing order, its lowest
    unmatched neighbour; a breadth-first search with blossom contraction then
    augments from each vertex still unmatched.  The result is re-checked, and
    a failure raises ``CertificateError``.
    """
    n, adj = g.n, g.adj
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    # search state, allocated once.  No vertex is the root of two searches,
    # so a search from r marks the parents it set and the vertices it queued
    # with r and needs no reset; only the bases it moved are put back.
    parent = [-1] * n
    grown_by = [-1] * n
    queued_by = [-1] * n
    base = list(range(n))
    moved: list[int] = []

    def find_lca(a: int, b: int) -> int:
        used = set()
        while True:
            a = base[a]
            used.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in used:
                return b
            b = parent[match[b]]

    def mark_path(in_blossom: set[int], v: int, b: int, child: int, root: int) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            grown_by[v] = root
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        for u in moved:
            base[u] = u
        moved.clear()
        queue = [root]
        queued_by[root] = root
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and grown_by[match[w]] == root):
                    # odd cycle: contract the blossom.  It lies in the tree:
                    # the queued vertices and their partners (every odd
                    # vertex's partner is queued; only the root is unmatched)
                    b = find_lca(v, w)
                    in_blossom: set[int] = set()
                    mark_path(in_blossom, v, b, w, root)
                    mark_path(in_blossom, w, b, v, root)
                    for u in sorted({*queue, *map(match.__getitem__, queue[1:])}):
                        if base[u] in in_blossom:
                            base[u] = b
                            moved.append(u)
                            if queued_by[u] != root:
                                queued_by[u] = root
                                queue.append(u)
                elif grown_by[w] != root:
                    parent[w] = v
                    grown_by[w] = root
                    if match[w] == -1:
                        return w  # augmenting path found
                    if queued_by[match[w]] != root:
                        queue.append(match[w])
                        queued_by[match[w]] = root
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        w = find_augmenting(v)
        while w != -1:
            pv = parent[w]
            ppv = match[pv]
            match[w] = pv
            match[pv] = w
            w = ppv
    pairs = sorted((v, match[v]) for v in range(n) if match[v] > v)
    m = Matching(tuple(pairs))
    if not m.check(g):
        raise CertificateError("blossom matching fails its re-check")
    return m


def odd_components(g: Graph, removed: frozenset[int]) -> int:
    # the removed vertices stay behind as isolated singletons, counted out below
    sub = Graph(g.n, [e for e in g.edges if removed.isdisjoint(e)])
    return sum(1 for comp in components(sub) if len(comp) % 2 == 1) - len(removed)


def tutte_berge_certificate(g: Graph, guard_n: int = 20) -> tuple[frozenset[int], int]:
    """A set S attaining alpha'(G) = (n + |S| - oc(G-S)) / 2.

    Weak duality makes any attaining S a minimizer, so the first such S in
    (popcount, lexicographic) order is returned.  Agreement with the blossom
    value is checked; a miss raises ``CertificateError``.
    """
    if g.n > guard_n:
        raise GuardExceeded(f"n={g.n} exceeds certificate guard {guard_n}")
    alpha = max_matching_general(g).size
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            s = frozenset(cand)
            value = (g.n + len(s) - odd_components(g, s)) // 2
            if value == alpha:
                return s, alpha
    raise CertificateError("Tutte-Berge equality must be attained")


def check_dual_identity(h: Hypergraph) -> bool:
    """tau(H) == m(H) - alpha'(dual(H)), both sides computed independently."""
    g = dual_graph(h)  # validates linearity and max degree <= 2
    lhs = tau(h).tau
    rhs = h.m - max_matching_general(g).size
    return lhs == rhs

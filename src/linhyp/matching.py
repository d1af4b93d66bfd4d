"""Maximum matching: bipartite augmenting paths, general-graph blossom
contraction, Hall violators, and Tutte-Berge certificates.

The dual identity tau(H) = m(H) - alpha'(dual(H)) for linear hypergraphs of
maximum degree two is exposed as a two-sided check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    CertificateError,
    Graph,
    Hypergraph,
    HypergraphError,
    dual_graph,
    graph_components,
)
from .solver import GuardExceeded, tau


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def vertices(self) -> set[int]:
        return {v for p in self.pairs for v in p}

    def check(self, g: Graph) -> bool:
        edge_set = set(g.edges)
        seen: set[int] = set()
        for a, b in self.pairs:
            if (min(a, b), max(a, b)) not in edge_set:
                return False
            if a in seen or b in seen:
                return False
            seen.update((a, b))
        return True


def max_matching_bipartite(g: Graph) -> Matching:
    """Maximum matching by alternating-path augmentation from the left side.

    Left vertices are tried in increasing order; each search is a depth-first
    walk over neighbours in increasing order, kept on an explicit stack so
    that long augmenting paths need no recursion.
    """
    if g.bipartition is None:
        raise HypergraphError("bipartite matching needs a bipartition")
    left = sorted(g.bipartition[0])
    adj = g.adjacency()
    nbrs = {v: sorted(adj[v]) for v in left}  # frames hold left vertices only
    match: dict[int, int] = {}  # both directions

    for root in left:
        if root in match:
            continue
        visited: set[int] = set()
        stack = [(root, iter(nbrs[root]))]  # (left vertex, its untried neighbours)
        through: list[int] = []  # the neighbour each frame but the top is trying
        while stack:
            untried = stack[-1][1]
            for w in untried:
                if w not in visited:
                    break
            else:
                stack.pop()
                if through:
                    through.pop()
                continue
            visited.add(w)
            through.append(w)
            if w in match:
                stack.append((match[w], iter(nbrs[match[w]])))
                continue
            for (u, _), x in zip(stack, through):
                match[u] = x
                match[x] = u
            break
    pairs = sorted((v, match[v]) for v in left if v in match)
    return Matching(tuple(pairs))


def hall_violator(g: Graph, side: int = 0) -> Optional[frozenset[int]]:
    """A set S within the chosen side with |N(S)| < |S|, if one exists.

    Returns None when the side can be matched into the other side.  The
    violator is built from the vertices reachable by alternating paths from
    the unmatched side vertices.
    """
    if g.bipartition is None:
        raise HypergraphError("Hall check needs a bipartition")
    chosen = sorted(g.bipartition[side])
    other_bip = (g.bipartition[1], g.bipartition[0])
    view = g if side == 0 else Graph(g.n, g.edges, bipartition=other_bip)
    match = {a: b for a, b in max_matching_bipartite(view).pairs}
    match.update({b: a for a, b in match.items()})
    unmatched = [v for v in chosen if v not in match]
    if not unmatched:
        return None
    adj = g.adjacency()
    reach_side = set(unmatched)
    reach_other: set[int] = set()
    frontier = list(unmatched)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
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
    """Maximum matching in an arbitrary graph (blossom contraction)."""
    n = g.n
    adj = [sorted(nb) for nb in g.adjacency()]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def find_lca(root_of: list[int], a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(in_blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal base, parent
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        queue = [root]
        in_queue[root] = True
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # odd cycle: contract the blossom
                    b = find_lca(base, v, w)
                    in_blossom = [False] * n
                    mark_path(in_blossom, v, b, w)
                    mark_path(in_blossom, w, b, v)
                    for u in range(n):
                        if in_blossom[base[u]]:
                            base[u] = b
                            if not in_queue[u]:
                                in_queue[u] = True
                                queue.append(u)
                elif parent[w] == -1:
                    parent[w] = v
                    if match[w] == -1:
                        return w  # augmenting path found
                    if not in_queue[match[w]]:
                        queue.append(match[w])
                        in_queue[match[w]] = True
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


def max_matching_bruteforce(g: Graph, guard_m: int = 60) -> int:
    """Exhaustive matching-size oracle over edge subsets.

    Sizes increase until none is feasible; any matching of size s+1 contains
    one of size s, so the first gap is conclusive.
    """
    if g.m > guard_m:
        raise GuardExceeded(f"m={g.m} exceeds brute-force guard {guard_m}")
    best = 0
    for size in range(1, g.n // 2 + 1):
        found = False
        for sub in combinations(g.edges, size):
            verts = [v for e in sub for v in e]
            if len(set(verts)) == 2 * size:
                found = True
                break
        if not found:
            break
        best = size
    return best


def odd_components(g: Graph, removed: frozenset[int]) -> int:
    sub_edges = [
        (a, b) for a, b in g.edges if a not in removed and b not in removed
    ]
    keep = [v for v in range(g.n) if v not in removed]
    rid = {v: i for i, v in enumerate(keep)}
    sub = Graph(len(keep), [(rid[a], rid[b]) for a, b in sub_edges])
    return sum(1 for comp in graph_components(sub) if len(comp) % 2 == 1)


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

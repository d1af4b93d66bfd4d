"""Exhaustive and set-based reference computations on graphs, used only as
oracles by the tests."""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from linhyp.core import Graph, Hypergraph, HypergraphError
from linhyp.deficiency import SpecialSet, estar
from linhyp.solver import GuardExceeded


def max_matching_bruteforce(g: Graph, guard_m: int = 60) -> int:
    """Exhaustive matching size over edge subsets.

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


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None if the graph is a forest."""
    best: Optional[int] = None
    adj = g.adjacency()
    for s in range(g.n):
        dist = {s: 0}
        par = {s: -1}
        queue = [s]
        while queue:
            nxt = []
            for v in queue:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        par[w] = v
                        nxt.append(w)
                    elif w != par[v]:
                        cyc = dist[v] + dist[w] + 1
                        if best is None or cyc < best:
                            best = cyc
            queue = nxt
    return best


def gamma_t_bruteforce(g: Graph, guard_n: int = 16) -> int:
    """Total domination number by a scan of vertex subsets in size order."""
    if g.n > guard_n:
        raise GuardExceeded(f"n={g.n} exceeds brute-force guard {guard_n}")
    adj = g.adjacency()
    if any(not nb for nb in adj):
        raise HypergraphError("total domination undefined with isolated vertices")
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            s = set(cand)
            if all(adj[v] & s for v in range(g.n)):
                return size
    raise AssertionError("unreachable")


def estar_bipartite_graph(host: Hypergraph, x: SpecialSet) -> Graph:
    """The bipartite graph pairing packed copies with the E*(X) edges.

    Left side: one vertex per member of the packing (in order).  Right side:
    one vertex per E*(X) edge (ascending edge index).  An edge joins them
    when the external edge meets that copy.
    """
    ext = sorted(estar(host, x))
    k = len(x.embeddings)
    pairs = []
    for j, ei in enumerate(ext):
        everts = set(host.edges[ei])
        for i, emb in enumerate(x.embeddings):
            if everts & set(emb.vertex_map):
                pairs.append((i, k + j))
    return Graph(k + len(ext), pairs, bipartition=(range(k), range(k, k + len(ext))))

"""Exact transversal numbers: brute force oracle, branch and bound,
minimum-transversal enumeration, and total domination via the ONH.

Vertex sets and edges are manipulated as bitmasks, so the practical target
of n <= 60 fits in machine words of a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .core import CertificateError, Graph, Hypergraph, onh, vertex_mask


class GuardExceeded(RuntimeError):
    """An explicit size guard was exceeded; raise the guard knowingly."""


@dataclass(frozen=True)
class TransversalResult:
    tau: int
    witness: tuple[int, ...]
    nodes_explored: int
    method: str

    def check(self, h: Hypergraph) -> bool:
        """Re-verify the witness against the input, independently."""
        w = set(self.witness)
        return len(w) == self.tau and all(w & set(e) for e in h.edges)


def tau_bruteforce(h: Hypergraph, guard_n: int = 25) -> TransversalResult:
    """Increasing-size, lexicographic subset scan; the independent oracle."""
    if h.n > guard_n:
        raise GuardExceeded(f"n={h.n} exceeds brute-force guard {guard_n}")
    masks = h.edge_masks()
    if not masks:
        return TransversalResult(0, (), 0, "bruteforce")
    nodes = 0
    for size in range(1, h.n + 1):
        for cand in combinations(range(h.n), size):
            nodes += 1
            cmask = vertex_mask(cand)
            if all(cmask & em for em in masks):
                return TransversalResult(size, cand, nodes, "bruteforce")
    raise AssertionError("unreachable: V(H) is always a transversal")


def _greedy_cover(inc: list[int], uncovered: int) -> list[int]:
    # repeatedly take the vertex covering the most uncovered edges (tie: low id)
    cover = []
    while uncovered:
        best_v = max(range(len(inc)), key=lambda v: (uncovered & inc[v]).bit_count())
        cover.append(best_v)
        uncovered &= ~inc[best_v]
    return cover


def tau(h: Hypergraph) -> TransversalResult:
    """Exact transversal number by bitset branch and bound.

    The uncovered edges are one bitmask over edge indices, so covering ``v``
    is ``unc & ~inc[v]`` and a residual degree is a popcount.  One pass per
    node over the uncovered edges, in index order, returns on a dead edge
    (no allowed vertex left), packs greedily into disjoint sets both the
    allowed parts and the whole edges, and picks the first allowed part of
    minimum size.  Lower bounds: the larger packing (greedy packing depends
    on order, so neither packing dominates the other), then the top-degree
    bound, the least t such that the t largest residual degrees of allowed
    vertices sum to at least the number of uncovered edges.  Branching: on
    the picked part's vertices in descending residual degree (tie: lowest
    id); each later branch forbids the vertices tried before it.  The upper
    bound is seeded by a greedy cover.  Every bound holds in its whole
    subtree, so tau and the witness (the DFS's first optimum) do not depend
    on the bounds; ``nodes_explored`` is a work counter that a stronger bound
    lowers.
    """
    masks = h.edge_masks()
    if not masks:
        return TransversalResult(0, (), 0, "branch_and_bound")
    inc = h.incidence_masks()
    everything = (1 << len(masks)) - 1
    # the same masks keyed by the single bit of their edge or vertex, so a
    # walk over the set bits of a mask needs no bit_length per step
    edge_at = {1 << i: em for i, em in enumerate(masks)}
    inc_at = {1 << v: iv for v, iv in enumerate(inc)}
    greedy = _greedy_cover(inc, everything)
    best_size = len(greedy)
    best_set = list(greedy)
    nodes = 0

    def dfs(unc: int, chosen: list[int], forbidden: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if not unc:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = list(chosen)
            return
        allow = ~forbidden
        reach = taken = packing = whole_taken = whole_packing = 0
        pick, pick_size = 0, 1 << 62
        rest = unc
        while rest:
            low = rest & -rest
            rest ^= low
            em = edge_at[low]
            allowed = em & allow
            if not allowed:
                return  # this edge can no longer be covered
            reach |= allowed
            if not allowed & taken:
                packing += 1
                taken |= allowed
            if not em & whole_taken:
                whole_packing += 1
                whole_taken |= em
            sz = allowed.bit_count()
            if sz < pick_size:
                pick, pick_size = allowed, sz
        room = best_size - len(chosen)
        if packing >= room or whole_packing >= room:
            return
        degs = {}
        while reach:
            low = reach & -reach
            reach ^= low
            degs[low] = (unc & inc_at[low]).bit_count()
        # top-degree bound: prune unless room - 1 vertices can cover unc
        if sum(sorted(degs.values(), reverse=True)[: room - 1]) < unc.bit_count():
            return
        order = []
        while pick:
            low = pick & -pick
            pick ^= low
            order.append((-degs[low], low))
        order.sort()
        banned = forbidden
        for _, bit in order:
            chosen.append(bit.bit_length() - 1)
            dfs(unc & ~inc_at[bit], chosen, banned)
            chosen.pop()
            banned |= bit

    dfs(everything, [], 0)
    result = TransversalResult(
        best_size, tuple(sorted(best_set)), nodes, "branch_and_bound"
    )
    if not result.check(h):
        raise CertificateError(f"tau witness {result.witness} fails its re-check")
    return result


def enumerate_min_transversals(
    h: Hypergraph, guard_n: int = 25, guard_tau: int = 8
) -> list[tuple[int, ...]]:
    """All minimum transversals, lexicographic order.

    A depth-first search picks tau vertices in increasing order and keeps the
    uncovered edges as a bitmask over edge indices.  The next vertex ``v``
    can only cover edges that have a vertex at or above ``v``, so the search
    backtracks as soon as an uncovered edge lies wholly below ``v``.  The
    leaves come out in the lexicographic order of the vertex tuples.
    """
    if h.n > guard_n:
        raise GuardExceeded(f"n={h.n} exceeds enumeration guard {guard_n}")
    if not h.edges:
        return [()]
    t = tau(h).tau
    if t > guard_tau:
        raise GuardExceeded(f"tau={t} exceeds enumeration guard {guard_tau}")
    inc = h.incidence_masks()
    # below[v]: the edges whose every vertex is below v
    below = [0] * (h.n + 1)
    for i, e in enumerate(h.edges):
        below[e[-1] + 1] |= 1 << i
    for v in range(1, h.n + 1):
        below[v] |= below[v - 1]
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def dfs(start: int, unc: int) -> None:
        left = t - len(chosen)
        if not left:
            if not unc:
                out.append(tuple(chosen))
            return
        for v in range(start, h.n - left + 1):
            if unc & below[v]:
                return  # an uncovered edge ends below v, so below every later v
            chosen.append(v)
            dfs(v + 1, unc & ~inc[v])
            chosen.pop()

    dfs(0, (1 << h.m) - 1)
    return out


def exists_min_transversal(
    h: Hypergraph,
    predicate: Callable[[frozenset[int]], bool],
    guard_n: int = 25,
    guard_tau: int = 8,
) -> bool:
    """True iff some minimum transversal satisfies the predicate."""
    return any(
        predicate(frozenset(t))
        for t in enumerate_min_transversals(h, guard_n, guard_tau)
    )


def gamma_t(g: Graph) -> int:
    """Total domination number, via tau of the open neighborhood hypergraph."""
    return tau(onh(g)).tau

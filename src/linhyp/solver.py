"""Exact transversal numbers: brute force oracle, branch and bound,
minimum-transversal enumeration, and total domination via the ONH.

Vertex sets and edges are manipulated as bitmasks, so the practical target
of n <= 60 fits in machine words of a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .core import CertificateError, Graph, Hypergraph, HypergraphError, onh


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
            cmask = 0
            for v in cand:
                cmask |= 1 << v
            if all(cmask & em for em in masks):
                return TransversalResult(size, cand, nodes, "bruteforce")
    raise AssertionError("unreachable: V(H) is always a transversal")


def _greedy_cover(masks: list[int], n: int) -> list[int]:
    # repeatedly take the vertex covering the most uncovered edges (tie: low id)
    uncovered = list(masks)
    cover = []
    while uncovered:
        best_v, best_cnt = -1, -1
        for v in range(n):
            bit = 1 << v
            cnt = sum(1 for em in uncovered if em & bit)
            if cnt > best_cnt:
                best_v, best_cnt = v, cnt
        cover.append(best_v)
        bit = 1 << best_v
        uncovered = [em for em in uncovered if not em & bit]
    return cover


def _lower_bound(uncovered: list[int]) -> int:
    """max(greedy disjoint-edge packing, ceil(m / Delta)) on uncovered edges."""
    if not uncovered:
        return 0
    taken = 0
    packing = 0
    for em in uncovered:
        if not em & taken:
            packing += 1
            taken |= em
    degs: dict[int, int] = {}
    for em in uncovered:
        m = em
        while m:
            v = (m & -m).bit_length() - 1
            degs[v] = degs.get(v, 0) + 1
            m &= m - 1
    dmax = max(degs.values())
    count_bound = -(-len(uncovered) // dmax)
    return max(packing, count_bound)


def tau(h: Hypergraph) -> TransversalResult:
    """Exact transversal number by branch and bound.

    Branching: pick an uncovered edge of minimum size (tie: lowest index)
    and branch on its vertices in descending degree over uncovered edges
    (tie: lowest id); each later branch forbids the vertices tried before
    it.  Lower bound: disjoint uncovered edges plus a counting bound; upper
    bound seeded by a greedy cover.  Deterministic result and witness.
    """
    masks = h.edge_masks()
    if not masks:
        return TransversalResult(0, (), 0, "branch_and_bound")
    greedy = _greedy_cover(masks, h.n)
    best_size = len(greedy)
    best_set = list(greedy)
    nodes = 0

    def dfs(uncovered: list[int], chosen: list[int], forbidden: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = list(chosen)
            return
        if len(chosen) + _lower_bound(uncovered) >= best_size:
            return
        # smallest uncovered edge, restricted to allowed vertices
        pick_i, pick_allowed = -1, 0
        pick_size = 1 << 62
        for i, em in enumerate(uncovered):
            allowed = em & ~forbidden
            if not allowed:
                return  # this edge can no longer be covered
            sz = allowed.bit_count()
            if sz < pick_size:
                pick_i, pick_allowed, pick_size = i, allowed, sz
        degs: dict[int, int] = {}
        m = pick_allowed
        while m:
            v = (m & -m).bit_length() - 1
            degs[v] = 0
            m &= m - 1
        for em in uncovered:
            for v in degs:
                if em & (1 << v):
                    degs[v] += 1
        order = sorted(degs, key=lambda v: (-degs[v], v))
        banned = forbidden
        for v in order:
            bit = 1 << v
            chosen.append(v)
            dfs([em for em in uncovered if not em & bit], chosen, banned)
            chosen.pop()
            banned |= bit

    dfs(masks, [], 0)
    result = TransversalResult(
        best_size, tuple(sorted(best_set)), nodes, "branch_and_bound"
    )
    if not result.check(h):
        raise CertificateError(f"tau witness {result.witness} fails its re-check")
    return result


def enumerate_min_transversals(
    h: Hypergraph, guard_n: int = 25, guard_tau: int = 8
) -> list[tuple[int, ...]]:
    """All minimum transversals, lexicographic order."""
    if h.n > guard_n:
        raise GuardExceeded(f"n={h.n} exceeds enumeration guard {guard_n}")
    masks = h.edge_masks()
    if not masks:
        return [()]
    t = tau(h).tau
    if t > guard_tau:
        raise GuardExceeded(f"tau={t} exceeds enumeration guard {guard_tau}")
    out = []
    for cand in combinations(range(h.n), t):
        cmask = 0
        for v in cand:
            cmask |= 1 << v
        if all(cmask & em for em in masks):
            out.append(cand)
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


def gamma_t_bruteforce(g: Graph, guard_n: int = 16) -> int:
    """Independent total-domination oracle: scan vertex subsets directly."""
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

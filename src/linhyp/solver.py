"""Exact transversal numbers: brute force oracle, branch and bound,
minimum-transversal enumeration, and total domination via the ONH.

Vertex sets and edges are manipulated as bitmasks, so the practical target
of n <= 60 fits in machine words of a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Callable, Optional

from .core import (
    Automorphisms,
    CertificateError,
    Graph,
    Hypergraph,
    component_masks,
    delete_vertices,
    members,
    onh,
    vertex_mask,
)


# Measured cost ratios, not settings.  The unit is one search node per unit
# of mean edge size: a node scans the m uncovered edges, while one
# refinement round of H or H + H passes over all their incidences and costs
# 2 to 4 units on the plane and ONH hosts.  A subtree's size is its searched
# nodes plus one per child that the dominance rule skipped in it.  A child
# whose subtree took fewer than _TEST_NODES units builds no automorphism test
# for its later siblings (a test on a symmetric host refines H and then
# H + H a few rounds each); otherwise the test may spend one round per
# _ROUND_NODES units, so it costs at most about as much as that subtree did.
_TEST_NODES = 40
_ROUND_NODES = 4
# The fractional-packing weights L // d are exact up to this residual degree:
# L = lcm(1..16) = 720,720 keeps each weight, and each load the search forms,
# a small int however large the host's maximum degree.
_EXACT_DEGREE = 16


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
    """Increasing-size, lexicographic subset scan; the independent oracle.

    It shares no code with :func:`tau`, which makes it the reference that
    tests and callers can check a branch-and-bound answer against on small
    hosts; it stays in the library because it is exported and documented.
    """
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
        degrees = [(uncovered & iv).bit_count() for iv in inc]
        best_v = degrees.index(max(degrees))
        cover.append(best_v)
        uncovered &= ~inc[best_v]
    return cover


@lru_cache(maxsize=16)
def _fractional_weights(delta: int) -> tuple[int, tuple[int, ...]]:
    """L = lcm(1..min(delta, _EXACT_DEGREE)) and the weights L // d, indexed
    by d up to delta.  L // d <= L / d, so they are a fractional packing at
    every degree, and an exact one up to _EXACT_DEGREE."""
    big = lcm(*range(1, min(delta, _EXACT_DEGREE) + 1))
    return big, (0,) + tuple(big // d for d in range(1, delta + 1))


def _orbit_test(autos: Automorphisms, first: int) -> Callable[[int], bool]:
    """The orbit test for the later siblings of the searched child ``first``.

    It is true for a vertex once an automorphism from ``autos`` maps
    ``first`` onto it.  The orbit is closed under every automorphism found,
    so most children of a symmetric node need no search of their own.
    """
    orbit = {first}
    found: list[list[int]] = []

    def in_orbit(v: int) -> bool:
        if v in orbit:
            return True
        perm = autos.mapping(first, v)
        if perm is None:
            return False
        found.append(perm)
        todo = list(orbit)
        while todo:
            w = todo.pop()
            for g in found:
                if g[w] not in orbit:
                    orbit.add(g[w])
                    todo.append(g[w])
        return True

    return in_orbit


def tau(h: Hypergraph) -> TransversalResult:
    """Exact transversal number by bitset branch and bound.

    The uncovered edges are one bitmask over edge indices, so covering ``v``
    is ``unc & ~inc[v]`` and a residual degree is a popcount.  One pass per
    node over the uncovered edges, in index order, returns on a dead edge
    (no allowed vertex left), packs greedily into disjoint sets both the
    allowed parts and the whole edges, and picks the first allowed part of
    minimum size.  Lower bounds: the larger packing (greedy packing depends
    on order, so neither packing dominates the other), then a fractional
    packing.  One pass over the allowed vertices ORs their incidence masks
    per residual degree d; walking d down from Delta(H), the first d whose
    OR meets an uncovered edge e is D(e), the largest residual degree of
    e's allowed vertices.  With y_e = 1/D(e), an allowed vertex of degree d
    carries at most d * 1/d = 1, so by LP duality the residual needs at
    least sum(y_e) vertices (the fractional cover number of Lovász's
    tau <= (1 + ln Delta) tau*).  The test is in integers: sum(L // D(e)) >
    (room - 1) * L with L = lcm(1..min(Delta(H), 16)).  L // d <= L / d, so
    the test is sound at every degree and exact while Delta(H) <= 16.  Then
    it prunes wherever the top-degree bound (the room - 1 largest residual
    degrees sum to fewer than the uncovered edges) would: charge each edge
    to an allowed vertex of degree D(e), at most deg(v) edges to v;
    sum(y_e) is least when the largest degrees are filled first, and then
    those room - 1 vertices take 1 each with edges left over.  Branching:
    on the picked part's vertices in descending residual degree (tie:
    lowest id); each later branch forbids the vertices tried before it.
    The upper bound is seeded by a greedy cover.  Every bound holds in its
    whole subtree, so tau and the witness (the DFS's first optimum) do not
    depend on the bounds; ``nodes_explored`` is a work counter that a
    stronger bound lowers.

    Orbit rule (Ostrowski, Linderoth, Rossi and Smriglio, *Orbital
    branching*, Math. Program. 2011), at every node.  Take a node with
    chosen set C and its children v1, v2, ... in search order.  Once child
    j is searched, a later child vi is skipped if an automorphism sigma of H
    is known with sigma(vj) = vi and sigma(C) = C.  Proof: a transversal
    runs down one branch of the tree, to the first child, in search order,
    whose vertex it holds.  One that holds C + {vj} therefore runs through
    child j or leaves the path to child j at a child searched before it,
    here or above.  So once child j is searched, the incumbent is no larger
    than any transversal that holds C + {vj} (by induction in search order:
    every subtree left was searched, pruned by a bound, or skipped by this
    rule or by the dominance rule below).  A transversal T searched by child
    i holds C + {vi}; sigma^-1(T) holds C + {vj} and has the size of T, so
    child i holds nothing smaller than the incumbent.  The incumbent only
    changes on a strictly smaller transversal, so skipping child i is a
    bound prune and changes neither tau nor the witness.  The skipped vertex
    stays forbidden in the later children, as if child i had been searched.
    The forbidden vertices need no colour class of their own: sigma need not
    fix them.

    Dominance rule, at every node: once a child has been searched or
    skipped by the orbit rule, a later child v of residual degree 1 is
    skipped.  Children go in descending residual degree, so every child
    after v has degree 1 too and the node is done.  This is the degree-one
    case of the vertex-domination reduction (Weihe, *Covering trains by
    stations or the power of data reduction*, ALEX 1998; Akiba and Iwata,
    *Branch-and-reduce exponential/FPT algorithms in practice*, Theor.
    Comput. Sci. 2016).  Proof, the orbit rule's exchange argument with
    T - v + u in place of sigma^-1(T): for an earlier child u, the only
    uncovered edge through v is the picked part's edge, which holds u too,
    so unc & inc[v] is a subset of unc & inc[u].  A transversal T searched
    by child v holds C + {v} and avoids the vertices forbidden there, a
    superset of those forbidden at child u; T - v + u holds C + {u}, avoids
    the vertices forbidden at child u, covers every edge and is no larger
    than T.  Once child u is searched or skipped, the incumbent is no larger
    than any such transversal (as in the orbit rule), so child v holds
    nothing smaller than the incumbent, and the skip changes neither tau
    nor the witness.  The argument needs no linearity, and the test reads
    the degree the sort already computed.
    ``nodes_explored`` counts searched nodes only, but each skipped child
    counts one unit of the subtree size that gates the orbit tests:
    without it the skips shrink subtrees under ``_TEST_NODES``, fewer tests
    get built, and some hosts take more nodes than before.

    Automorphisms come from :class:`~linhyp.core.Automorphisms`, with C as
    one colour class, under a budget of refinement rounds in proportion to
    child j's subtree (see ``_TEST_NODES`` and ``_ROUND_NODES``); a search
    that finds none skips nothing.  Each node may build one test per
    searched child.  When the first test is due, the all-one colouring is
    refined to equitable once; if that leaves one vertex per class, the
    identity is the only automorphism, every query would answer None, and
    the search builds no test, with the same nodes and witness.

    Components.  tau is additive over the connected components, and the
    search of a disconnected host runs through the product of their
    searches.  So once the whole host's root has run its bounds without
    closing, :func:`~linhyp.core.component_masks` finds the components
    that hold edges.  With two or more, each is searched in turn on the
    host's masks, from its own edges, as tau of that component alone
    (``delete_vertices`` of the vertices outside it, which relabels its
    vertices in increasing order) would search it: from its own greedy
    cover (the host's greedy cover picks the same vertices in it), with its
    own mean edge size and automorphisms, the latter on that
    ``delete_vertices`` hypergraph, built when its first orbit test is due.
    The host's fractional weights serve it unchanged: up to degree 16 both
    the host's and the component's are exact, and above it they are equal.
    tau is the sum, the witness the union of the components' first optima,
    and ``nodes`` one for the whole host's root plus the components' nodes;
    the union is re-checked on the whole host.  A host whose root closes, or
    with one component holding edges, keeps the single search and its
    witness.
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
    delta = max(map(int.bit_count, inc))
    lcm_all, weight = _fractional_weights(delta)
    width = delta + 1
    degrees_down = range(delta, 0, -1)
    greedy = _greedy_cover(inc, everything)
    best_size = len(greedy)
    best_set = list(greedy)
    nodes = dominated = 0
    # the edges searched (all of h, or one component's), the component's
    # vertex mask (0 for all of h) and, once the first test is due, the
    # hypergraph that the orbit tests run on: h, or that component with its
    # vertices relabelled in increasing order by ``at``
    scope, part, sub, at = everything, 0, h, range(h.n)
    autos: Optional[Automorphisms] = None  # built when the first test is due
    rigid = False
    edge_size = 0.0

    def build_test(
        chosen: list[int], first: int, spent: int
    ) -> Optional[Callable[[int], bool]]:
        # spent: the nodes of first's subtree, plus one per child that the
        # dominance rule skipped there; divided by the mean edge size it is
        # in the unit of _TEST_NODES and _ROUND_NODES
        nonlocal autos, rigid, edge_size, sub, at
        if not edge_size:
            edge_size = sum(masks[i].bit_count() for i in members(scope)) / scope.bit_count()
        spent /= edge_size
        if spent < _TEST_NODES:
            return None
        if autos is None:
            if part:
                sub = delete_vertices(h, (v for v in range(h.n) if not part >> v & 1))
                at = {v: i for i, v in enumerate(members(part))}
            autos = Automorphisms(sub)
            # the identity alone preserves a discrete colouring, so on a
            # rigid host every query would answer None
            rigid = autos.discrete()
        if rigid:
            return None
        colors = [0] * sub.n
        for v in chosen:
            colors[at[v]] = 1
        test = _orbit_test(autos.restricted(colors, int(spent // _ROUND_NODES)), at[first])
        return test if sub is h else lambda v: test(at[v])

    def search_component(vertices: int) -> None:
        # the search that tau of the component on these vertices would run
        nonlocal best_size, best_set, scope, part, autos, rigid, edge_size
        best_set = [v for v in greedy if vertices >> v & 1]
        best_size = len(best_set)
        scope = sum(bit for bit, em in edge_at.items() if em & vertices)
        part = vertices
        autos, rigid, edge_size = None, False, 0.0
        dfs(scope, [], 0)

    def dfs(unc: int, chosen: list[int], forbidden: int) -> None:
        nonlocal best_size, best_set, nodes, dominated
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
        # the union of the incidence masks of the allowed vertices of each
        # residual degree d
        over = [0] * width
        while reach:
            low = reach & -reach
            reach ^= low
            iv = inc_at[low]
            over[(unc & iv).bit_count()] |= iv
        # fractional packing, in units of 1 / L: y_e = 1 / D(e), D(e) the
        # largest residual degree of e's allowed vertices, so no allowed
        # vertex carries more than 1; prune unless room - 1 >= sum(y_e)
        left, load = unc, 0
        for d in degrees_down:
            hit = left & over[d]
            if hit:
                load += hit.bit_count() * weight[d]
                left ^= hit
                if not left:
                    break
        if load > (room - 1) * lcm_all:
            return
        if unc == everything:  # the root, and its bounds leave it open
            parts = component_masks(masks)
            if len(parts) > 1:
                size, witness = 0, []
                for vertices in parts:
                    search_component(vertices)
                    size += best_size
                    witness += best_set
                best_size, best_set = size, witness
                return
        order = []
        while pick:
            low = pick & -pick
            pick ^= low
            order.append((-(unc & inc_at[low]).bit_count(), low))
        order.sort()
        banned = forbidden
        tests: list[Callable[[int], bool]] = []
        for i, (minus_degree, bit) in enumerate(order):
            if i and minus_degree == -1:
                # dominance rule: this child and every later one (the sort
                # puts them last) have residual degree 1
                dominated += len(order) - i
                break
            if not (tests and any(test(bit.bit_length() - 1) for test in tests)):
                before = nodes + dominated
                chosen.append(bit.bit_length() - 1)
                dfs(unc & ~inc_at[bit], chosen, banned)
                v = chosen.pop()
                spent = nodes + dominated - before
                if spent >= _TEST_NODES:
                    test = build_test(chosen, v, spent)
                    if test is not None:
                        tests.append(test)
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

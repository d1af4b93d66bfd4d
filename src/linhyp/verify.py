"""Runnable verification of the catalog properties and the named bounds.

The property suite re-does the "verified by computer" work for every special
hypergraph: structural values, minimum-transversal coverage properties, and
the two component conditions.  It works on bitmasks: each vertex carries
the index mask of the minimum transversals through it and the vertex mask
of its co-edged neighbours; items (h)-(m) read their failing sets off
``apart``.  Bound checks always validate their hypotheses, in
``bound_value``, before comparing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, islice
from typing import Optional, Sequence

from .algebra import affine_residual
from .catalog import NAMES, SHAPES, DEFIC_WEIGHT, order_class, special
from .core import (
    ArgumentError,
    Graph,
    Hypergraph,
    HypergraphError,
    components,
    hypergraph_isomorphic,
    is_connected,
    is_k_uniform,
    is_linear,
    members,
    vertex_mask,
)
from .deficiency import deficiency
from .solver import enumerate_min_transversals, gamma_t, tau


@dataclass(frozen=True)
class CheckResult:
    prop: str
    applicable: bool
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class PropertyReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.applicable and not c.passed]


def _na(prop: str) -> CheckResult:
    return CheckResult(prop, applicable=False, passed=True)


def _adjacency_masks(h: Hypergraph) -> list[int]:
    """Per vertex, the vertex mask of the other vertices of its edges."""
    adj = [0] * h.n
    for e, em in zip(h.edges, h.edge_masks()):
        for v in e:
            adj[v] |= em
    return [a & ~(1 << v) for v, a in enumerate(adj)]


def _independent_pairs(mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """The non-adjacent pairs within ``mask``, in lexicographic order."""
    return [
        (a, b) for a in members(mask) for b in members(mask & ~adj[a] & ~((2 << a) - 1))
    ]


def _independent_triples(lowdeg: list[int], adj: list[int]) -> list[tuple[int, int, int]]:
    """The independent triples of ``lowdeg``, in lexicographic order."""
    low = vertex_mask(lowdeg)
    return [
        (a, b, c)
        for a in lowdeg
        for b, c in _independent_pairs(low & ~adj[a] & ~((2 << a) - 1), adj)
    ]


class _TransversalIndex:
    """Minimum transversals of one hypergraph with per-vertex hit bitmaps."""

    def __init__(self, h: Hypergraph):
        self.h = h
        self.transversals = enumerate_min_transversals(h)
        self.by_vertex = [0] * h.n
        for i, t in enumerate(self.transversals):
            for v in t:
                self.by_vertex[v] |= 1 << i
        # apart[u]: the vertices that share no minimum transversal with u
        self.apart = [
            vertex_mask(v for v, bv in enumerate(self.by_vertex) if not bu & bv)
            for bu in self.by_vertex
        ]


def _check_i_j(idx: _TransversalIndex, size: int, exception: Optional[set[int]]):
    """Items (i)/(j): every |T'|=size subset meets some minimum transversal
    in >= 2 vertices, modulo the named H_11 exception for size 3.

    A subset fails iff its vertices pairwise share no minimum transversal,
    so the failing subsets are grown vertex by vertex in increasing order,
    each new vertex drawn from the later vertices apart from all before it.
    """
    bad = []

    def extend(chosen: tuple[int, ...], candidates: int) -> None:
        if len(chosen) == size:
            bad.append(set(chosen))
            return
        for v in members(candidates):
            extend(chosen + (v,), candidates & idx.apart[v] & ~((2 << v) - 1))

    extend((), (1 << idx.h.n) - 1)
    if exception is None:
        return (not bad), bad
    # exactly the exceptional subset may (and must) fail
    return (bad == [exception]), bad


def obs61_suite(kind: str) -> PropertyReport:
    """Run every applicable catalog property for one special hypergraph."""
    h = special(kind)
    n, m, t_expected = SHAPES[kind]
    deg = h.degrees()
    idx = _TransversalIndex(h)
    t_actual = len(idx.transversals[0]) if idx.transversals else 0
    adj = _adjacency_masks(h)
    checks: list[CheckResult] = []

    # (a)-(e): order, size, transversal number per class
    label = {4: "a", 10: "b", 11: "c", 14: "d", 21: "e"}[order_class(kind)]
    shape_ok = h.n == n and h.m == m and t_actual == t_expected
    checks.append(
        CheckResult(
            label,
            True,
            shape_ok,
            None if shape_ok else f"(n,m,tau)=({h.n},{h.m},{t_actual})",
        )
    )

    # (f): named members are 2-regular
    if kind in ("H10", "H14_5", "H14_6"):
        checks.append(CheckResult("f", True, all(d == 2 for d in deg)))
    else:
        checks.append(_na("f"))

    # (g): every vertex is in some minimum transversal
    missing = [v for v in range(h.n) if not idx.by_vertex[v]]
    checks.append(CheckResult("g", True, not missing, str(missing) or None))

    # (h): named members admit a minimum transversal through any vertex pair
    if kind in ("H10", "H14_6"):
        bad_h = _check_property_h(h, idx)
        checks.append(CheckResult("h", True, not bad_h, str(bad_h[:3]) or None))
    else:
        checks.append(_na("h"))

    # (i): |T'|=3 subsets meet some minimum transversal twice,
    # except H_11's three vertices with no degree-1 neighbor
    if kind != "H4":
        exception = set(h11_exceptional_triple()) if kind == "H11" else None
        ok, bad = _check_i_j(idx, 3, exception)
        checks.append(CheckResult("i", True, ok, str(bad[:3]) or None))
    else:
        checks.append(_na("i"))

    # (j): same with |T'| = 4, no exceptions
    if kind != "H4":
        ok, bad = _check_i_j(idx, 4, None)
        checks.append(CheckResult("j", True, ok, str(bad[:3]) or None))
    else:
        checks.append(_na("j"))

    # (k): disjoint pairs T1, T2 of size 2: some minimum transversal hits both
    if kind != "H4":
        bad_k = _check_property_k(h, idx)
        checks.append(CheckResult("k", True, not bad_k, str(bad_k[:3]) or None))
    else:
        checks.append(_na("k"))

    # Items (l), (m), (n) quantify over sets arising as intersections of
    # external edges with H inside a 4-uniform linear host of maximum degree
    # three: members have degree <= 2 in H, and each set is independent as
    # its statement requires.  (The unrestricted quantifications are false
    # on the catalog and could never occur in a host.)

    # (l): independent T1 of size 3, singleton T2; see _check_property_l
    lowdeg = [v for v in range(h.n) if deg[v] <= 2]
    triples = _independent_triples(lowdeg, adj)
    bad_l = _check_property_l(idx, lowdeg, triples)
    checks.append(CheckResult("l", True, not bad_l, str(bad_l[:3]) or None))

    # (m): singleton T1, non-adjacent pair T2; see _check_property_m
    bad_m, excepted = _check_property_m(h, idx, deg, adj, kind)
    m_ok = not bad_m and (kind != "H11" or bool(excepted))
    checks.append(
        CheckResult(
            "m",
            True,
            m_ok,
            f"failing={bad_m[:3]} excepted={excepted}" if (bad_m or excepted) else None,
        )
    )

    # (n): independent T1, T2 of size 3 and T3 of size 2; see _check_property_n
    bad_n = _check_property_n(h, idx, lowdeg, triples, adj)
    checks.append(CheckResult("n", True, not bad_n, str(bad_n[:2]) or None))

    # (o): external 2-intersections; see _check_property_o
    ok_o, witness_o = _check_property_o(h, idx, deg, adj)
    checks.append(CheckResult("o", True, ok_o, witness_o))

    # (p): degree-2 deletions leave at most an isolated vertex extra; the
    # double-H_4 clause applies to the 14- and 21-vertex classes (removing a
    # vertex of H_11's exceptional triple always leaves that very pattern,
    # so the clause cannot include H_11)
    if kind == "H11" or order_class(kind) in (14, 21):
        ok_p, witness_p = _check_property_p(
            h, deg, check_double_h4=(kind != "H11")
        )
        checks.append(CheckResult("p", True, ok_p, witness_p))
    else:
        checks.append(_na("p"))

    return PropertyReport(kind, tuple(checks))


def h11_exceptional_triple() -> list[int]:
    """H_11's three vertices with no neighbor of degree 1."""
    h = special("H11")
    deg = h.degrees()
    with_deg1_neighbor: set[int] = set()
    for e in h.edges:
        if any(deg[v] == 1 for v in e):
            with_deg1_neighbor.update(e)
    return [v for v in range(h.n) if v not in with_deg1_neighbor]


def _check_property_h(h: Hypergraph, idx: _TransversalIndex) -> list:
    """Item (h): the pairs u < v in no common minimum transversal: v in ``apart[u]``."""
    return [(u, v) for u in range(h.n) for v in members(idx.apart[u] & ~((2 << u) - 1))]


def _check_property_l(idx: _TransversalIndex, lowdeg: list[int], triples: list) -> list:
    """Item (l): the (T1, v), T1 one of ``triples``, the independent triples
    of ``lowdeg``, and v a vertex of ``lowdeg`` outside it, with no minimum
    transversal hitting both: v lies in ``apart`` of each vertex of T1.
    """
    low = vertex_mask(lowdeg)
    bad = []
    for t1 in triples:
        a, b, c = t1
        w = low & idx.apart[a] & idx.apart[b] & idx.apart[c] & ~vertex_mask(t1)
        bad += [(t1, v) for v in members(w)]
    return bad


def _check_property_m(
    h: Hypergraph, idx: _TransversalIndex, deg: list[int], adj: list[int], kind: str
) -> tuple[list, list]:
    """Item (m): the failing and the excepted (v1, T2), T2 a non-adjacent
    pair inside ``apart[v1]``, all of degree <= 2.  H_11 excepts the
    orientation splitting its degree-1 vertices across T1 and T2 with T2's
    second vertex adjacent to T1's.
    """
    low = vertex_mask(v for v in range(h.n) if deg[v] <= 2)
    deg1 = [v for v in range(h.n) if deg[v] == 1]
    bad = []
    excepted = []
    for v1 in members(low):
        for t2 in _independent_pairs(idx.apart[v1] & low & ~(1 << v1), adj):
            is_exception = False
            if kind == "H11" and v1 in deg1:
                others = [u for u in t2 if u in deg1]
                seconds = [u for u in t2 if u not in deg1]
                if others and seconds and adj[v1] >> seconds[0] & 1:
                    is_exception = True
            (excepted if is_exception else bad).append((v1, t2))
    return bad, excepted


def _check_property_k(h: Hypergraph, idx: _TransversalIndex) -> list:
    """Item (k): the ordered pairs (T1, T2) of disjoint vertex pairs such
    that no minimum transversal hits both, by T1 and then T2 in
    lexicographic order.

    T2 misses every transversal that hits T1 iff both its vertices do, so
    the bad T2 for T1 = {a, b} are the pairs within W, the vertices outside
    T1 that share a minimum transversal with neither a nor b.
    """
    bad = []
    for a, b in combinations(range(h.n), 2):
        w = idx.apart[a] & idx.apart[b] & ~((1 << a) | (1 << b))
        if w & (w - 1):
            bad += [((a, b), t2) for t2 in combinations(members(w), 2)]
    return bad


def _pair_shares_three(free: list[tuple[int, int]], adj: list[int]) -> bool:
    """True iff two non-adjacent x < y of ``free``, a list of (x, F(x)),
    have three or more vertices in F(x) & F(y)."""
    for j, (x, fx) in enumerate(free):
        for y, fy in free[j + 1 :]:
            if (fx & fy).bit_count() > 2 and not adj[x] >> y & 1:
                return True
    return False


def _check_property_n(
    h: Hypergraph, idx: _TransversalIndex, lowdeg: list[int], triples: list, adj: list[int]
) -> list:
    """Item (n): the pairwise disjoint independent T1, T2 of size 3 and T3
    of size 2, all of degree-<=2 vertices (``lowdeg``, whose independent
    triples are ``triples``), that no minimum transversal hits all of, by
    T1, T2 and then T3 in lexicographic order.  Size 2 binds for T3, since
    any larger independent T3 contains an independent pair and hitting the
    pair hits T3.

    Let U(T1, T3) be the union of the minimum transversals that hit both
    T1 and T3.  A transversal that hits all three lies in U and meets T2
    there, and a vertex of T2 in U lies in a transversal that hits all
    three, so (T1, T2, T3) fails iff T2 misses U(T1, T3).  With R[u][w] the
    vertex mask of the minimum transversals holding both u and w, U(T1,
    {x, y}) is the OR of R[u][x] and R[u][y] over u in T1.  R is symmetric
    in its three vertices: t lies in R[u][x] iff some minimum transversal
    holds u, x and t, iff x lies in R[u][t].  So T2 misses U(T1, T3) iff
    T3 misses H(T1, T2), the OR of R[u][t] over u in T1 and t in T2, and
    the bad T3 for (T1, T2) are the independent pairs of low-degree
    vertices outside T1, T2 and H(T1, T2).  T1, T2 and those pairs are each
    taken in lexicographic order, so the list comes out in the order above.

    Most T1 have no bad T2, and cheap filters find them first.  A T2 comes
    after T1 = (a, b, c) and misses it, so it starts above a, and T1 is
    skipped when every triple that starts above a holds b.  For each low-degree x outside T1, F(x) is the
    set of low-degree vertices above a, outside T1 and x, and outside the
    union over T1 and x; a bad (T1, T2, {x, y}) puts T2 inside F(x) & F(y).
    The triples of one prefix (a, b) share the part of F(x) that a and b
    give, so F(x) is narrowed in two steps, and an x drops out at the first
    step that leaves fewer than three vertices.  A T1 goes on to its T2
    only if two non-adjacent x, y keep three or more vertices in
    F(x) & F(y).
    """
    if not triples:
        return []
    bv = idx.by_vertex
    # union[u][w]: R[u][w] for u != w of low degree, on the low-degree
    # vertices other than u and w, filled from each triple u < w < z that
    # shares a minimum transversal
    union = [[0] * h.n for _ in range(h.n)]
    for i, u in enumerate(lowdeg):
        ru = union[u]
        for j in range(i + 1, len(lowdeg)):
            w = lowdeg[j]
            common = bv[u] & bv[w]
            if not common:
                continue
            rw = union[w]
            for z in lowdeg[j + 1 :]:
                if common & bv[z]:
                    ru[w] |= 1 << z
                    ru[z] |= 1 << w
                    rw[z] |= 1 << u
    for i, u in enumerate(lowdeg):
        for w in lowdeg[i + 1 :]:
            union[w][u] = union[u][w]
    low = vertex_mask(lowdeg)
    sets = [vertex_mask(t) for t in triples]
    firsts = [t[0] for t in triples]
    bad = []
    for (a, b), group in groupby(zip(triples, sets), key=lambda ts: ts[0][:2]):
        start = bisect_right(firsts, a)  # the first triple that may be a T2
        if all(s2 >> b & 1 for s2 in islice(sets, start, None)):
            continue
        ra, rb = union[a], union[b]
        avail = low & ~((2 << a) - 1) & ~(1 << b)
        # (x, F(x) but for c's part) for the x with three or more vertices in it
        wide = []
        for x in lowdeg:
            f = avail & ~(ra[x] | rb[x] | 1 << x)
            if f.bit_count() > 2 and x != a and x != b:
                wide.append((x, f))
        if len(wide) < 2:
            continue
        for t1, s1 in group:
            c = t1[2]
            rc = union[c]
            free = []  # (x, F(x)) for the x with three or more vertices in F(x)
            for x, f in wide:
                f &= ~(rc[x] | 1 << c)
                if f.bit_count() > 2 and x != c:
                    free.append((x, f))
            if not _pair_shares_three(free, adj):
                continue
            for t2, s2 in islice(zip(triples, sets), start, None):
                if s2 & s1:
                    continue
                hit = s1 | s2
                for t in t2:
                    hit |= ra[t] | rb[t] | rc[t]
                rest = low & ~hit
                if rest.bit_count() > 1:
                    bad += [(t1, t2, t3) for t3 in _independent_pairs(rest, adj)]
    return bad


def _check_property_o(
    h: Hypergraph, idx: _TransversalIndex, deg: list[int], adj: list[int]
) -> tuple[bool, Optional[str]]:
    """Every valid triple of simulated external 2-intersections admits, for
    each specified edge of H, a minimum transversal covering that edge and
    one of the three.

    A valid pair is non-co-edged with both degrees <= 2; distinct pairs
    share at most one vertex, and a shared vertex needs degree <= 1 (its
    host degree would otherwise exceed three).

    Every minimum transversal covers every edge, so the item reduces to
    "some minimum transversal meets p1, p2 or p3", which item (g) already
    implies: a triple fails iff none of its pairs meets a minimum
    transversal, that is, lies inside item (g)'s set, and then it misses
    edge 0, the lowest edge.  An edgeless H passes.  Pairs are indexed in
    lexicographic order, and the triple reported is the first failing one
    in the order of pair indices.
    """
    if not h.m:
        return True, None
    missing = vertex_mask(v for v in range(h.n) if deg[v] <= 2 and not idx.by_vertex[v])
    unhit = _independent_pairs(missing, adj)  # the valid pairs inside item (g)'s set
    for p1, p2, p3 in combinations(unhit, 3):
        shared = (set(p1) & set(p2)) | (set(p1) & set(p3)) | (set(p2) & set(p3))
        if all(deg[v] <= 1 for v in shared):
            return False, f"triple {p1},{p2},{p3} misses edge 0"
    return True, None


def _check_property_p(h, deg, check_double_h4: bool = True):
    """Deleting a degree-2 vertex (keeping isolated vertices) leaves a
    connected remainder or exactly two components with one isolated vertex;
    optionally also forbid the double-H_4 configuration (two disjoint
    4-edges, each with three degree-1 and one degree-2 vertex, meeting a
    common edge).
    """
    for v in range(h.n):
        if deg[v] != 2:
            continue
        sub = Hypergraph(h.n, [e for e in h.edges if v not in e])
        comps = [c for c in components(sub) if c != {v}]
        if len(comps) == 2:
            if min(len(c) for c in comps) != 1:
                return False, f"H - {v} has two non-trivial components"
        elif len(comps) > 2:
            return False, f"H - {v} has {len(comps)} components"
        if not check_double_h4:
            continue
        sdeg = sub.degrees()
        for e1, e2 in combinations(range(sub.m), 2):
            a, b = set(sub.edges[e1]), set(sub.edges[e2])
            if a & b:
                continue
            if not all(
                sorted(sdeg[u] for u in grp) == [1, 1, 1, 2] for grp in (a, b)
            ):
                continue
            for g in range(sub.m):
                if g in (e1, e2):
                    continue
                gs = set(sub.edges[g])
                if gs & a and gs & b:
                    return False, f"double-H4 at deleted vertex {v}"
    return True, None


def catalog_report() -> dict[str, PropertyReport]:
    return {kind: obs61_suite(kind) for kind in NAMES}


def defic_identity_check(kind: str) -> bool:
    """defic(F) = 45 tau(F) - 6 n(F) - 13 m(F) for a standalone catalog entry."""
    h = special(kind)
    n, m, t = SHAPES[kind]
    value, _ = deficiency(h)
    return value == 45 * t - 6 * n - 13 * m == DEFIC_WEIGHT[order_class(kind)]


BOUND_IDS = ("MAIN5", "K23", "Q46", "R3REG", "DEG2", "LAICHANG", "TD37")


@dataclass(frozen=True)
class BoundResult:
    bound_id: str
    holds: bool
    tau: int
    bound: Fraction
    slack: Fraction


def bound_value(subject, bound_id: str) -> Fraction:
    """The named bound for ``subject``, once its hypotheses hold."""
    if bound_id == "TD37":
        _require(isinstance(subject, Graph), "TD37 takes a graph")
        _require(min(subject.degrees(), default=0) >= 4, "TD37 needs minimum degree >= 4")
        return Fraction(3 * subject.n, 7)
    h: Hypergraph = subject
    n, m = h.n, h.m
    if bound_id == "MAIN5":
        _require(is_k_uniform(h, 4), "MAIN5 needs a 4-uniform hypergraph")
        _require(is_linear(h), "MAIN5 needs a linear hypergraph")
        return Fraction(n + m, 5)
    if bound_id == "K23":
        k = len(h.edges[0]) if h.edges else 0
        _require(k in (2, 3), "K23 needs uniformity 2 or 3")
        _require(is_k_uniform(h, k), "K23 needs a uniform hypergraph")
        _require(is_linear(h), "K23 needs a linear hypergraph")
        _require(is_connected(h), "K23 needs a connected hypergraph")
        return Fraction(n + m, k + 1)
    if bound_id == "Q46":
        _require(is_k_uniform(h, 4), "Q46 needs a 4-uniform hypergraph")
        _require(is_linear(h), "Q46 needs a linear hypergraph")
        return Fraction(n, 4) + Fraction(m, 6)
    if bound_id == "R3REG":
        _require(is_k_uniform(h, 4), "R3REG needs a 4-uniform hypergraph")
        _require(is_linear(h), "R3REG needs a linear hypergraph")
        _require(all(d == 3 for d in h.degrees()), "R3REG needs a 3-regular hypergraph")
        return Fraction(7 * n, 20)
    if bound_id == "DEG2":
        _require(is_k_uniform(h, 4), "DEG2 needs a 4-uniform hypergraph")
        _require(is_linear(h), "DEG2 needs a linear hypergraph")
        _require(is_connected(h), "DEG2 needs a connected hypergraph")
        _require(h.max_degree() <= 2, "DEG2 needs maximum degree <= 2")
        _require(not hypergraph_isomorphic(h, special("H10")), "DEG2 excludes H_10")
        return Fraction(3 * (n + m), 16) + Fraction(1, 16)
    if bound_id == "LAICHANG":
        _require(is_k_uniform(h, 4), "LAICHANG needs a 4-uniform hypergraph")
        return Fraction(2 * (n + m), 9)
    raise ArgumentError(f"unknown bound id {bound_id!r}")


def bound_check(subject, bound_id: str) -> BoundResult:
    """Exact comparison of tau (gamma_t for TD37) against a named bound."""
    bound = bound_value(subject, bound_id)
    t = gamma_t(subject) if bound_id == "TD37" else tau(subject).tau
    return BoundResult(bound_id, t <= bound, t, bound, bound - t)


class HypothesisViolation(HypergraphError):
    """The subject does not satisfy the bound's hypotheses."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise HypothesisViolation(reason)


def theorem_mainyy_check(q: int, s: int) -> bool:
    """Residual plane identities: tau = 2q-1-s, n = q^2-s, m = q^2+q-1-qs,
    and tau = (n+m)/(q+1) exactly."""
    h = affine_residual(q, s)
    return mainyy_identities_hold(q, s, h, tau(h).tau)


def mainyy_identities_hold(q: int, s: int, h: Hypergraph, t: int) -> bool:
    """The identities of ``theorem_mainyy_check`` for the residual ``h`` of
    AG(2, q) with s points removed, given its transversal number ``t``."""
    return (
        t == 2 * q - 1 - s
        and h.n == q * q - s
        and h.m == q * q + q - 1 - q * s
        and Fraction(h.n + h.m, q + 1) == t
    )


def tightness_scan(
    instances: Sequence[tuple[str, Hypergraph]], bound_id: str
) -> list[str]:
    """Names of the instances where the bound holds with equality."""
    tight = []
    for name, h in instances:
        res = bound_check(h, bound_id)
        if res.holds and res.slack == 0:
            tight.append(name)
    return tight

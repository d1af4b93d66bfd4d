"""Differential tests of the bitset catalog property suite.

The functions prefixed ``oracle_`` are frozen copies of the original suite:
the full ``combinations`` scan for the minimum transversals, items (h) to
(n) as nested loops over vertex tuples, item (o) with a ``compatible`` test
per pair, item (p) as it stood when it was frozen, independence through a
set of co-edged pairs, and the whole ``obs61_suite`` body built on them.
The bitset suite must give equal reports on the catalog and equal
``linhyp verify catalog`` JSON.  Catalog entries pass every item, so the
helpers for (h) to (p) are also compared on hosts where those items fail,
bad lists and witnesses included.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

import pytest

from linhyp import cli
from linhyp.algebra import affine_plane, affine_residual, random_linear
from linhyp.catalog import NAMES, SHAPES, order_class, special
from linhyp.core import Hypergraph
from linhyp.rng import SplitMix64
from linhyp.solver import GuardExceeded, enumerate_min_transversals, tau
from linhyp.verify import (
    CheckResult,
    PropertyReport,
    _adjacency_masks,
    _check_i_j,
    _check_property_h,
    _check_property_k,
    _check_property_l,
    _check_property_m,
    _check_property_n,
    _check_property_o,
    _check_property_p,
    _independent_triples,
    _na,
    _TransversalIndex,
    h11_exceptional_triple,
    obs61_suite,
)

from corpus import random_host
from oracles import components_union_find


def oracle_enumerate(h: Hypergraph, guard_n: int = 25, guard_tau: int = 8):
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


class OracleIndex:
    def __init__(self, h: Hypergraph):
        self.h = h
        self.transversals = oracle_enumerate(h)
        self.full = (1 << len(self.transversals)) - 1
        self.by_vertex = [0] * h.n
        for i, t in enumerate(self.transversals):
            for v in t:
                self.by_vertex[v] |= 1 << i

    def hitting(self, vertices: Iterable[int]) -> int:
        m = 0
        for v in vertices:
            m |= self.by_vertex[v]
        return m

    def containing_all(self, vertices: Iterable[int]) -> int:
        m = self.full
        for v in vertices:
            m &= self.by_vertex[v]
        return m


def oracle_adjacent_pairs(h: Hypergraph) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for e in h.edges:
        for a, b in combinations(e, 2):
            out.add(frozenset((a, b)))
    return out


def oracle_check_i_j(idx, size: int, exception: Optional[set[int]]):
    h = idx.h
    bad = []
    for cand in combinations(range(h.n), size):
        ok = False
        for pair in combinations(cand, 2):
            if idx.containing_all(pair):
                ok = True
                break
        if not ok:
            bad.append(set(cand))
    if exception is None:
        return (not bad), bad
    return (bad == [exception]), bad


def oracle_h(h: Hypergraph, idx) -> list:
    return [
        (u, v)
        for u, v in combinations(range(h.n), 2)
        if not idx.containing_all((u, v))
    ]


def oracle_l(h: Hypergraph, idx, deg: list[int]) -> list:
    adjacent = oracle_adjacent_pairs(h)
    lowdeg = [v for v in range(h.n) if deg[v] <= 2]

    def independent(c) -> bool:
        return not any(frozenset(p) in adjacent for p in combinations(c, 2))

    bad_l = []
    for t1 in combinations(lowdeg, 3):
        if not independent(t1):
            continue
        m1 = idx.hitting(t1)
        for v in lowdeg:
            if v in t1:
                continue
            if not m1 & idx.by_vertex[v]:
                bad_l.append((t1, v))
    return bad_l


def oracle_m(h: Hypergraph, idx, deg: list[int], kind: str) -> tuple[list, list]:
    adjacent = oracle_adjacent_pairs(h)
    lowdeg = [v for v in range(h.n) if deg[v] <= 2]
    deg1 = [v for v in range(h.n) if deg[v] == 1]
    bad_m = []
    excepted = []
    for v1 in lowdeg:
        m1 = idx.by_vertex[v1]
        for t2 in combinations([u for u in lowdeg if u != v1], 2):
            if frozenset(t2) in adjacent:
                continue
            if m1 & idx.hitting(t2):
                continue
            is_exception = False
            if kind == "H11" and v1 in deg1:
                others = [u for u in t2 if u in deg1]
                seconds = [u for u in t2 if u not in deg1]
                if others and seconds and frozenset((v1, seconds[0])) in adjacent:
                    is_exception = True
            if is_exception:
                excepted.append((v1, t2))
            else:
                bad_m.append((v1, t2))
    return bad_m, excepted


def oracle_k(h: Hypergraph, idx) -> list:
    bad_k = []
    for t1 in combinations(range(h.n), 2):
        m1 = idx.hitting(t1)
        rest = [v for v in range(h.n) if v not in t1]
        for t2 in combinations(rest, 2):
            if not m1 & idx.hitting(t2):
                bad_k.append((t1, t2))
    return bad_k


def oracle_n(h: Hypergraph, idx, deg: list[int]) -> list:
    adjacent = oracle_adjacent_pairs(h)
    lowdeg = [v for v in range(h.n) if deg[v] <= 2]

    def independent(c) -> bool:
        return not any(frozenset(p) in adjacent for p in combinations(c, 2))

    bad_n = []
    indep3 = [c for c in combinations(lowdeg, 3) if independent(c)]
    indep2 = [c for c in combinations(lowdeg, 2) if independent(c)]
    hit3 = {c: idx.hitting(c) for c in indep3}
    hit2 = {c: idx.hitting(c) for c in indep2}
    for i1, t1 in enumerate(indep3):
        s1 = set(t1)
        m1 = hit3[t1]
        for t2 in indep3[i1 + 1 :]:
            if s1 & set(t2):
                continue
            m12 = m1 & hit3[t2]
            s12 = s1 | set(t2)
            for t3 in indep2:
                if s12 & set(t3):
                    continue
                if not m12 & hit2[t3]:
                    bad_n.append((t1, t2, t3))
    return bad_n


def oracle_o(h: Hypergraph, idx, deg: list[int]):
    adjacent = oracle_adjacent_pairs(h)
    valid_pairs = [
        p
        for p in combinations(range(h.n), 2)
        if frozenset(p) not in adjacent and deg[p[0]] <= 2 and deg[p[1]] <= 2
    ]
    edge_hits = [idx.hitting(e) for e in h.edges]

    def compatible(p1, p2) -> bool:
        shared = set(p1) & set(p2)
        if len(shared) > 1:
            return False
        return all(deg[v] <= 1 for v in shared)

    for i1, p1 in enumerate(valid_pairs):
        m1 = idx.hitting(p1)
        for i2 in range(i1 + 1, len(valid_pairs)):
            p2 = valid_pairs[i2]
            if not compatible(p1, p2):
                continue
            m12 = m1 | idx.hitting(p2)
            for p3 in valid_pairs[i2 + 1 :]:
                if not compatible(p1, p3) or not compatible(p2, p3):
                    continue
                union_hits = m12 | idx.hitting(p3)
                if all(union_hits & eh for eh in edge_hits):
                    continue
                bad_edge = next(
                    i for i, eh in enumerate(edge_hits) if not union_hits & eh
                )
                return False, f"triple {p1},{p2},{p3} misses edge {bad_edge}"
    return True, None


def oracle_p(h, deg, check_double_h4: bool = True):
    for v in range(h.n):
        if deg[v] != 2:
            continue
        sub = Hypergraph(h.n, [e for e in h.edges if v not in e])
        comps = [c for c in components_union_find(sub) if c != {v}]
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


@lru_cache(maxsize=None)
def oracle_obs61_suite(kind: str) -> PropertyReport:
    h = special(kind)
    n, m, t_expected = SHAPES[kind]
    deg = h.degrees()
    idx = OracleIndex(h)
    t_actual = len(idx.transversals[0]) if idx.transversals else 0
    checks: list[CheckResult] = []

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

    if kind in ("H10", "H14_5", "H14_6"):
        checks.append(CheckResult("f", True, all(d == 2 for d in deg)))
    else:
        checks.append(_na("f"))

    missing = [v for v in range(h.n) if not idx.by_vertex[v]]
    checks.append(CheckResult("g", True, not missing, str(missing) or None))

    if kind in ("H10", "H14_6"):
        bad = oracle_h(h, idx)
        checks.append(CheckResult("h", True, not bad, str(bad[:3]) or None))
    else:
        checks.append(_na("h"))

    if kind != "H4":
        exception = set(h11_exceptional_triple()) if kind == "H11" else None
        ok, bad = oracle_check_i_j(idx, 3, exception)
        checks.append(CheckResult("i", True, ok, str(bad[:3]) or None))
    else:
        checks.append(_na("i"))

    if kind != "H4":
        ok, bad = oracle_check_i_j(idx, 4, None)
        checks.append(CheckResult("j", True, ok, str(bad[:3]) or None))
    else:
        checks.append(_na("j"))

    if kind != "H4":
        bad_k = oracle_k(h, idx)
        checks.append(CheckResult("k", True, not bad_k, str(bad_k[:3]) or None))
    else:
        checks.append(_na("k"))

    bad_l = oracle_l(h, idx, deg)
    checks.append(CheckResult("l", True, not bad_l, str(bad_l[:3]) or None))

    bad_m, excepted = oracle_m(h, idx, deg, kind)
    m_ok = not bad_m and (kind != "H11" or bool(excepted))
    checks.append(
        CheckResult(
            "m",
            True,
            m_ok,
            f"failing={bad_m[:3]} excepted={excepted}" if (bad_m or excepted) else None,
        )
    )

    bad_n = oracle_n(h, idx, deg)
    checks.append(CheckResult("n", True, not bad_n, str(bad_n[:2]) or None))

    ok_o, witness_o = oracle_o(h, idx, deg)
    checks.append(CheckResult("o", True, ok_o, witness_o))

    if kind == "H11" or order_class(kind) in (14, 21):
        ok_p, witness_p = oracle_p(h, deg, check_double_h4=(kind != "H11"))
        checks.append(CheckResult("p", True, ok_p, witness_p))
    else:
        checks.append(_na("p"))

    return PropertyReport(kind, tuple(checks))


# -- the suite on the catalog ------------------------------------------------


@pytest.mark.parametrize("kind", NAMES)
def test_suite_matches_frozen_oracle(kind):
    assert obs61_suite(kind) == oracle_obs61_suite(kind)


def _verify_catalog_json() -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["verify", "catalog"])
    return re.sub(r'"elapsed_ms": [0-9.eE+-]+', '"elapsed_ms": 0', buf.getvalue())


def test_verify_catalog_json_matches_frozen_oracle(monkeypatch):
    got = _verify_catalog_json()
    monkeypatch.setattr(
        cli, "catalog_report", lambda: {k: oracle_obs61_suite(k) for k in NAMES}
    )
    want = _verify_catalog_json()
    assert got == want
    assert json.loads(got)["all_passed"]


# -- items (h) to (p) on hosts where they fail ------------------------------


def _minus_edge(kind: str, i: int) -> Hypergraph:
    h = special(kind)
    return Hypergraph(h.n, h.edges[:i] + h.edges[i + 1 :])


# catalog entries with one edge deleted
ITEM_MINUS_EDGE = [("H14_1", 0), ("H14_5", 3), ("H14_6", 6), ("H21_4", 8)]
# (n, k, max degree, edge target, seed) of seeded random linear hosts: some
# with vertices in no minimum transversal, some where every vertex is in one
ITEM_RANDOM = [
    (10, 3, 2, 6, 1000), (11, 3, 2, 6, 1101), (11, 3, 2, 5, 1102),
    (12, 3, 2, 8, 1200), (12, 4, 2, 6, 1200), (12, 4, 3, 9, 1200),
    (13, 3, 2, 8, 1300), (13, 4, 2, 5, 1301), (13, 4, 3, 7, 1302),
    (14, 3, 2, 9, 1400), (14, 4, 2, 7, 1400), (15, 4, 2, 7, 1500),
    (15, 4, 3, 9, 1502), (16, 4, 2, 8, 1600), (16, 4, 3, 10, 1602),
    (17, 4, 3, 10, 1702), (18, 4, 3, 11, 1802), (19, 4, 3, 12, 1902),
    (20, 4, 3, 13, 2002), (21, 4, 3, 13, 2102),
]


def _item_hosts() -> list[tuple[str, Hypergraph]]:
    hosts = [("AG(2,3)", affine_plane(3))]
    hosts += [(f"AG(2,4)-{s}", affine_residual(4, s)) for s in (3, 4)]
    hosts += [(f"{kind}-e{i}", _minus_edge(kind, i)) for kind, i in ITEM_MINUS_EDGE]
    hosts += [
        (f"random_linear({n},{k},{d},{m},{seed})", random_linear(n, k, d, m, seed))
        for n, k, d, m, seed in ITEM_RANDOM
    ]
    # every minimum transversal is {0, 3}, so it hits both (0, 1, 2) and
    # (3, 4, 5), and item (n) must still report (6, 7), which misses it
    hosts.append(("forced", Hypergraph(8, [[0], [3]])))
    # item (p) at vertex 0: deleting it leaves {1, 2, 5, 6, 7} and {3, 4}
    hosts.append(("split", Hypergraph(8, [[0, 1, 2], [0, 3], [3, 4], [1, 5, 6], [2, 6, 7]])))
    # item (p) at vertex 0: deleting it leaves the double-H_4 pattern, the
    # disjoint 4-edges 1-4 and 5-8 that the edge (4, 8, 9, 10) joins
    hosts.append(("double-H4", Hypergraph(
        11, [[0, 9], [0, 10], [1, 2, 3, 4], [5, 6, 7, 8], [4, 8, 9, 10]]
    )))
    return hosts


ITEM_HOSTS = _item_hosts()


@lru_cache(maxsize=None)
def _frozen_items(name: str):
    """The frozen (h) to (p) results on one host, (m) with and without
    H_11's exception, (p) with and without the double-H_4 clause."""
    h = dict(ITEM_HOSTS)[name]
    deg, idx = h.degrees(), OracleIndex(h)
    bad_i_j = [oracle_check_i_j(idx, size, None)[1] for size in (3, 4)]
    return (
        idx.transversals, oracle_h(h, idx), bad_i_j, oracle_k(h, idx),
        oracle_l(h, idx, deg), [oracle_m(h, idx, deg, kind) for kind in ("H10", "H11")],
        oracle_n(h, idx, deg), oracle_o(h, idx, deg),
        [oracle_p(h, deg, check) for check in (True, False)],
    )


def _lowdeg_triples(h: Hypergraph, adj: list[int]):
    """The vertices of degree <= 2 and their independent triples, as
    ``obs61_suite`` passes them to items (l) and (n)."""
    deg = h.degrees()
    lowdeg = [v for v in range(h.n) if deg[v] <= 2]
    return lowdeg, _independent_triples(lowdeg, adj)


@pytest.mark.parametrize("name", [name for name, _ in ITEM_HOSTS])
def test_item_helpers_match_frozen_loops(name):
    h = dict(ITEM_HOSTS)[name]
    deg, idx, adj = h.degrees(), _TransversalIndex(h), _adjacency_masks(h)
    transversals, bad_h, bad_i_j, bad_k, bad_l, result_m, bad_n, result_o, result_p = (
        _frozen_items(name)
    )
    assert idx.transversals == transversals
    assert _check_property_h(h, idx) == bad_h
    assert [_check_i_j(idx, size, None)[1] for size in (3, 4)] == bad_i_j
    assert _check_property_k(h, idx) == bad_k
    lowdeg, triples = _lowdeg_triples(h, adj)
    assert _check_property_l(idx, lowdeg, triples) == bad_l
    assert [_check_property_m(h, idx, deg, adj, kind) for kind in ("H10", "H11")] == result_m
    assert _check_property_n(h, idx, lowdeg, triples, adj) == bad_n
    assert _check_property_o(h, idx, deg, adj) == result_o
    assert [_check_property_p(h, deg, check) for check in (True, False)] == result_p


def test_item_hosts_reach_failures():
    # the comparisons above must see every item fail, H_11's (m)
    # exception apply, and each (p) report fire, or a rewrite that always
    # passes would go unnoticed
    failing = dict.fromkeys("hijklmno", 0)
    excepting = 0
    reports_p = dict.fromkeys(
        [r"H - \d+ has two non-trivial components", r"H - \d+ has \d+ components",
         r"double-H4 at deleted vertex \d+"], 0
    )
    for name, _ in ITEM_HOSTS:
        _, bad_h, (bad_i, bad_j), bad_k, bad_l, result_m, bad_n, (ok_o, _), result_p = (
            _frozen_items(name)
        )
        for _, witness in result_p:
            for report in reports_p:
                reports_p[report] += re.fullmatch(report, witness or "") is not None
        failing["h"] += bool(bad_h)
        failing["i"] += bool(bad_i)
        failing["j"] += bool(bad_j)
        failing["k"] += bool(bad_k)
        failing["l"] += bool(bad_l)
        failing["m"] += bool(result_m[0][0])
        failing["n"] += bool(bad_n)
        failing["o"] += not ok_o
        excepting += bool(result_m[1][1])
    assert min(failing.values()) >= 3, failing
    assert excepting >= 3
    assert min(reports_p.values()) >= 2, reports_p


def test_item_o_fails_only_where_item_g_fails():
    # every minimum transversal meets every edge, so (o) fails only on
    # pairs in no minimum transversal, i.e. where (g) fails too
    hosts = ITEM_HOSTS + [(kind, special(kind)) for kind in NAMES]
    g_passing = 0
    for name, h in hosts:
        idx = _TransversalIndex(h)
        ok_o, _ = _check_property_o(h, idx, h.degrees(), _adjacency_masks(h))
        if all(idx.by_vertex):
            g_passing += 1
            assert ok_o, name
    assert g_passing >= len(NAMES)


def test_item_n_reports_pairs_every_minimum_transversal_hits():
    h = dict(ITEM_HOSTS)["forced"]
    idx = _TransversalIndex(h)
    assert idx.transversals == [(0, 3)]
    adj = _adjacency_masks(h)
    bad = _check_property_n(h, idx, *_lowdeg_triples(h, adj), adj)
    assert ((0, 1, 2), (3, 4, 5), (6, 7)) in bad


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_item_o_on_edgeless_hosts_matches_frozen_loop(n):
    h = Hypergraph(n, [])
    deg, adj = h.degrees(), _adjacency_masks(h)
    expected = oracle_o(h, OracleIndex(h), deg)
    assert _check_property_o(h, _TransversalIndex(h), deg, adj) == expected == (True, None)
    # the one minimum transversal is empty, so item (n) fails on every
    # choice of T1, T2 and T3: 2520 of them at n = 9, in the frozen order
    bad_n = _check_property_n(h, _TransversalIndex(h), *_lowdeg_triples(h, adj), adj)
    assert bad_n == oracle_n(h, OracleIndex(h), deg)
    assert len(bad_n) == (2520 if n == 9 else 0)


def test_adjacency_masks_match_pairs():
    for name, h in ITEM_HOSTS:
        adj = _adjacency_masks(h)
        pairs = oracle_adjacent_pairs(h)
        for u, v in combinations(range(h.n), 2):
            assert bool(adj[u] >> v & 1) == (frozenset((u, v)) in pairs), name
            assert bool(adj[v] >> u & 1) == (frozenset((u, v)) in pairs), name


# -- minimum-transversal enumeration -----------------------------------------


def _enumeration_corpus() -> list[tuple[str, Hypergraph]]:
    corpus = [(name, special(name)) for name in NAMES]
    for q in (2, 3, 4):
        corpus.append((f"AG(2,{q})", affine_plane(q)))
        corpus += [(f"AG(2,{q})-{s}", affine_residual(q, s)) for s in range(1, q + 1)]
    rng = SplitMix64(0xE7A)
    for i in range(40):
        h = random_host(rng, 3 + rng.randbelow(18), 1 + rng.randbelow(14), 5)
        if i % 4 == 0:  # duplicate an edge
            h = Hypergraph(h.n, h.edges + h.edges[-1:])
        corpus.append((f"mixed({i})", h))
    corpus.append(("isolated", Hypergraph(9, [[0, 2, 4], [2, 5], [4, 5, 7], [0, 7]])))
    corpus.append(("isolated-dup", Hypergraph(6, [[1], [1], [3, 4], [3, 4]])))
    corpus.append(("isolated-top", Hypergraph(8, [[0, 1], [1, 2], [2, 3]])))
    corpus.append(("edgeless", Hypergraph(5, [])))
    corpus.append(("empty", Hypergraph(0, [])))
    return corpus


ENUMERATION_CORPUS = _enumeration_corpus()


@pytest.mark.parametrize(
    "name,h", ENUMERATION_CORPUS, ids=[name for name, _ in ENUMERATION_CORPUS]
)
def test_enumeration_matches_frozen_scan(name, h):
    assert enumerate_min_transversals(h) == oracle_enumerate(h)


def _outcome(f, h, **guards):
    try:
        return f(h, **guards)
    except GuardExceeded as exc:
        return ("GuardExceeded", str(exc))


@pytest.mark.parametrize(
    "h,guards",
    [
        (Hypergraph(26, [[0, 1]]), {}),
        (Hypergraph(26, []), {}),
        (Hypergraph(8, []), {"guard_n": 7}),
        (Hypergraph(18, [[2 * i, 2 * i + 1] for i in range(9)]), {}),
        (Hypergraph(18, [[2 * i, 2 * i + 1] for i in range(9)]), {"guard_tau": 9}),
        (special("H10"), {"guard_tau": 2}),
        (special("H10"), {"guard_tau": 3}),
        (special("H14_1"), {"guard_n": 13}),
        (special("H14_1"), {"guard_n": 14}),
    ],
)
def test_enumeration_guards_match_frozen_scan(h, guards):
    assert _outcome(enumerate_min_transversals, h, **guards) == _outcome(
        oracle_enumerate, h, **guards
    )

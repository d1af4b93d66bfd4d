"""The four benchmark workloads: seeded inputs and answer-checked ops.

An op is one exact question: one instance solved, one host scored, one
property checked, or one plane built and certified.  ``Op.run`` returns the
answer as a dict of plain JSON data after checking its certificate with
explicit checks (never ``assert``, which ``python -O`` removes).  A failed
check raises ``CheckError``; the known bipartite-matching recursion defect
raises ``KnownDefect``, so it counts as a failed op without marking the run
wrong.

Inputs depend only on the seed; ``linhyp`` receives the generated inputs,
never the seed.  The random instances (random hosts, planted hosts, shrunk
planes) come from fixed pools, and the seed draws a vertex relabelling of
each instance.  Relabelling gives every seed different inputs with the same
answers (tau, defic and the verify outcomes do not depend on labels) and
nearly the same cost, so the spread between seeds stays small and every
label-free answer is checked against the reference table for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import linhyp
import linhyp.verify
from linhyp import hgio
from linhyp.catalog import DEFIC_WEIGHT, NAMES, SHAPES
from linhyp.core import bipartite_complement
from linhyp.verify import HypothesisViolation

from planted import SplitMix64, hg_text, planted_host

WORKLOADS = ("tau", "defic", "verify", "planes")
DEFAULT_SEED = 1
POOL_SEED = 0x1B4C_2018  # seed of the fixed instance pools

# Values the paper fixes, kept apart from the library's own tables so that
# a changed table is caught: (n, m, tau) per entry, defic weight per class.
PAPER_SHAPES = {
    "H4": (4, 1, 1),
    "H10": (10, 5, 3),
    "H11": (11, 5, 3),
    **{f"H14_{i}": (14, 7, 4) for i in range(1, 7)},
    **{f"H21_{i}": (21, 11, 6) for i in range(1, 7)},
}
PAPER_DEFIC_WEIGHT = {4: 8, 10: 10, 11: 4, 14: 5, 21: 1}
GAMMA_T_G30 = 12

# Orders of the planes workload and how many times each is built per pass.
# Prime powers exercise tuple arithmetic in GF(q); primes bypass it.  The
# copies give 160 ops, sorted by cost into blocks of like ops: 60 builds of
# orders 2 to 5 (under 3 ms), 40 of order 7 (about 4 ms), 53 of order 11
# (about 18 ms), then one each of the costlier orders.  p50 falls in the
# middle of the order-7 block and p90 nine ops below the top of the order-11
# block, so neither rests on a single op or on the boundary between two
# orders.  Order 37 needs about 1400 recursion frames in
# max_matching_bipartite and fails at the default limit of 1000; orders 29
# to 32 are left out because their outcome would depend on the caller's
# stack depth (order 27 needs about 760 frames, 31 about 960).
PLANE_COPIES = {
    **{q: 15 for q in (2, 3, 4, 5)},
    7: 40,
    11: 53,
    **{q: 1 for q in (8, 9, 13, 16, 17, 19, 37)},
}
# The orders on which max_matching_bipartite is known to raise RecursionError.
RECURSION_DEFECT_ORDERS = frozenset({37})

# The largest catalog entries (n = 21) take 0.2 to 2.6 s each in the suite;
# one of them stands for all six, so that several passes fit in a run.
SUITE_ENTRIES = tuple(name for name in NAMES if not name.startswith("H21_")) + ("H21_4",)

# Bounds checked over the built-in corpus (TD37 takes a graph; it runs on g30).
CORPUS_BOUNDS = ("MAIN5", "K23", "Q46", "R3REG", "DEG2", "LAICHANG")


class CheckError(Exception):
    """An op's answer or certificate is wrong."""


class KnownDefect(Exception):
    """An op hit the recorded recursion defect of max_matching_bipartite."""


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[], dict]
    labelled: tuple[str, ...] = ()  # answer keys that depend on vertex labels
    # Copies of one computation on one input share a key, and their timings
    # are pooled; the default key is the op's id.
    key: str = ""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_transversal(h, result) -> None:
    w = set(result.witness)
    check(len(w) == result.tau, f"witness size {len(w)} != tau {result.tau}")
    check(all(0 <= v < h.n for v in w), "witness vertex out of range")
    check(all(w.intersection(e) for e in h.edges), "witness misses an edge")


def relabel(h, rng: SplitMix64):
    perm = rng.permutation(h.n)
    return linhyp.Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])


def catalog_edges() -> dict[str, tuple[int, tuple[tuple[int, ...], ...]]]:
    return {name: (linhyp.special(name).n, linhyp.special(name).edges) for name in NAMES}


def build(workload: str, seed: int) -> list[Op]:
    builders = {
        "tau": _tau_ops,
        "defic": _defic_ops,
        "verify": _verify_ops,
        "planes": _planes_ops,
    }
    ops = builders[workload](SplitMix64(POOL_SEED), SplitMix64(seed))
    # Run the ops in a fixed shuffled order.  Ops of one cost class run back
    # to back would all sample the machine's speed at one moment, and the
    # percentile that falls in that class would carry that moment's noise.
    order = SplitMix64(POOL_SEED).permutation(len(ops))
    return [ops[i] for i in order]


# -- tau ------------------------------------------------------------------


def _tau_op(op_id: str, h, expected: int | None, key: str = "") -> Op:
    text = hg_text(h.n, h.edges)

    def run():
        g = hgio.loads(text)
        r = linhyp.tau(g)
        check_transversal(g, r)
        if expected is not None:
            check(r.tau == expected, f"tau {r.tau} != {expected}")
        return {"tau": r.tau}

    return Op(op_id, run, key=key)


def _tau_ops(pool: SplitMix64, labels: SplitMix64) -> list[Op]:
    """About 120 ops in three cost classes: small (under about 1.5 ms, 65%
    of the ops, so p50 falls inside it and tracks per-call overhead), medium
    (2 to 30 ms), and deep (over 50 ms, with twelve AG(2,5) copies around
    p90)."""
    ops = []

    def add(name, h, expected, copies=1, relabelled=True):
        for copy in range(copies):
            g = relabel(h, labels) if relabelled else h
            ops.append(_tau_op(f"{name}#{copy}", g, expected, "" if relabelled else name))

    # small: as the catalog and the constructions label them, three times each
    for name in NAMES:
        add(name, linhyp.special(name), PAPER_SHAPES[name][2], 3, False)
    for q, s in ((2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 4), (5, 5), (7, 7)):
        h = linhyp.affine_residual(q, s) if s else linhyp.affine_plane(q)
        add(f"AG({q})-{s}", h, 2 * q - 1 - s, 3, False)
    add("onh(heawood-bc)", linhyp.onh(bipartite_complement(linhyp.heawood())), None, 2, False)
    # medium
    for q, s in ((4, 0), (4, 1), (5, 3), (5, 2), (5, 1)):
        h = linhyp.affine_residual(q, s) if s else linhyp.affine_plane(q)
        add(f"AG({q})-{s}", h, 2 * q - 1 - s, 2)
    pg5 = linhyp.projective_plane(5)
    for i in range(8):
        add(f"shrink(PG(2,5),{i})", linhyp.shrink(pg5, linhyp.ShrinkConfig(3, pool.next_u64())), None)
    for i in range(10):
        add(f"random(40,{i})", linhyp.random_linear(40, 4, 3, 26, pool.next_u64()), None)
    # deep: the plane families, where orbit pruning would apply
    add("AG(5)-0", linhyp.affine_plane(5), 9, 12)
    add("AG(7)-6", linhyp.affine_residual(7, 6), 7)
    add("AG(7)-5", linhyp.affine_residual(7, 5), 8)
    add("onh(g30)", linhyp.onh(linhyp.g30()), GAMMA_T_G30)
    # Two trials of `prob mc --p 7 --seed 7`, unrelabelled: a shrunk PG(2,7)
    # costs 0.3 to 3 s depending on the draw and the labels.
    pg7 = linhyp.projective_plane(7)
    for t in range(2):
        h = linhyp.shrink(pg7, linhyp.ShrinkConfig(4, 7 ^ (0x51AB1E * (t + 1))))
        add(f"mc(PG(2,7),{t})", h, None, 1, False)
    return ops


# -- defic ----------------------------------------------------------------


def _defic_op(op_id: str, h) -> Op:
    def run():
        r = linhyp.tau(h)
        check_transversal(h, r)
        value, best = linhyp.deficiency(h)
        check(value >= 0, f"negative deficiency {value}")
        rescored = linhyp.defic_of_set(h, best)
        check(rescored == value, f"argmax re-scores to {rescored}, not {value}")
        check(
            45 * r.tau <= 6 * h.n + 13 * h.m + value,
            "45 tau <= 6n + 13m + defic fails",
        )
        return {"tau": r.tau, "defic": value, "footprint": list(best.footprint())}

    return Op(op_id, run, labelled=("footprint",))


def _defic_ops(pool: SplitMix64, labels: SplitMix64) -> list[Op]:
    ops = []

    def add(name, h):
        ops.append(_defic_op(f"{name}#{len(ops)}", relabel(h, labels)))

    # acceptance-style hosts: the (n, m) cells of the key-inequality corpus
    for m in (5, 6, 7, 8, 9):
        for n in range(12, 19):
            for _ in range(1 if m == 9 else 2):
                add(f"random({n},{m})", linhyp.random_linear(n, 4, 3, m, pool.next_u64()))
    # larger random hosts: the embedding search dominates and finds only H4
    for n in range(20, 31):
        for _ in range(2):
            add(f"random({n},10)", linhyp.random_linear(n, 4, 3, 10, pool.next_u64()))
    # planted hosts: defic > 0 and copies other than H4 exist
    kinds = {k: v for k, v in catalog_edges().items() if v[0] <= 14}
    for _ in range(16):
        p = planted_host(pool.next_u64(), kinds)
        add("planted", hgio.loads(p.hg_text()))
    return ops


# -- verify ---------------------------------------------------------------


def builtin_corpus() -> list[tuple[str, object]]:
    """The corpus of ``linhyp verify bounds --corpus builtin``."""
    corpus = [(name, linhyp.special(name)) for name in NAMES]
    corpus.append(("AG(2,3)", linhyp.affine_plane(3)))
    corpus += [(f"residual(4,{s})", linhyp.affine_residual(4, s)) for s in range(1, 5)]
    corpus += [(f"family_F({i})", linhyp.family_f(i)) for i in range(3)]
    return corpus


def _suite_op(name: str) -> Op:
    def run():
        report = linhyp.obs61_suite(name)
        failed = [c.prop for c in report.failures()]
        check(not failed, f"{name} fails items {failed}")
        return {"passed": report.all_passed}

    return Op(f"obs61({name})", run)


def _identity_op(name: str) -> Op:
    def run():
        check(SHAPES == PAPER_SHAPES, "the catalog's SHAPES table changed")
        check(DEFIC_WEIGHT == PAPER_DEFIC_WEIGHT, "the catalog's DEFIC_WEIGHT table changed")
        ok = linhyp.verify.defic_identity_check(name)
        check(ok, f"defic identity fails on {name}")
        return {"passed": ok}

    return Op(f"defic_identity({name})", run)


def _mainyy_op(q: int, s: int) -> Op:
    def run():
        ok = linhyp.theorem_mainyy_check(q, s)
        check(ok, f"residual identities fail at q={q}, s={s}")
        return {"passed": ok}

    return Op(f"mainyy({q},{s})", run)


def _bound_op(op_id: str, subject, bound_id: str, expected_tau: int | None = None) -> Op:
    def run():
        try:
            res = linhyp.bound_check(subject, bound_id)
        except HypothesisViolation:
            return {"hypothesis": "violated"}
        check(res.holds, f"{op_id} does not hold")
        if expected_tau is not None:
            check(res.tau == expected_tau, f"{op_id}: tau {res.tau} != {expected_tau}")
        return {"tau": res.tau, "slack": str(res.slack)}

    return Op(op_id, run)


def _dual_op(op_id: str, h) -> Op:
    def run():
        ok = linhyp.check_dual_identity(h)
        check(ok, f"dual identity fails on {op_id}")
        return {"passed": ok}

    return Op(op_id, run)


def _verify_ops(pool: SplitMix64, labels: SplitMix64) -> list[Op]:
    ops = []
    for name in SUITE_ENTRIES:
        ops += [_suite_op(name), _identity_op(name)]
    ops += [_mainyy_op(q, s) for q in (2, 3, 4, 5) for s in range(1, q + 1)]
    corpus = builtin_corpus()
    for bound_id in CORPUS_BOUNDS:
        ops += [_bound_op(f"{bound_id}({name})", h, bound_id) for name, h in corpus]
    ops.append(_bound_op("TD37(g30)", linhyp.g30(), "TD37", GAMMA_T_G30))
    # Dual identity on many hosts with max degree 2: 480 small ones, relabelled
    # per seed (about 0.3 ms each, where p50 falls), and 60 with n = 32 as
    # generated (about 1 ms each, where p90 falls).  Fewer ops would leave
    # p90 among the suite items, single ops of 30 to 90 ms each.
    for i in range(480):
        n = 12 + i % 7
        h = linhyp.random_linear(n, 4, 2, min(4 + i % 5, n // 2), pool.next_u64())
        ops.append(_dual_op(f"dual_identity#{i}", relabel(h, labels)))
    for i in range(60):
        h = linhyp.random_linear(32, 4, 2, 14, pool.next_u64())
        ops.append(_dual_op(f"dual_identity(32)#{i}", h))
    return ops


# -- planes ---------------------------------------------------------------


def _check_plane(h, points: int, lines: int, k: int, name: str) -> None:
    check((h.n, h.m) == (points, lines), f"{name} has shape {(h.n, h.m)}")
    check(all(len(e) == k for e in h.edges), f"{name} is not {k}-uniform")
    check(linhyp.is_linear(h), f"{name} is not linear")


def _plane_op(q: int) -> Callable[[], dict]:
    def run():
        n = q * q + q + 1
        pg = linhyp.projective_plane(q)
        _check_plane(pg, n, n, q + 1, f"PG(2,{q})")
        ag = linhyp.affine_plane(q)
        _check_plane(ag, q * q, q * q + q, q, f"AG(2,{q})")
        g = linhyp.incidence_graph(pg)
        general = linhyp.max_matching_general(g)
        check(general.check(g), "blossom matching is not a matching of G")
        check(general.size == n, f"blossom matching size {general.size} != {n}")
        try:
            bipartite = linhyp.max_matching_bipartite(g)
        except RecursionError as exc:
            if q not in RECURSION_DEFECT_ORDERS:
                raise
            raise KnownDefect(f"max_matching_bipartite recursion on PG(2,{q})") from exc
        check(bipartite.check(g), "bipartite matching is not a matching of G")
        check(bipartite.size == n, f"bipartite matching size {bipartite.size} != {n}")
        return {"points": pg.n, "matching": bipartite.size}

    return run


def _planes_ops(pool: SplitMix64, labels: SplitMix64) -> list[Op]:
    """The inputs do not depend on the seed.  The answers are fixed by q and
    checked in the op, so the reference table holds none."""
    return [
        Op(f"PG+AG({q})#{copy}", _plane_op(q), key=f"PG+AG({q})")
        for q, copies in PLANE_COPIES.items()
        for copy in range(copies)
    ]

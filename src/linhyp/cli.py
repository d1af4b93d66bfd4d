"""Command line surface: gen | solve | defic | dual | prob | verify.

argparse does the dispatch: each leaf command binds its own handler with
``set_defaults(func=...)``, and ``main`` calls it.  A handler takes only the
parsed ``args`` and computes; it returns ``(payload, passed)``, where
``payload`` is its JSON dict, or ``None`` when it already wrote non-JSON
output (``.hg`` text or the ``--table`` view), and ``passed`` is False when a
check failed.

``main`` owns the output: it hashes the input file before the handler runs,
appends the run manifest (argv, version, elapsed milliseconds, input hashes,
seed) to the payload, writes the JSON, and picks the exit code: 0 success /
all pass, 1 check failed, 2 usage error, 3 guard exceeded, 4 internal defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__, algebra, catalog, hgio
from .core import ArgumentError, Hypergraph, HypergraphError, bipartite_complement, dual_graph
from .deficiency import deficiency, estar
from .matching import max_matching_general
from .probability import (
    ShrinkConfig,
    claim_c3_envelope,
    coefficient_threshold,
    final_bound,
    mc_tau_profile,
    shrink,
    threshold_scan,
)
from .solver import GuardExceeded, tau
from .verify import BOUND_IDS, HypothesisViolation, bound_check, bound_value, catalog_report, defic_identity_check, mainyy_identities_hold

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_DEFECT = 4

# Errors that mean bad input, reported as exit 2; any other exception from a
# command is a defect, reported with its traceback as exit 4.
USAGE_ERRORS = (
    ArgumentError,
    HypergraphError,
    algebra.AlgebraError,
    hgio.FormatError,
    catalog.CatalogError,
    OSError,
)

GUARD_ENV = {
    "solve_n": ("LINHYP_GUARD_SOLVE_N", 60),
    "defic_n": ("LINHYP_GUARD_DEFIC_N", 30),
}

# gen's families: the constructor and the options it takes, in argument order.
FAMILIES = {
    "ag": (algebra.affine_plane, ("q",)),
    "pg": (algebra.projective_plane, ("q",)),
    "residual": (algebra.affine_residual, ("q", "s")),
    "lk": (algebra.l_k, ("k",)),
    "calF": (algebra.family_f, ("i",)),
    "special": (catalog.special, ("name",)),
    "fano-complement": (algebra.fano_complement, ()),
    "random": (algebra.random_linear, ("n", "k", "max_deg", "m_target", "seed")),
}


def _guard(name: str) -> int:
    env, default = GUARD_ENV[name]
    raw = os.environ.get(env, str(default))
    try:
        return int(raw)
    except ValueError:
        raise ArgumentError(f"{env} must be an integer, not {raw!r}") from None


def _manifest(argv, t0: float, inputs: dict[str, str] | None, seed):
    out = {
        "argv": argv,
        "version": __version__,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    if inputs:
        out["input_sha256"] = inputs
    if seed is not None:
        out["seed"] = seed
    return out


def _write_hg(args, h: Hypergraph, comment: str, stdout_comment: str | None):
    """Write ``h`` to ``--out`` and return a summary, or print its ``.hg`` text."""
    if not args.out:
        sys.stdout.write(hgio.dumps(h, comment=stdout_comment))
        return None, True
    hgio.dump(h, args.out, comment=comment)
    return {"written": str(args.out), "n": h.n, "m": h.m}, True


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "float": float(obj)}
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dot_incidence(h: Hypergraph) -> str:
    lines = ["graph incidence {"]
    for v in range(h.n):
        lines.append(f'  v{v} [shape=circle, label="{v + 1}"];')
    for i, e in enumerate(h.edges):
        lines.append(f'  e{i} [shape=box, label="e{i + 1}"];')
        for v in e:
            lines.append(f"  v{v} -- e{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_gen(args):
    make, names = FAMILIES[args.family]
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise HypergraphError(f"family {args.family!r} requires {', '.join(missing)}")
    h = make(*(getattr(args, n) for n in names))
    comment = f"generated by linhyp gen --family {args.family}"
    if args.dot:
        Path(args.dot).write_text(_dot_incidence(h), encoding="ascii")
    return _write_hg(args, h, comment, comment)


def _solve_guard(n: int) -> None:
    """Refuse an exact ``tau`` search on a host of ``n`` vertices above the
    solve guard."""
    limit = _guard("solve_n")
    if n > limit:
        raise GuardExceeded(
            f"n={n} beyond solve guard {limit} "
            f"(override with {GUARD_ENV['solve_n'][0]})"
        )


def cmd_solve(args):
    h = hgio.load(args.file)
    _solve_guard(h.n)
    res = tau(h)
    return {
        "tau": res.tau,
        "witness": [v + 1 for v in res.witness],
        "nodes": res.nodes_explored,
        "method": res.method,
    }, True


def cmd_defic(args):
    h = hgio.load(args.file)
    value, xset = deficiency(h, guard_n=_guard("defic_n"))
    counts = xset.partition_counts()
    return {
        "value": value,
        "set": [
            {"kind": e.kind, "edges": [i + 1 for i in e.edge_indices]}
            for e in xset.embeddings
        ],
        "estar": sorted(i + 1 for i in estar(h, xset)),
        "partition_counts": {f"X{k}": v for k, v in counts.items()},
    }, True


def cmd_dual(args):
    h = hgio.load(args.file)
    g = dual_graph(h)  # validates linearity and max degree <= 2 before the guard
    _solve_guard(h.n)
    alpha = max_matching_general(g).size
    t = tau(h).tau
    holds = t == h.m - alpha
    return {"m": h.m, "alpha_prime": alpha, "tau": t, "identity_holds": holds}, holds


def cmd_prob_bound(args):
    value = final_bound(args.k, args.n, args.c)
    return {
        "k": args.k,
        "n": args.n,
        "c": args.c,
        "bound": value if math.isfinite(value) else None,
        "less_than_one": value < 1,
    }, True


def cmd_prob_threshold(args):
    scan = threshold_scan(args.k_lo, args.k_hi, coefficient=args.coefficient)
    return {
        "coefficient": args.coefficient,
        "window": list(scan.window),
        "threshold": scan.threshold,
        "non_monotone_at": list(scan.non_monotone_at),
        "envelope_threshold": coefficient_threshold(args.coefficient),
    }, True


def cmd_prob_envelope(args):
    mx, argmax = claim_c3_envelope()
    return {"max": mx, "argmax": argmax}, True


def cmd_prob_shrink(args):
    h = hgio.load(args.file)
    out = shrink(h, ShrinkConfig(k=args.k, seed=args.seed))
    comment = f"shrunk with k={args.k} seed={args.seed}"
    return _write_hg(args, out, comment, None)


def cmd_prob_mc(args):
    prof = mc_tau_profile(args.p, args.trials, args.seed)
    return {
        "p": prof.p,
        "k": prof.k,
        "trials": prof.trials,
        "tau_min": prof.tau_min,
        "tau_mean": prof.tau_mean,
        "tau_max": prof.tau_max,
        "frac_exceeding_bound": prof.frac_exceeding_bound,
    }, True


def cmd_verify_catalog(args):
    payload = {"subjects": {}, "all_passed": True}
    for kind, rep in catalog_report().items():
        identity = defic_identity_check(kind)
        entry = {
            "checks": [
                {
                    "prop": c.prop,
                    "applicable": c.applicable,
                    "passed": c.passed,
                    **({"witness": c.witness} if c.witness else {}),
                }
                for c in rep.checks
            ],
            "defic_identity": identity,
            "passed": rep.all_passed and identity,
        }
        payload["subjects"][kind] = entry
        payload["all_passed"] &= entry["passed"]
    return payload, payload["all_passed"]


def _bounds_corpus(args) -> list[tuple[str, Hypergraph]]:
    """The named hosts ``verify bounds`` checks: a directory's, or the builtin ones."""
    if args.corpus != "builtin":
        paths = sorted(Path(args.corpus).glob("*.hg"))
        if not paths:
            raise ArgumentError(f"--corpus {args.corpus!r} is not a directory holding .hg files")
        return [(p.name, hgio.load(p)) for p in paths]
    if args.bound == "TD37":
        return [
            ("heawood-bipartite-complement", bipartite_complement(algebra.heawood())),
            ("g30", algebra.g30()),
        ]
    return (
        [(name, catalog.special(name)) for name in catalog.NAMES]
        + [("AG(2,3)", algebra.affine_plane(3))]
        + [(f"residual(4,{s})", algebra.affine_residual(4, s)) for s in range(1, 5)]
        + [(f"family_F({i})", algebra.family_f(i)) for i in range(3)]
    )


def cmd_verify_bounds(args):
    # hypotheses first: the guard only refuses hosts that would be solved
    hosts = []
    for name, h in _bounds_corpus(args):
        try:
            bound_value(h, args.bound)
        except HypothesisViolation as exc:
            hosts.append((name, h, str(exc)))
            continue
        _solve_guard(h.n)
        hosts.append((name, h, None))
    results = []
    all_ok = True
    for name, h, skipped in hosts:
        if skipped:
            results.append({"name": name, "skipped": skipped})
            continue
        res = bound_check(h, args.bound)
        results.append(
            {
                "name": name,
                "holds": res.holds,
                "tau": res.tau,
                "bound": res.bound,
                "slack": res.slack,
            }
        )
        all_ok &= res.holds
    return {"bound": args.bound, "results": results, "all_passed": all_ok}, all_ok


def cmd_verify_mainyy(args):
    q = args.q
    if q < 2:
        raise ArgumentError(f"--q must be at least 2, not {q}")
    if algebra.prime_power(q) is None:
        raise algebra.AlgebraError(f"{q} is not a prime power")
    _solve_guard(q * q - 1)  # before any plane is built: s = 1 is the largest
    oks = {}
    rows = []
    for s in range(1, q + 1):
        h = algebra.affine_residual(q, s)
        t = tau(h).tau
        rows.append((s, t, h.n, h.m, Fraction(h.n + h.m, q + 1)))
        oks[s] = mainyy_identities_hold(q, s, h, t)
    all_ok = all(oks.values())
    if not args.table:
        return {"q": q, "per_s": oks, "all_passed": all_ok}, all_ok
    print(f"residuals of the order-{q} affine plane")
    print(f"{'|X|':>4} {'tau':>4} {'n':>4} {'m':>4} {'(n+m)/(q+1)':>12}")
    for s, t, n, m, ratio in rows:
        print(f"{s:>4} {t:>4} {n:>4} {m:>4} {str(ratio):>12}")
    return None, all_ok


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linhyp",
        description="Exact transversal computations for uniform linear hypergraphs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a named family as .hg")
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    gen.add_argument("--q", type=int, help="plane order")
    gen.add_argument("--s", type=int, help="residual deletion count")
    gen.add_argument("--k", type=int, help="uniformity")
    gen.add_argument("--i", type=int, help="family index")
    gen.add_argument("--name", help="special hypergraph name")
    gen.add_argument("--n", type=int, help="random: vertex count")
    gen.add_argument("--max-deg", type=int, dest="max_deg", help="random: max degree")
    gen.add_argument("--m-target", type=int, dest="m_target", help="random: edge target")
    gen.add_argument("--seed", type=int, help="random: seed (required)")
    gen.add_argument("--out", help="output path (stdout if omitted)")
    gen.add_argument("--dot", help="also write the incidence structure as DOT")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="exact transversal number of a .hg file")
    solve.add_argument("file")
    solve.set_defaults(func=cmd_solve)

    defic = sub.add_parser("defic", help="deficiency of a .hg file")
    defic.add_argument("file")
    defic.set_defaults(func=cmd_defic)

    dual = sub.add_parser("dual", help="dual-graph matching identity for Δ<=2")
    dual.add_argument("file")
    dual.set_defaults(func=cmd_dual)

    prob = sub.add_parser("prob", help="probability-side computations")
    psub = prob.add_subparsers(dest="prob_cmd", required=True)
    pb = psub.add_parser("bound")
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--c", type=float, required=True)
    pb.set_defaults(func=cmd_prob_bound)
    pt = psub.add_parser("threshold")
    pt.add_argument("--k-lo", type=int, dest="k_lo", default=2700)
    pt.add_argument("--k-hi", type=int, dest="k_hi", default=2800)
    pt.add_argument("--coefficient", type=float, default=5.0)
    pt.set_defaults(func=cmd_prob_threshold)
    psub.add_parser("envelope").set_defaults(func=cmd_prob_envelope)
    ps = psub.add_parser("shrink")
    ps.add_argument("file")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_prob_shrink)
    pm = psub.add_parser("mc")
    pm.add_argument("--p", type=int, required=True, choices=(3, 5, 7))
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--seed", type=int, required=True)
    pm.set_defaults(func=cmd_prob_mc)

    ver = sub.add_parser("verify", help="catalog and bound verification")
    vsub = ver.add_subparsers(dest="verify_cmd", required=True)
    vsub.add_parser("catalog").set_defaults(func=cmd_verify_catalog)
    vb = vsub.add_parser("bounds")
    vb.add_argument("--corpus", default="builtin")
    vb.add_argument("--bound", required=True, choices=BOUND_IDS)
    vb.set_defaults(func=cmd_verify_bounds)
    vm = vsub.add_parser("mainyy")
    vm.add_argument("--q", type=int, required=True)
    vm.add_argument("--table", action="store_true", help="print the residual table instead of JSON")
    vm.set_defaults(func=cmd_verify_mainyy)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.perf_counter()
    try:
        # hashed before the handler runs, which may overwrite the file
        inputs = (
            {args.file: hashlib.sha256(Path(args.file).read_bytes()).hexdigest()}
            if hasattr(args, "file") else None
        )
        payload, passed = args.func(args)
        if payload is not None:
            payload["manifest"] = _manifest(argv, t0, inputs, getattr(args, "seed", None))
            json.dump(payload, sys.stdout, indent=2, default=_jsonable)
            sys.stdout.write("\n")
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_DEFECT
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

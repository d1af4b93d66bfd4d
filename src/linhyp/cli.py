"""Command line surface: gen | solve | defic | dual | prob | verify.

Every JSON output embeds a run manifest (argv, version, seeds, input
hashes, elapsed milliseconds).  Exit codes: 0 success / all pass, 1 check
failed, 2 usage error, 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, algebra, catalog, hgio
from .core import Hypergraph, HypergraphError, dual_graph
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
from .verify import BOUND_IDS, HypothesisViolation, bound_check, catalog_report, defic_identity_check, theorem_mainyy_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

GUARD_ENV = {
    "solve_n": ("LINHYP_GUARD_SOLVE_N", 60),
    "defic_n": ("LINHYP_GUARD_DEFIC_N", 30),
}


def _guard(name: str) -> int:
    env, default = GUARD_ENV[name]
    return int(os.environ.get(env, default))


def _manifest(argv, t0: float, inputs: dict[str, str] | None = None, seed=None):
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


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, default=_jsonable)
    sys.stdout.write("\n")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "float": float(obj)}
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _need(args, fam: str, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise HypergraphError(f"family {fam!r} requires {', '.join(missing)}")


def _gen_family(args) -> Hypergraph:
    fam = args.family
    if fam == "ag":
        _need(args, fam, "q")
        return algebra.affine_plane(args.q)
    if fam == "pg":
        _need(args, fam, "q")
        return algebra.projective_plane(args.q)
    if fam == "residual":
        _need(args, fam, "q", "s")
        return algebra.affine_residual(args.q, args.s)
    if fam == "lk":
        _need(args, fam, "k")
        return algebra.l_k(args.k)
    if fam == "calF":
        _need(args, fam, "i")
        return algebra.family_f(args.i)
    if fam == "special":
        _need(args, fam, "name")
        return catalog.special(args.name)
    if fam == "fano-complement":
        return algebra.fano_complement()
    if fam == "random":
        _need(args, fam, "n", "k", "max_deg", "m_target", "seed")
        return algebra.random_linear(
            args.n, args.k, args.max_deg, args.m_target, args.seed
        )
    raise HypergraphError(f"unknown family {fam!r}")


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


def cmd_gen(args, argv) -> int:
    t0 = time.perf_counter()
    h = _gen_family(args)
    comment = f"generated by linhyp gen --family {args.family}"
    if args.dot:
        Path(args.dot).write_text(_dot_incidence(h), encoding="ascii")
    if args.out:
        hgio.dump(h, args.out, comment=comment)
        _emit(
            {
                "written": str(args.out),
                "n": h.n,
                "m": h.m,
                "manifest": _manifest(argv, t0, seed=args.seed),
            }
        )
    else:
        sys.stdout.write(hgio.dumps(h, comment=comment))
    return EXIT_OK


def cmd_solve(args, argv) -> int:
    t0 = time.perf_counter()
    h = hgio.load(args.file)
    if h.n > _guard("solve_n"):
        raise GuardExceeded(
            f"n={h.n} beyond solve guard {_guard('solve_n')} "
            f"(override with {GUARD_ENV['solve_n'][0]})"
        )
    res = tau(h)
    _emit(
        {
            "tau": res.tau,
            "witness": [v + 1 for v in res.witness],
            "nodes": res.nodes_explored,
            "method": res.method,
            "manifest": _manifest(argv, t0, {str(args.file): _hash_file(args.file)}),
        }
    )
    return EXIT_OK


def cmd_defic(args, argv) -> int:
    t0 = time.perf_counter()
    h = hgio.load(args.file)
    value, xset = deficiency(h, guard_n=_guard("defic_n"))
    counts = xset.partition_counts()
    _emit(
        {
            "value": value,
            "set": [
                {"kind": e.kind, "edges": [i + 1 for i in e.edge_indices]}
                for e in xset.embeddings
            ],
            "estar": sorted(i + 1 for i in estar(h, xset)),
            "partition_counts": {f"X{k}": v for k, v in counts.items()},
            "manifest": _manifest(argv, t0, {str(args.file): _hash_file(args.file)}),
        }
    )
    return EXIT_OK


def cmd_dual(args, argv) -> int:
    t0 = time.perf_counter()
    h = hgio.load(args.file)
    g = dual_graph(h)
    alpha = max_matching_general(g).size
    t = tau(h).tau
    holds = t == h.m - alpha
    _emit(
        {
            "m": h.m,
            "alpha_prime": alpha,
            "tau": t,
            "identity_holds": holds,
            "manifest": _manifest(argv, t0, {str(args.file): _hash_file(args.file)}),
        }
    )
    return EXIT_OK if holds else EXIT_CHECK_FAILED


def cmd_prob(args, argv) -> int:
    t0 = time.perf_counter()
    sub = args.prob_cmd
    if sub == "bound":
        value = final_bound(args.k, args.n, args.c)
        _emit(
            {
                "k": args.k,
                "n": args.n,
                "c": args.c,
                "bound": value,
                "less_than_one": value < 1,
                "manifest": _manifest(argv, t0),
            }
        )
        return EXIT_OK
    if sub == "threshold":
        scan = threshold_scan(args.k_lo, args.k_hi, coefficient=args.coefficient)
        payload = {
            "coefficient": args.coefficient,
            "window": list(scan.window),
            "threshold": scan.threshold,
            "non_monotone_at": list(scan.non_monotone_at),
            "envelope_threshold": coefficient_threshold(args.coefficient),
            "manifest": _manifest(argv, t0),
        }
        _emit(payload)
        return EXIT_OK
    if sub == "envelope":
        mx, argmax = claim_c3_envelope()
        _emit({"max": mx, "argmax": argmax, "manifest": _manifest(argv, t0)})
        return EXIT_OK
    if sub == "shrink":
        h = hgio.load(args.file)
        out = shrink(h, ShrinkConfig(k=args.k, seed=args.seed))
        if args.out:
            hgio.dump(out, args.out, comment=f"shrunk with k={args.k} seed={args.seed}")
            _emit(
                {
                    "written": str(args.out),
                    "n": out.n,
                    "m": out.m,
                    "manifest": _manifest(
                        argv, t0, {str(args.file): _hash_file(args.file)}, args.seed
                    ),
                }
            )
        else:
            sys.stdout.write(hgio.dumps(out))
        return EXIT_OK
    if sub == "mc":
        prof = mc_tau_profile(args.p, args.trials, args.seed)
        _emit(
            {
                "p": prof.p,
                "k": prof.k,
                "trials": prof.trials,
                "tau_min": prof.tau_min,
                "tau_mean": prof.tau_mean,
                "tau_max": prof.tau_max,
                "frac_exceeding_bound": prof.frac_exceeding_bound,
                "manifest": _manifest(argv, t0, seed=args.seed),
            }
        )
        return EXIT_OK
    raise HypergraphError(f"unknown prob subcommand {sub!r}")


def _builtin_corpus() -> list[tuple[str, Hypergraph]]:
    corpus: list[tuple[str, Hypergraph]] = []
    for name in catalog.NAMES:
        corpus.append((name, catalog.special(name)))
    corpus.append(("AG(2,3)", algebra.affine_plane(3)))
    for s in range(1, 5):
        corpus.append((f"residual(4,{s})", algebra.affine_residual(4, s)))
    for i in range(3):
        corpus.append((f"family_F({i})", algebra.family_f(i)))
    return corpus


def cmd_verify(args, argv) -> int:
    t0 = time.perf_counter()
    sub = args.verify_cmd
    if sub == "catalog":
        reports = catalog_report()
        payload = {"subjects": {}, "all_passed": True}
        for kind, rep in reports.items():
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
        payload["manifest"] = _manifest(argv, t0)
        _emit(payload)
        return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED
    if sub == "bounds":
        if args.corpus == "builtin":
            if args.bound == "TD37":
                from .core import bipartite_complement

                corpus = [
                    ("heawood-bipartite-complement",
                     bipartite_complement(algebra.heawood())),
                    ("g30", algebra.g30()),
                ]
            else:
                corpus = _builtin_corpus()
        else:
            corpus = []
            for p in sorted(Path(args.corpus).glob("*.hg")):
                corpus.append((p.name, hgio.load(p)))
        results = []
        all_ok = True
        for name, h in corpus:
            try:
                res = bound_check(h, args.bound)
            except HypothesisViolation as exc:
                results.append({"name": name, "skipped": str(exc)})
                continue
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
        _emit(
            {
                "bound": args.bound,
                "results": results,
                "all_passed": all_ok,
                "manifest": _manifest(argv, t0),
            }
        )
        return EXIT_OK if all_ok else EXIT_CHECK_FAILED
    if sub == "mainyy":
        oks = {}
        rows = []
        for s in range(1, args.q + 1):
            h = algebra.affine_residual(args.q, s)
            t = tau(h).tau
            rows.append((s, t, h.n, h.m, Fraction(h.n + h.m, args.q + 1)))
            oks[s] = theorem_mainyy_check(args.q, s)
        if args.table:
            q = args.q
            print(f"residuals of the order-{q} affine plane")
            print(f"{'|X|':>4} {'tau':>4} {'n':>4} {'m':>4} {'(n+m)/(q+1)':>12}")
            for s, t, n, m, ratio in rows:
                print(f"{s:>4} {t:>4} {n:>4} {m:>4} {str(ratio):>12}")
            return EXIT_OK if all(oks.values()) else EXIT_CHECK_FAILED
        _emit(
            {
                "q": args.q,
                "per_s": oks,
                "all_passed": all(oks.values()),
                "manifest": _manifest(argv, t0),
            }
        )
        return EXIT_OK if all(oks.values()) else EXIT_CHECK_FAILED
    raise HypergraphError(f"unknown verify subcommand {sub!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linhyp",
        description="Exact transversal computations for uniform linear hypergraphs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a named family as .hg")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "ag",
            "pg",
            "residual",
            "lk",
            "calF",
            "special",
            "fano-complement",
            "random",
        ],
    )
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
    pt = psub.add_parser("threshold")
    pt.add_argument("--k-lo", type=int, dest="k_lo", default=2700)
    pt.add_argument("--k-hi", type=int, dest="k_hi", default=2800)
    pt.add_argument("--coefficient", type=float, default=5.0)
    pe = psub.add_parser("envelope")
    ps = psub.add_parser("shrink")
    ps.add_argument("file")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out")
    pm = psub.add_parser("mc")
    pm.add_argument("--p", type=int, required=True, choices=(3, 5, 7))
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--seed", type=int, required=True)
    prob.set_defaults(func=cmd_prob)

    ver = sub.add_parser("verify", help="catalog and bound verification")
    vsub = ver.add_subparsers(dest="verify_cmd", required=True)
    vsub.add_parser("catalog")
    vb = vsub.add_parser("bounds")
    vb.add_argument("--corpus", default="builtin")
    vb.add_argument("--bound", required=True, choices=BOUND_IDS)
    vm = vsub.add_parser("mainyy")
    vm.add_argument("--q", type=int, required=True)
    vm.add_argument("--table", action="store_true", help="print the residual table instead of JSON")
    ver.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (HypergraphError, hgio.FormatError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

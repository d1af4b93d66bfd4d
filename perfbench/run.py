"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tau --seed 1 --seconds 30 --trace 0

Run it from the repository root: the library is imported from ``./src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.

A *pass* runs the workload's whole op list once, single-threaded.  Passes
repeat while another one fits in ``--seconds`` (by default BENCHMARK.json's
``run_seconds``); there is always at least one.  An op's latency is its
fastest time over the passes, and over the copies of the same computation
on the same input (ops that share ``Op.key``): the machine's other load
only ever adds time, so the minimum is the steadiest estimate of the op's
own cost.  With
``--trace 0`` the end-to-end metrics are reported:

- ``batch_s``: the time to finish the whole op list, as the sum of the op
  latencies;
- ``op_p50_ms``, ``op_p90_ms``: percentiles of the op latencies; a failed
  op ranks slower than every successful one (its latency is taken as
  ``batch_s``);
- ``ok_ratio``: ops that answered correctly over ops attempted, so
  ``fail_ratio = 1 - ok_ratio``;
- ``setup_s``: median over fresh interpreters of start-up, ``import linhyp``
  and building the workload's inputs;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1``, untraced and traced passes alternate and the per-layer
metrics are reported (see ``tracing.per_layer``).  The metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import traceback
from statistics import median, quantiles
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, workloads, bench):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import linhyp from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "linhyp", "__init__.py")):
        raise SystemExit("run.py: ./src/linhyp not found; run from the repository root")
    sys.path[:0] = [SRC, HERE]
    import linhyp

    if not os.path.abspath(linhyp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: linhyp imported from {linhyp.__file__}, not ./src")


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports and builds inputs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        samples.append(perf_counter() - start)
    return median(samples)


def plain(answer: dict, expected: dict) -> dict:
    """The answer's values for the expected keys, as JSON would give them."""
    return json.loads(json.dumps({k: answer.get(k) for k in expected}))


class Outcomes:
    """Per-op latencies and statuses over all passes of a run."""

    def __init__(self, ops, reference: dict):
        self.ops = ops
        self.reference = reference
        self.latency: dict[str, list[float]] = {op.key or op.id: [] for op in ops}
        self.status: dict[str, str] = {op.id: "ok" for op in ops}
        self.failed = 0
        self.attempted = 0
        self.passes: list[float] = []

    def run_pass(self) -> float:
        from workloads import CheckError, KnownDefect

        start = perf_counter()
        for op in self.ops:
            t0 = perf_counter()
            status, answer = "ok", None
            try:
                answer = op.run()
            except KnownDefect:
                status = "known-defect"
            except CheckError as exc:
                status = "wrong"
                print(f"# {op.id}: {exc}", file=sys.stderr)
            except Exception:
                status = "error"
                print(f"# {op.id} raised:\n{traceback.format_exc()}", file=sys.stderr)
            self.latency[op.key or op.id].append(perf_counter() - t0)
            if status == "ok":
                expected = self.reference.get(op.id)
                if expected is not None and plain(answer, expected) != expected:
                    status = "wrong"
                    print(f"# {op.id}: answer {answer!r} != reference {expected!r}", file=sys.stderr)
            self.attempted += 1
            if status != "ok":
                self.failed += 1
                if self.status[op.id] == "ok":
                    self.status[op.id] = status
        wall = perf_counter() - start
        self.passes.append(wall)
        return wall

    @property
    def correct(self) -> bool:
        return all(s in ("ok", "known-defect") for s in self.status.values())

    def op_latency(self, op) -> float:
        return min(self.latency[op.key or op.id])

    def batch_s(self) -> float:
        return sum(self.op_latency(op) for op in self.ops)

    def op_percentiles_ms(self) -> tuple[float, float]:
        slowest = self.batch_s()
        values = [
            self.op_latency(op) if self.status[op.id] == "ok" else slowest
            for op in self.ops
        ]
        deciles = quantiles(values, n=10, method="inclusive")
        return deciles[4] * 1e3, deciles[8] * 1e3


def load_reference(workload: str, seed: int, ops) -> dict[str, dict]:
    """Expected answers by op id.  Keys that depend on vertex labels are
    compared only for the default seed, whose labels the table records."""
    from workloads import DEFAULT_SEED

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        table = json.load(f).get(workload, {})
    expected = {}
    for op in ops:
        if op.id in table:
            skip = () if seed == DEFAULT_SEED else op.labelled
            expected[op.id] = {k: v for k, v in table[op.id].items() if k not in skip}
    return expected


def time_left(outcomes: Outcomes, started: float, seconds: float, per_round: int) -> bool:
    last_round = median(outcomes.passes) * per_round
    return perf_counter() - started + last_round <= seconds


def main(argv=None) -> int:
    import_library()
    import workloads

    bench = load_benchmark()
    args = parse_args(argv, workloads, bench)

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    if args.trace:
        from tracing import Spans, Tracer, per_layer

        tracer = Tracer()
        with tracer:
            setup_spans = tracer.spans
            ops = workloads.build(args.workload, args.seed)
        outcomes = Outcomes(ops, load_reference(args.workload, args.seed, ops))
        traced_passes = []
        started = perf_counter()
        while True:
            outcomes.run_pass()
            tracer.spans = Spans()
            with tracer:
                wall = outcomes.run_pass()
            outcomes.passes.pop()  # a traced pass is not an untraced sample
            traced_passes.append((tracer.spans, wall))
            if not time_left(outcomes, started, args.seconds, 2):
                break
        measured = per_layer(setup_spans, traced_passes, median(outcomes.passes))
    else:
        setup_s = measure_setup(args.workload, args.seed)
        ops = workloads.build(args.workload, args.seed)
        outcomes = Outcomes(ops, load_reference(args.workload, args.seed, ops))
        started = perf_counter()
        while True:
            outcomes.run_pass()
            if not time_left(outcomes, started, args.seconds, 1):
                break
        p50, p90 = outcomes.op_percentiles_ms()
        measured = {
            "batch_s": outcomes.batch_s(),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "ok_ratio": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    specs = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in specs}
    failed_ops = sorted(k for k, s in outcomes.status.items() if s != "ok")
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} ops x "
          f"{len(outcomes.passes)} untraced passes; percentiles over {len(ops)} op latencies")
    print(f"# attempted {outcomes.attempted}, failed {outcomes.failed} "
          f"(fail_ratio {outcomes.failed / outcomes.attempted:.4f}): {', '.join(failed_ops) or 'none'}")
    for name, m in metrics.items():
        print(f"# {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

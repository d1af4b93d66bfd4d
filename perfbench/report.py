"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 perfbench/report.py                      # 10 seeds per workload
    python3 perfbench/report.py --runs 1             # every metric once, by name
    python3 perfbench/report.py --workloads tau --runs 5 --out a.json
    python3 perfbench/report.py --runs 10 --out b.json --compare a.json
    python3 perfbench/report.py --trace --runs 2     # per-layer metrics

Run from the repository root.  Run *i* is ``run.py`` in a fresh process with
seed *i* (seeds 1 to ``--runs``) for BENCHMARK.json's ``run_seconds``, so
two sets of runs differ only in the code and the moment.  For every metric the
report prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, next to the metric's bound from BENCHMARK.json:
``steady`` when the spread is under a third of the bound, ``within`` when
under the bound, ``WIDE`` otherwise.  ``--compare`` reads an earlier
``--out`` file (for example from the parent commit) and prints how far each
median moved, as a share of the earlier one, in the metric's worse
direction; it refuses a file made with another ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(command, workload, seed, seconds, trace) -> dict:
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace))]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"report.py: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", help="write every value to this JSON file")
    p.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)

    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"]
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            saved = json.load(f)
        if saved["run_seconds"] != seconds:
            raise SystemExit(f"report.py: {args.compare} has run_seconds {saved['run_seconds']}, not {seconds}")
        earlier = saved["values"]
    collected: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in specs}
        failures = []
        for seed in range(1, args.runs + 1):
            result = run_once(bench["command"], workload, seed, seconds, args.trace)
            failures.append(f"{result['failed']}/{result['attempted']}"
                            + ("" if result["correct"] else " WRONG"))
            for name in specs:
                values[name].append(result["metrics"][name]["value"])
        collected[workload] = values
        print(f"== {workload}: {args.runs} runs of {seconds} s, seeds 1..{args.runs}; "
              f"failed/attempted: {', '.join(failures)}")
        print(f"   {'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, spec in specs.items():
            q1, mid, q3 = summarise(values[name])
            spread = (q3 - q1) / mid if mid else 0.0
            line = (f"   {name:40s} {spec['unit']:>6s} {mid:12.6g} {q1:12.6g} {q3:12.6g}"
                    f" {spread:7.3f}")
            bound = spec.get("bound")
            if bound is not None and args.runs > 1:
                verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
                line += f" {bound:6.2f} {verdict}"
            before = earlier.get(workload, {}).get(name)
            if before:
                old = median(before)
                change = (mid - old) / old if old else 0.0
                worse = change if spec["better"] == "lower" else -change
                line += f"  moved {worse:+.3f} worse"
                if bound is not None and worse > bound:
                    line += " REGRESSED"
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"run_seconds": seconds, "values": collected}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

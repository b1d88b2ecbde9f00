#!/usr/bin/env python3
"""Same-code repeatability: run the benchmark many times on one tree.

    python3 perfbench/repeat.py --runs 10 [--workloads solve,sweep,cli]
                                [--seconds S] [--seed-base N] [--sets 2]

Each repetition runs every workload once with a fresh seed (seed-base + i),
alternating the workload order between repetitions. For every end-to-end
metric, and for the report-only op_p90_ms, it prints the median, the
quartiles, the quartile spread and the largest deviation from the median,
as shares of the median, next to the bound in BENCHMARK.json. With
``--sets 2`` it repeats the whole set and prints how far the second median
moved from the first. A later change whose difference is inside this spread
is "unresolved", not "unchanged".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["op_p90_ms"] = report["op_p90_ms"]
    return values


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "max_dev_share": max(abs(v - median) for v in values) / median,
    }


def run_set(workloads: list[str], runs: int, seconds: int, seed_base: int) -> dict:
    values: dict = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            start = time.perf_counter()
            for name, value in one_run(workload, seed_base + i, seconds).items():
                values[workload].setdefault(name, []).append(value)
            print(f"  run {i + 1}/{runs} {workload} seed {seed_base + i}: {time.perf_counter() - start:.0f} s", flush=True)
    return values


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in bench["end_to_end"]}
    bounds["op_p90_ms"] = (None, "ms")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    sets = []
    for k in range(args.sets):
        print(f"set {k + 1}: {args.runs} runs x {workloads}, {args.seconds} s each", flush=True)
        sets.append(run_set(workloads, args.runs, args.seconds, args.seed_base + 100 * k))

    print(f"\n{'workload':<8} {'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'maxdev':>8} {'bound':>6}" + ("  2nd/1st" if args.sets == 2 else ""))
    for workload in workloads:
        for name, (bound, unit) in bounds.items():
            s = spread(sets[0][workload][name])
            line = (f"{workload:<8} {name:<12} {unit:<6} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                    f"{s['iqr_share']:>8.3f} {s['max_dev_share']:>8.3f} {bound if bound is not None else 'report':>6}")
            if args.sets == 2:
                line += f"  {statistics.median(sets[1][workload][name]) / s['median'] - 1:+.3f}"
            print(line)
    out = ROOT / ".perfbench_runs" / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "sets": sets}, indent=1), encoding="utf-8")
    print(f"\nraw values: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

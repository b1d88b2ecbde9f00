#!/usr/bin/env python3
"""procurekit benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload solve|sweep|cli --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/procurekit``. With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run. The line before it, starting ``report``, holds the
report-only figures and the provenance. The exit code is 0 only when every
correctness gate passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("solve", "sweep", "cli")
# Fresh-interpreter set-up samples taken through each untraced run.
SETUP_PROBES = 3


def use_source_tree() -> None:
    """Import procurekit from this tree's ``src`` and nowhere else."""
    if not (SRC / "procurekit" / "__init__.py").is_file():
        sys.exit(f"error: no procurekit source under {SRC}; run from a procurekit source tree")
    sys.path.insert(0, str(SRC))
    import procurekit

    if Path(procurekit.__file__).resolve().parent != SRC / "procurekit":
        sys.exit(f"error: procurekit imported from {procurekit.__file__}, not from {SRC}")


def workload_ops(workload: str, seed: int, work: Path, tally: dict) -> tuple[list, object]:
    """The workload's ops, generated from the seed, and its CLI runner if it has one."""
    import inputs
    import workloads

    if workload == "solve":
        return workloads.solve_ops(inputs.solve_problems(seed), tally), None
    if workload == "sweep":
        return workloads.sweep_ops(inputs.sweep_batches(seed), tally), None
    runner = workloads.CliRunner(inputs.cli_inputs(seed, work / "inputs"), SRC, work)
    return [runner.op(c) for c in workloads.cli_commands(runner.cli)], runner


def setup_probe(workload: str, seed: int, work: Path) -> float:
    """Seconds from launching a fresh interpreter until its first op is ready."""
    import workloads

    args = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    launched = time.monotonic()
    child = workloads.run_child(args, work, dict(os.environ))
    lines = child.stdout.strip().splitlines()
    if child.code != 0 or not lines or not lines[-1].startswith("ready "):
        raise RuntimeError(f"set-up probe exited {child.code}: {child.stderr.strip()[-300:]}")
    # CLOCK_MONOTONIC is one clock for every process on the host.
    return float(lines[-1].split()[1]) - launched


def provenance(seed: int, seconds: int) -> dict:
    import numpy
    import scipy

    import procurekit

    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "procurekit": procurekit.__version__,
        "git_commit": commit,
        "seed": seed,
        "run_seconds": seconds,
        # Report-only figure (ROADMAP aim 2), not an end-to-end metric.
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def untraced_run(workload: str, seed: int, seconds: int, work: Path) -> dict:
    import workloads

    gates = workloads.baseline_gate()
    tally: dict = {}
    ops, runner = workload_ops(workload, seed, work, tally)
    ops[0].call()  # warm-up, untimed and unchecked

    setup = []
    loop = workloads.timed_loop(
        ops, seconds, SETUP_PROBES, lambda: setup.append(setup_probe(workload, seed, work / "probe"))
    )
    if runner is not None:
        if len(runner.first_bytes) == len(ops):
            gates += workloads.replay_gate(workloads.Replay(runner.cli), runner.first_bytes)
        else:
            gates.append("a CLI command never succeeded, so its outputs could not be replayed")
    summary = workloads.summarize(loop)
    peak = runner.peak_rss_mb if runner is not None else workloads.self_peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": summary.pop("ops_per_s"),
        "op_p50_ms": summary.pop("op_p50_ms"),
        "peak_rss_mb": peak,
    }
    report = {**summary, "setup_samples_s": setup, "tally": tally}
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": gates + loop.errors,
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    use_source_tree()
    if args.setup_probe:
        # What a fresh process does before its first timed op: generate the
        # inputs and run one warm-up op.
        ops, _ = workload_ops(args.workload, args.seed, Path.cwd(), {})
        ops[0].call()
        print(f"ready {time.monotonic()!r}")
        return 0

    # The build: byte-compile the tree once so no timed interpreter pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{name}-{os.getpid()}"
    try:
        if args.trace:
            import tracing

            out = tracing.traced_run(args.workload, args.seed, args.seconds, SRC, work, RUNS / f"spans-{name}.csv.gz")
        else:
            out = untraced_run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # BENCHMARK.json names every metric and its unit; a run must report each.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        out["errors"].append(f"metrics not measured: {missing}")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        **out["report"],
        "errors": out["errors"],
        "provenance": provenance(args.seed, args.seconds),
    }
    for key, value in out["metrics"].items():
        print(f"{key:<45} {value:>14.6g} {units[key]}")
    for error in out["errors"]:
        print(f"check failed: {error}")
    print("report " + json.dumps(report))
    correct = out["failed"] == 0 and not out["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    k: {"value": float(v), "unit": units[k]} for k, v in out["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write one benchmark record: end-to-end and per-layer metrics, CLI and
tier-1 wall times, the source size and the machine, as one JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--runs 5] [--seconds 45]

Run from anywhere; everything runs on the tree this file sits in, and only
as subprocesses, so the record changes nothing it measures:

- ``perfbench/run.py`` for the ``solve`` and ``sweep`` workloads, ``--runs``
  untraced runs each (seeds 1, 2, ..., ``--runs``), recording the median of
  every end-to-end metric, and one traced run each at seed 1 for the
  per-layer metrics. A run whose correctness gates fail stops the record.
- ``python -m procurekit.cli`` for ``optimize``, ``scenario s9`` and
  ``scenario s10``, each timed over ``--runs`` fresh processes (median).
- the tier-1 suite, ``python -m pytest -q``, once: its pass and fail counts
  and wall time. Failing tests are recorded, not fatal.

Every number in the record is measured by the run that writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("solve", "sweep")
CLI_COMMANDS = {"optimize": ["optimize"], "scenario_s9": ["scenario", "s9"], "scenario_s10": ["scenario", "s10"]}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def perfbench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON result line of one perfbench run, which must be correct."""
    args = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(f"error: {' '.join(args[1:])} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def cli_wall_ms(command: list[str], runs: int) -> float:
    """Median wall time of ``runs`` fresh ``python -m procurekit.cli`` processes."""
    times = []
    for _ in range(runs):
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "procurekit.cli", *command, "--out", out], cwd=out, env=_env(),
                           capture_output=True, check=True)
            times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def pytest_counts(summary: str) -> dict:
    """Outcome counts of a pytest summary line such as '1 failed, 880 passed in 17.07s'."""
    return {outcome: int(count) for count, outcome in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}


def tier1() -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"counts": pytest_counts(summary), "summary": summary, "exit_code": done.returncode, "wall_s": wall}


def machine() -> dict:
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"cpu_model": cpu, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def record(runs: int, seconds: int) -> dict:
    seeds = list(range(1, runs + 1))
    return {
        "end_to_end": {w: medians([perfbench(w, s, seconds, 0) for s in seeds]) for w in WORKLOADS},
        "per_layer": {w: perfbench(w, seeds[0], seconds, 1) for w in WORKLOADS},
        "cli_wall_ms": {name: cli_wall_ms(command, runs) for name, command in CLI_COMMANDS.items()},
        "tier1": tier1(),
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("procurekit/*.py")),
        "machine": machine(),
        "method": {
            "runs": runs,
            "seconds": seconds,
            "seeds": seeds,
            "end_to_end": "median over the untraced perfbench runs, one per seed",
            "per_layer": f"one traced perfbench run per workload at seed {seeds[0]}",
            "cli_wall_ms": "median wall time of fresh python -m procurekit.cli processes, --out a temporary directory",
            "tier1": "one python -m pytest -q run",
            "src_lines": "lines of src/procurekit/*.py",
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds < 1:
        parser.error("--runs and --seconds must be >= 1")
    args.out.write_text(json.dumps(record(args.runs, args.seconds), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

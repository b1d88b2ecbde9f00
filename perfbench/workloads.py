"""The three workloads: their ops, the checks on every op, and the timed loop.

Each workload is a fixed list of ops generated from the seed. The timed loop
repeats that list in rounds, in one closed-loop client: the next op starts
only when the previous one has returned and been checked. Every op is
checked against its own first-round result, so a round that differs from the
first counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import procurekit as pk
import procurekit.heatmap

import inputs

# Largest KKT max_residual accepted on any op, in USD per unit of the
# decision variable. Observed residuals stay below 1e-3 while the slope
# terms they are measured against (a1 * Q, a3 * nu) run to 1e2..1e5.
KKT_BOUND = 1e-2
CHILD_TIMEOUT_S = 150.0

RESULT_METRICS = (
    "alpha_star",
    "q_star",
    "expected_profit_usd",
    "fill_rate",
    "penalty_rate",
    "std_error",
    "kkt_max_residual",
    "status",
)
FIT_COLUMNS = (
    "rank",
    "family",
    "params",
    "n_free_params",
    "log_likelihood",
    "aic",
    "bic",
    "ks_statistic",
    "rmse",
    "sample_size",
    "notes",
)


@dataclass
class Op:
    """One timed call and the check run on its result after the clock stops.

    ``check(result, round)`` returns how many of the op's ``weight`` units
    are wrong, plus a message for the first problem it found.
    """

    key: str
    weight: int
    call: Callable[[], object]
    check: Callable[[object, int], tuple[int, str]]


@dataclass
class LoopResult:
    samples: dict[str, list[float]] = field(default_factory=dict)
    weights: dict[str, int] = field(default_factory=dict)
    timeline: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: int = 0


def run_op(op: Op, round_no: int, around=None) -> tuple[float, int, str]:
    """Time one call, then check it: (seconds, units wrong, first problem).

    ``around`` is an optional context manager entered around the call alone,
    outside the clock and the check.
    """
    with around or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - an unexpected error is a failed op
            return time.perf_counter() - start, op.weight, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    bad, message = op.check(result, round_no)
    return elapsed, bad, message


def timed_loop(ops: list[Op], seconds: float, probes: int, probe: Callable[[], None]) -> LoopResult:
    """Repeat rounds of ``ops`` for ``seconds`` of loop time.

    ``probe`` runs ``probes`` times, spread evenly through the loop; its time
    is not loop time. At least one full round always runs.
    """
    out = LoopResult(weights={op.key: op.weight for op in ops})
    marks = [k * seconds / probes for k in range(probes)]
    loop_time = 0.0
    done_probes = 0
    index = 0
    while True:
        if done_probes < probes and loop_time >= marks[done_probes]:
            probe()
            done_probes += 1
            continue
        if loop_time >= seconds and out.rounds >= 1 and done_probes == probes:
            break
        op = ops[index]
        start = time.perf_counter()
        elapsed, bad, message = run_op(op, out.rounds)
        out.samples.setdefault(op.key, []).append(elapsed)
        out.attempted += op.weight
        out.failed += bad
        if bad and len(out.errors) < 10:
            out.errors.append(f"{op.key} round {out.rounds}: {message}")
        loop_time += time.perf_counter() - start
        out.timeline.append((loop_time, 1e3 * elapsed / op.weight))
        index += 1
        if index == len(ops):
            index = 0
            out.rounds += 1
    return out


def _weighted_quantile(values: list[float], weights: list[int], q: float) -> float:
    order = sorted(range(len(values)), key=values.__getitem__)
    total = sum(weights)
    running = 0
    for i in order:
        running += weights[i]
        if running >= q * total:
            return values[i]
    return values[order[-1]]


def summarize(loop: LoopResult) -> dict:
    """End-to-end timing figures from one loop.

    Each op's time is the fastest of its rounds, so a run that spends part
    of its time in one of the host's slow phases still reads its fast-phase
    speed as long as each op ran once outside it. Ops per second is the
    round's op count over the sum of those times; the per-op latency of a
    batch op (a sweep spec) is its time over its cell count, weighted by
    cells.
    """
    keys = list(loop.weights)
    best = [min(loop.samples[k]) for k in keys]
    weights = [loop.weights[k] for k in keys]
    per_unit = [1e3 * b / w for b, w in zip(best, weights)]
    windows: dict[int, list[float]] = {}
    for at, ms in loop.timeline:
        windows.setdefault(int(at), []).append(ms)
    return {
        "ops_per_s": sum(weights) / sum(best),
        "op_p50_ms": _weighted_quantile(per_unit, weights, 0.5),
        "op_p90_ms": _weighted_quantile(per_unit, weights, 0.9),
        "op_p90_samples": sum(weights),
        "timed_samples": sum(len(v) for v in loop.samples.values()),
        "rounds": loop.rounds,
        "per_second_median_ms": [
            round(statistics.median(windows[s]), 4) for s in sorted(windows)
        ],
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- baseline gate ------------------------------------------------------------


def baseline_gate() -> list[str]:
    """The README's baseline digits, printed to their documented precision."""
    opt = pk.optimize(pk.BASELINE_MARKET, pk.BASELINE_SUPPLIERS, pk.BASELINE_DEMAND)
    threshold = pk.adoption_threshold(
        pk.BASELINE_MARKET, pk.BASELINE_SUPPLIERS, pk.BASELINE_DEMAND, 500.0, 10_000.0
    )
    got = {
        "alpha_star": f"{opt.alpha_star:.6f}",
        "q_star": f"{opt.q_star:.2f}",
        "profit": f"{opt.breakdown.expected_profit:.2f}",
        "adoption_threshold": f"{threshold:.0f}",
    }
    want = {"alpha_star": "0.007362", "q_star": "51.48", "profit": "2364.66", "adoption_threshold": "2427"}
    return [f"baseline {k}: got {got[k]}, want {want[k]}" for k in want if got[k] != want[k]]


# -- solve ----------------------------------------------------------------------


def optimum_problem(opt: pk.Optimum) -> str | None:
    values = (
        opt.alpha_star,
        opt.q_star,
        opt.breakdown.expected_profit,
        opt.kkt.max_residual,
        *opt.decision.quantities,
    )
    if not inputs.is_finite(*values):
        return f"non-finite output {values!r}"
    if not 0.0 <= opt.alpha_star <= 1.0:
        return f"alpha_star {opt.alpha_star!r} outside [0, 1]"
    if opt.kkt.max_residual > KKT_BOUND:
        return f"KKT max_residual {opt.kkt.max_residual!r} above {KKT_BOUND}"
    return None


def boundary_kkt_known_red(p: inputs.Problem, opt: pk.Optimum) -> bool:
    """alpha* = 0 exactly, with only the alpha residual over the bound.

    For nu > 1 the adoption cost slope is 0 at alpha = 0, so the audit's
    alpha residual there is the whole envelope slope a1 * Q*, however close
    the stationary point is to 0. When that point lies so close to 0 that
    its profit ties with alpha = 0 in floating point, optimize returns 0 and
    the audit reports a1 * Q*. This is a defect of the program, kept visible
    as a per-run count; the op still counts as correct only if no small
    positive alpha earns more profit and every order-side residual is
    within the bound.
    """
    kkt = opt.kkt
    if opt.alpha_star != 0.0 or kkt.stationarity_alpha != p.market.a1 * opt.q_star:
        return False
    if max(abs(r) for r in kkt.stationarity_q) > KKT_BOUND:
        return False
    best = opt.breakdown.expected_profit
    for alpha in (1e-15, 1e-12, 1e-9, 1e-6):
        decision = pk.optimal_quantity_given_alpha(p.market, p.suppliers, p.demand, alpha)
        if pk.expected_profit_value(p.market, p.suppliers, p.demand, decision) > best + 1e-9 * abs(best):
            return False
    return True


def optimum_verdict(p: inputs.Problem, opt: pk.Optimum) -> tuple[str | None, bool]:
    """What is wrong with ``opt``, if anything, and whether it is the known red."""
    problem = optimum_problem(opt)
    if problem and problem.startswith("KKT") and boundary_kkt_known_red(p, opt):
        return None, True
    return problem, False


def optimum_fingerprint(opt: pk.Optimum) -> tuple:
    return (
        opt.alpha_star,
        opt.q_star,
        opt.breakdown.expected_profit,
        opt.kkt.max_residual,
        opt.decision.quantities,
    )


class FirstRound:
    """Remembers each op's first-round fingerprint and compares later ones."""

    def __init__(self) -> None:
        self.seen: dict[str, object] = {}

    def differs(self, key: str, fingerprint: object) -> bool:
        return self.seen.setdefault(key, fingerprint) != fingerprint


def solve_ops(problems: list[inputs.Problem], tally: dict) -> list[Op]:
    """One op per problem; round 0 tallies where each optimum sits in alpha."""
    first = FirstRound()

    def make(k: int, p: inputs.Problem) -> Op:
        key = f"solve-{k:03d}"

        def check(opt, round_no):
            problem, known_red = optimum_verdict(p, opt)
            if known_red and round_no == 0:
                tally["boundary_kkt_known_red"] = tally.get("boundary_kkt_known_red", 0) + 1
            if problem is None and first.differs(key, optimum_fingerprint(opt)):
                problem = "result differs from its first round"
            if round_no == 0 and problem is None:
                alpha = opt.alpha_star
                where = "zero" if alpha < 1e-6 else "one" if alpha > 1.0 - 1e-9 else "interior"
                tally[where] = tally.get(where, 0) + 1
            return (1, problem) if problem else (0, "")

        return Op(key, 1, lambda: pk.optimize(p.market, p.suppliers, p.demand), check)

    return [make(k, p) for k, p in enumerate(problems)]


# -- sweep ----------------------------------------------------------------------


def row_problem(spec: pk.ScenarioSpec, row: pk.ScenarioResult) -> str | None:
    """None when the row carries what its coordinates call for."""
    expected = inputs.expected_cell_status(spec, row.coordinates)
    metrics = (row.alpha_star, row.q_star, row.expected_profit, row.fill_rate, row.penalty_rate, row.std_error)
    if expected != "ok":
        if not row.status.startswith(expected + ": "):
            return f"cell {row.cell_index}: status {row.status!r}, want {expected}"
        if not all(math.isnan(v) for v in metrics + (row.kkt_max_residual,)):
            return f"cell {row.cell_index}: failed cell carries numbers"
        return None
    if row.status != "ok":
        return f"cell {row.cell_index}: unexpected failure {row.status!r}"
    if not inputs.is_finite(*metrics):
        return f"cell {row.cell_index}: non-finite output"
    if spec.dynamic is None and not row.kkt_max_residual <= KKT_BOUND:
        if not row_is_boundary_known_red(spec, row):
            return f"cell {row.cell_index}: KKT max_residual {row.kkt_max_residual!r}"
    return None


@functools.lru_cache(maxsize=None)
def row_is_boundary_known_red(spec: pk.ScenarioSpec, row: pk.ScenarioResult) -> bool:
    """The solve workload's known red, found in a scenario cell.

    Rebuilds the cell's model from its market and demand coordinates, solves
    it again and applies the same test as ``boundary_kkt_known_red``.
    """
    if row.alpha_star != 0.0:
        return False
    market, demand = spec.market, spec.demand
    for path, value in row.coordinates:
        scope, _, name = path.partition(".")
        if scope == "market":
            market = dataclasses.replace(market, **{name: float(value)})
        elif scope == "demand":
            demand = dataclasses.replace(demand, **{name: float(value)})
        else:
            return False
    problem = inputs.Problem(market, spec.suppliers, demand)
    opt = pk.optimize(market, spec.suppliers, demand)
    same = (opt.alpha_star, opt.q_star, opt.kkt.max_residual) == (row.alpha_star, row.q_star, row.kkt_max_residual)
    return same and boundary_kkt_known_red(problem, opt)


def sweep_ops(batches: list[inputs.SweepBatch], tally: dict) -> list[Op]:
    """One op per spec, weighted by its cells; round 0 tallies designed failures."""
    first = FirstRound()

    def make(batch: inputs.SweepBatch) -> Op:
        def check(rows, round_no):
            if round_no == 0:
                tally["designed_failures"] = tally.get("designed_failures", 0) + sum(
                    inputs.expected_cell_status(batch.spec, r.coordinates) != "ok" for r in rows
                )
            if len(rows) != batch.cells:
                return batch.cells, f"{len(rows)} rows for {batch.cells} cells"
            bad, message = 0, ""
            for index, row in enumerate(rows):
                problem = row_problem(batch.spec, row)
                if round_no == 0 and problem is None and row.kkt_max_residual > KKT_BOUND:
                    tally["boundary_kkt_known_red"] = tally.get("boundary_kkt_known_red", 0) + 1
                if problem is None and row.cell_index != index:
                    problem = f"row {index} carries cell_index {row.cell_index}"
                if problem is None and first.differs(f"{batch.name}/{index}", repr(row)):
                    problem = f"cell {index} differs from its first round"
                if problem:
                    bad += 1
                    message = message or problem
            return bad, message

        return Op(batch.name, batch.cells, lambda: pk.run(batch.spec, jobs=1), check)

    return [make(b) for b in batches]


# -- cli ------------------------------------------------------------------------


@dataclass
class Child:
    seconds: float
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_child(args: list[str], cwd: Path, env: dict) -> Child:
    """Run one process to completion and take its own peak resident memory.

    ``wait4`` reports the peak of the child and of any workers it waited for.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            seconds,
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024.0,
        )


def child_env(src: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(work)
    return env


@dataclass(frozen=True)
class Command:
    key: str
    args: tuple[str, ...]
    out_dir: Path
    files: tuple[str, ...]


def cli_commands(cli: inputs.CliInputs) -> list[Command]:
    """The cycle: optimize, scenario s10, scenario s9 --jobs 2, fit."""
    seed = str(cli.scenario_seed)
    out = cli.root / "out"
    return [
        Command(
            "optimize",
            ("optimize", "--config", str(cli.config)),
            out / "optimize",
            ("optimum.json",),
        ),
        Command(
            "scenario_s10",
            ("scenario", "s10", "--seed", seed),
            out / "s10",
            ("results.csv", "heatmap.csv", "heatmap.svg"),
        ),
        Command(
            "scenario_s9_jobs2",
            ("scenario", "s9", "--jobs", "2", "--seed", seed),
            out / "s9",
            ("results.csv",),
        ),
        Command("fit", ("fit", str(cli.samples)), out / "fit", ("fits.csv",)),
    ]


class CliRunner:
    """Runs CLI commands as fresh processes and keeps what they wrote."""

    def __init__(self, cli: inputs.CliInputs, src: Path, work: Path) -> None:
        self.cli = cli
        self.env = child_env(src, work)
        self.peak_rss_mb = 0.0
        self.first_bytes: dict[str, dict[str, bytes]] = {}

    def run(self, command: Command) -> tuple[Child, dict[str, bytes]]:
        args = [sys.executable, "-m", "procurekit.cli", *command.args, "--out", str(command.out_dir)]
        child = run_child(args, command.out_dir, self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
        files = {}
        for name in command.files:
            path = command.out_dir / name
            files[name] = path.read_bytes() if path.exists() else b""
        return child, files

    def check(self, command: Command, result: tuple[Child, dict[str, bytes]]) -> tuple[int, str]:
        child, files = result
        if child.code != 0:
            return 1, f"exit {child.code}: {child.stderr.strip()[-300:]}"
        if any(not data for data in files.values()):
            return 1, "an output file is missing or empty"
        if self.first_bytes.setdefault(command.key, files) != files:
            return 1, "output bytes differ from the first cycle"
        return 0, ""

    def op(self, command: Command) -> Op:
        return Op(command.key, 1, lambda: self.run(command), lambda result, _round: self.check(command, result))


def csv_text(header: tuple, rows: list[tuple]) -> str:
    """CSV as docs/formats.md specifies it: floats in shortest round-trip form."""

    def cell(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, tuple):
            return ":".join(cell(v) for v in value)
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buffer.getvalue()


def results_csv(spec: pk.ScenarioSpec, rows: list[pk.ScenarioResult]) -> str:
    paths = tuple(p for p, _ in spec.axes)
    return csv_text(
        ("scenario_id", "cell_index", *paths, *RESULT_METRICS),
        [
            (
                r.scenario_id,
                r.cell_index,
                *(dict(r.coordinates)[p] for p in paths),
                r.alpha_star,
                r.q_star,
                r.expected_profit,
                r.fill_rate,
                r.penalty_rate,
                r.std_error,
                r.kkt_max_residual,
                r.status,
            )
            for r in rows
        ],
    )


def heatmap_texts(spec: pk.ScenarioSpec, rows: list[pk.ScenarioResult]) -> tuple[str, str]:
    (x_path, xs), (y_path, ys) = spec.axes
    grid = np.full((len(xs), len(ys)), math.nan)
    cells = []
    for r in rows:
        coords = dict(r.coordinates)
        grid[xs.index(coords[x_path]), ys.index(coords[y_path])] = r.alpha_star
        cells.append((coords[x_path], coords[y_path], r.alpha_star))
    svg = procurekit.heatmap.render_heatmap_svg(xs, ys, grid, x_label=x_path, y_label=y_path, title=f"{spec.id}: alpha_star")
    return csv_text(("x", "y", "value"), cells), svg


def fits_csv(comparison: pk.Comparison) -> str:
    rows = [
        (
            rank,
            r.family,
            "; ".join(f"{n}={v:.6g}" for n, v in zip(r.param_names, r.params)),
            r.n_free_params,
            r.log_likelihood,
            r.aic,
            r.bic,
            r.ks_statistic,
            r.rmse,
            r.sample_size,
            "; ".join(r.notes),
        )
        for rank, r in enumerate(comparison.reports, start=1)
    ]
    return csv_text(FIT_COLUMNS, rows)


def documented_prefix_differs(written: bytes, expected: str) -> bool:
    """True unless every documented column matches byte for byte.

    docs/formats.md lets later releases append columns, so a written line
    may continue past the documented ones with a comma.
    """
    got = written.decode("utf-8").split("\n")
    want = expected.split("\n")
    if len(got) != len(want):
        return True
    return any(g != w and not g.startswith(w + ",") for g, w in zip(got, want))


@dataclass
class Replay:
    """In-process calls that reproduce what one CLI cycle wrote."""

    cli: inputs.CliInputs
    walls: dict = field(default_factory=dict)

    def optimize_values(self) -> tuple[dict, str | None]:
        """The numbers optimum.json must hold, and what is wrong with them, if anything."""
        cfg = pk.load_config(self.cli.config)
        opt = pk.optimize(cfg.market, cfg.suppliers, cfg.demand)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        mc = pk.expected_profit_monte_carlo(
            cfg.market, cfg.suppliers, cfg.demand, opt.decision, cfg.replications, rng
        )
        values = {
            "alpha_star": opt.alpha_star,
            "q_star": opt.q_star,
            "closed_form_profit": opt.breakdown.expected_profit,
            "kkt_max_residual": opt.kkt.max_residual,
            "mc_profit": mc.expected_profit,
            "mc_std_error": mc.std_error,
        }
        problem, _ = optimum_verdict(inputs.Problem(cfg.market, cfg.suppliers, cfg.demand), opt)
        if problem is None and not inputs.is_finite(mc.expected_profit, mc.std_error):
            problem = "non-finite Monte Carlo output"
        return values, problem

    def scenario(self, preset_id: str, jobs: int) -> tuple[pk.ScenarioSpec, list]:
        """``run`` on a preset; its wall time is kept per (preset, jobs)."""
        spec = pk.preset(preset_id, seed=self.cli.scenario_seed)
        start = time.perf_counter()
        rows = pk.run(spec, jobs=jobs)
        wall = time.perf_counter() - start
        key = (preset_id, jobs)
        self.walls[key] = min(wall, self.walls.get(key, math.inf))
        return spec, rows

    def fits(self) -> pk.Comparison:
        return pk.compare(pk.read_demand_series(str(self.cli.samples)), pk.FAMILIES)


def replay_gate(replay: Replay, written: dict[str, dict[str, bytes]]) -> list[str]:
    """Check one cycle's files against in-process calls on the same inputs."""
    problems = []
    opt = json.loads(written["optimize"]["optimum.json"])
    got = {
        "alpha_star": opt["alpha_star"],
        "q_star": opt["q_star"],
        "closed_form_profit": opt["closed_form"]["expected_profit_usd"],
        "kkt_max_residual": opt["kkt"]["max_residual"],
        "mc_profit": opt["monte_carlo"]["expected_profit_usd"],
        "mc_std_error": opt["monte_carlo"]["std_error"],
    }
    want, problem = replay.optimize_values()
    problems += [f"optimum.json {k}: {got[k]!r} != {want[k]!r}" for k in want if got[k] != want[k]]
    if problem:
        problems.append(f"optimize replay: {problem}")

    spec, rows = replay.scenario("s10", jobs=1)
    heat_csv, heat_svg = heatmap_texts(spec, rows)
    s10 = written["scenario_s10"]
    if documented_prefix_differs(s10["results.csv"], results_csv(spec, rows)):
        problems.append("s10 results.csv differs from the in-process rows")
    if s10["heatmap.csv"].decode() != heat_csv or s10["heatmap.svg"].decode() != heat_svg:
        problems.append("s10 heatmap differs from render_heatmap_svg on the in-process rows")

    spec, rows = replay.scenario("s9", jobs=1)
    if documented_prefix_differs(written["scenario_s9_jobs2"]["results.csv"], results_csv(spec, rows)):
        problems.append("s9 --jobs 2 results.csv differs from the in-process jobs=1 rows")
    problems += [p for p in (row_problem(spec, r) for r in rows) if p]

    if documented_prefix_differs(written["fit"]["fits.csv"], fits_csv(replay.fits())):
        problems.append("fits.csv differs from compare() on the same samples")
    return problems

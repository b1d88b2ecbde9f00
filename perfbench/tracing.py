"""Outside-in tracing and the per-layer metrics it yields.

The tracer replaces procurekit's public functions, in every procurekit
module namespace that holds them, plus three ``TruncatedNormal`` methods,
with wrappers that record a span (name, start, end, parent, op id, size).
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the time its child spans cover; calls nest and
never overlap, so that is a subtraction.

A traced run always walks all three workloads, one segment each, so it
reports every per-layer metric whichever workload it is named for. Inside a
segment every op runs traced and then untraced: the untraced twin gives the
tracing overhead, and every traced result must equal it. Pool workers and
CLI children are never traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import procurekit as pk

import inputs
import workloads

TRACED_FUNCTIONS = (
    ("optimizer", "optimize"),
    ("optimizer", "optimal_quantity_given_alpha"),
    ("optimizer", "kkt_residuals"),
    ("economics", "cheapest_supplier"),
    ("profit", "expected_profit_value"),
    ("profit", "expected_profit_closed_form"),
    ("profit", "expected_profit_monte_carlo"),
    ("profit", "breakdown_from_draws"),
    ("scenarios", "run"),
    ("scenarios", "run_dynamic"),
    ("config", "load_config"),
    ("heatmap", "render_heatmap_svg"),
    ("fitting", "compare"),
)
TRACED_METHODS = ("quantile", "expected_excess", "sample")

# Fresh interpreter: time `import <module>` and count what it loaded.
IMPORT_PROBE = """
import json, sys, time
before = set(sys.modules)
start = time.perf_counter()
import {module}
seconds = time.perf_counter() - start
print(json.dumps({{"seconds": seconds, "modules": len(set(sys.modules) - before),
                  "scipy_optimize": int("scipy.optimize" in sys.modules)}}))
"""


class Tracer:
    """Span-recording wrappers for procurekit's public functions.

    The places that hold each traced function are found once, when the
    tracer is made; ``active`` swaps the wrappers in and the originals back.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.sites: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "procurekit" or n.startswith("procurekit.")]
        for module_name, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(f"procurekit.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                self.sites += [(module, name, original, wrapper) for name, value in vars(module).items() if value is original]
        for method in TRACED_METHODS:
            original = pk.TruncatedNormal.__dict__[method]
            wrapper = self._wrap(f"demand.{method}", original, sized=method == "sample")
            self.sites.append((pk.TruncatedNormal, method, original, wrapper))

    def _wrap(self, name: str, fn, sized: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = int(getattr(result, "size", 0)) if sized else 0
                spans[index] = (name, start, end, parent, self.op, size)

        return traced

    @contextlib.contextmanager
    def active(self, op: str, keep: bool = True):
        """Trace the calls made inside the block under op id ``op``.

        With ``keep`` false the block pays the full tracing cost but its
        spans are dropped afterwards, which bounds memory.
        """
        self.op = op
        mark = len(self.spans)
        for owner, name, _original, wrapper in self.sites:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _wrapper in self.sites:
                setattr(owner, name, original)
            self.op = None
            if not keep:
                del self.spans[mark:]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,size\n")
            for name, start, end, parent, op, size in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op},{size}\n")


class SpanTable:
    """Durations and self times of the spans of one segment."""

    def __init__(self, spans: list, prefix: str) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _size in spans:
            if parent >= 0:
                child[parent] += end - start
        self.rows = [
            (name, end - start, end - start - child[i], parent, size)
            for i, (name, start, end, parent, op, size) in enumerate(spans)
            if op is not None and op.startswith(prefix)
        ]
        self.names = [name for name, *_ in spans]

    def of(self, name: str) -> list[tuple]:
        return [r for r in self.rows if r[0] == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def median(self, name: str, column: int, scale: float, where=None) -> float:
        values = [r[column] for r in self.of(name) if where is None or where(r)]
        return statistics.median(values) * scale

    def total(self, name: str, column: int, where=None) -> float:
        return sum(r[column] for r in self.of(name) if where is None or where(r))


DURATION, SELF = 1, 2


def paired_rounds(tracer: Tracer, label: str, ops: list, seconds: float) -> dict:
    """Rounds of ``ops`` for ``seconds``; each op runs traced, then untraced.

    Running the twins back to back puts both in the same host speed phase,
    so their ratio is the tracing overhead. Spans are kept from the first
    round only; later rounds are traced the same way and their spans
    dropped. Checks run outside the traced block.
    """
    best: dict = {True: {}, False: {}}
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        for op in ops:
            for traced in (True, False):
                around = tracer.active(f"{label}/{round_no}/{op.key}", keep=round_no == 0) if traced else None
                elapsed, bad, message = workloads.run_op(op, 2 * round_no + (not traced), around)
                attempted += op.weight
                failed += bad
                if bad and len(errors) < 10:
                    errors.append(f"{op.key}: {message}")
                best[traced][op.key] = min(elapsed, best[traced].get(op.key, elapsed))
        round_no += 1
    return {
        "rounds": round_no,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "overhead": sum(best[True].values()) / sum(best[False].values()),
    }


def solve_segment(tracer: Tracer, seed: int, seconds: float) -> tuple[dict, dict]:
    tally: dict = {}
    side = paired_rounds(tracer, "solve", workloads.solve_ops(inputs.solve_problems(seed), tally), seconds)
    t = SpanTable(tracer.spans, "solve/")
    solves = t.count("optimizer.optimize")
    scalar = lambda r: r[3] < 0 or t.names[r[3]] != "demand.sample"  # noqa: E731
    metrics = {
        "optimizer.optimize_self_ms": t.median("optimizer.optimize", SELF, 1e3),
        "optimizer.kkt_residuals_us": t.median("optimizer.kkt_residuals", DURATION, 1e6),
        "optimizer.envelope_evals_per_solve": t.count("profit.expected_profit_value") / solves,
        "optimizer.inner_solves_per_solve": t.count("optimizer.optimal_quantity_given_alpha") / solves,
        "economics.cheapest_supplier_calls_per_solve": t.count("economics.cheapest_supplier") / solves,
        "economics.cheapest_supplier_self_us": t.median("economics.cheapest_supplier", SELF, 1e6),
        "demand.quantile_calls_per_solve": t.count("demand.quantile") / solves,
        "demand.quantile_scalar_us": t.median("demand.quantile", DURATION, 1e6, scalar),
        "demand.expected_excess_us": t.median("demand.expected_excess", DURATION, 1e6),
        "profit.expected_profit_value_self_us": t.median("profit.expected_profit_value", SELF, 1e6),
        "profit.closed_form_ms": t.median("profit.expected_profit_closed_form", DURATION, 1e3),
    }
    side["alpha_classes"] = tally
    return metrics, side


def sweep_segment(tracer: Tracer, seed: int, seconds: float) -> tuple[dict, dict]:
    tally: dict = {}
    batches = inputs.sweep_batches(seed)
    side = paired_rounds(tracer, "sweep", workloads.sweep_ops(batches, tally), seconds)
    t = SpanTable(tracer.spans, "sweep/")
    cells_per_round = sum(b.cells for b in batches)
    mc_names = {"profit.expected_profit_monte_carlo", "profit.breakdown_from_draws", "demand.sample"}
    top_mc = lambda r: r[3] < 0 or t.names[r[3]] not in mc_names  # noqa: E731
    mc_seconds = sum(t.total(name, DURATION, top_mc) for name in mc_names)
    run_seconds = t.total("scenarios.run", DURATION)
    scenario_self = t.total("scenarios.run", SELF) + t.total("scenarios.run_dynamic", SELF)
    metrics = {
        "demand.sample_draws_per_s": sum(r[4] for r in t.of("demand.sample")) / t.total("demand.sample", DURATION),
        "profit.monte_carlo_ms": t.median("profit.expected_profit_monte_carlo", DURATION, 1e3),
        "scenarios.cell_self_ms": 1e3 * scenario_self / cells_per_round,
        "scenarios.cell_mc_share": mc_seconds / run_seconds,
        "scenarios.cells": cells_per_round,
        "scenarios.failed_cells": tally.get("designed_failures", 0),
    }
    return metrics, side


def import_probe(module: str, env: dict, work: Path) -> dict:
    child = workloads.run_child([sys.executable, "-c", IMPORT_PROBE.format(module=module)], work, env)
    if child.code != 0:
        raise RuntimeError(f"import probe for {module} exited {child.code}: {child.stderr[-300:]}")
    return {**json.loads(child.stdout.strip().splitlines()[-1]), "wall": child.seconds}


def cli_segment(tracer: Tracer, seed: int, seconds: float, src: Path, work: Path) -> tuple[dict, dict]:
    """One untraced CLI cycle, then traced and untraced in-process replays of it."""
    cli = inputs.cli_inputs(seed, work / "inputs")
    runner = workloads.CliRunner(cli, src, work)
    walls, errors, failed = {}, [], 0
    for command in workloads.cli_commands(cli):
        result = runner.run(command)
        walls[command.key] = result[0].seconds
        bad, message = runner.check(command, result)
        failed += bad
        if bad:
            errors.append(f"{command.key}: {message}")
    if failed:
        return {}, {"attempted": len(walls), "failed": failed, "errors": errors, "overhead": 1.0, "rounds": 0}

    replay = workloads.Replay(cli)
    s9 = pk.preset("s9", seed=cli.scenario_seed)
    best = {True: float("inf"), False: float("inf")}
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        for traced in (True, False):
            with tracer.active("cli/replay", keep=round_no == 0) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                errors += workloads.replay_gate(replay, runner.first_bytes)
                best[traced] = min(best[traced], time.perf_counter() - start)
        # Untraced: jobs=2 forks pool workers, which must not inherit the
        # wrappers.
        _, rows = replay.scenario("s9", jobs=2)
        if workloads.documented_prefix_differs(
            runner.first_bytes["scenario_s9_jobs2"]["results.csv"], workloads.results_csv(s9, rows)
        ):
            errors.append("in-process s9 at jobs=2 differs from the CLI's results.csv")
        round_no += 1

    env = workloads.child_env(src, work)
    cli_import = min(import_probe("procurekit.cli", env, work / "probe")["wall"] for _ in range(3))
    t = SpanTable(tracer.spans, "cli/")
    metrics = {
        "scenarios.pool_speedup_s9": replay.walls[("s9", 1)] / replay.walls[("s9", 2)],
        "config.load_ms": t.median("config.load_config", DURATION, 1e3),
        "heatmap.render_ms": t.median("heatmap.render_heatmap_svg", DURATION, 1e3),
        "fitting.compare_ms": t.median("fitting.compare", DURATION, 1e3),
        "cli.optimize_wall_ms": 1e3 * walls["optimize"],
        "cli.scenario_s10_wall_ms": 1e3 * walls["scenario_s10"],
        "cli.scenario_s9_jobs2_wall_ms": 1e3 * walls["scenario_s9_jobs2"],
        "cli.fit_wall_ms": 1e3 * walls["fit"],
        "cli.import_share": cli_import / walls["optimize"],
    }
    side = {
        "attempted": len(walls),
        "failed": failed,
        "errors": errors,
        "overhead": best[True] / best[False],
        "rounds": round_no,
    }
    return metrics, side


def traced_run(workload: str, seed: int, seconds: float, src: Path, work: Path, spans_path: Path) -> dict:
    """All three segments, the named workload first; returns the result pieces."""
    tracer = Tracer()
    env = workloads.child_env(src, work)
    imports = [import_probe("procurekit", env, work / "probe") for _ in range(3)]
    metrics = {
        "import.procurekit_s": statistics.median(p["seconds"] for p in imports),
        "import.modules_loaded": statistics.median(p["modules"] for p in imports),
        "import.scipy_optimize_loaded": max(p["scipy_optimize"] for p in imports),
    }
    segments = {
        "solve": lambda s: solve_segment(tracer, seed, s),
        "sweep": lambda s: sweep_segment(tracer, seed, s),
        "cli": lambda s: cli_segment(tracer, seed, s, src, work),
    }
    order = [workload] + [w for w in segments if w != workload]
    sides = {}
    for name in order:
        segment_metrics, sides[name] = segments[name](seconds / len(order))
        metrics.update(segment_metrics)
    metrics["trace.overhead_ratio"] = sides[workload]["overhead"]
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "attempted": sum(s["attempted"] for s in sides.values()),
        "failed": sum(s["failed"] for s in sides.values()),
        "errors": [e for s in sides.values() for e in s["errors"]],
        "report": {
            "overhead_ratio_by_segment": {k: s["overhead"] for k, s in sides.items()},
            "rounds": {k: s["rounds"] for k, s in sides.items()},
            "alpha_classes": sides["solve"].get("alpha_classes"),
            "spans": len(tracer.spans),
            "peak_rss_mb": workloads.self_peak_rss_mb(),
            "spans_file": str(spans_path),
        },
    }

"""Command-line front end: optimize, scenario, fit, and sample subcommands.

Every command is deterministic given its inputs and seed, and writes output
files atomically after all computation finishes, so a failed run never
leaves a partial file. Exit codes: 0 success, 1 validation, 2 runtime,
3 I/O. Monetary columns carry a ``_usd`` suffix.

Every table (results, trajectory, fits, heatmap, histogram) is a list of
records: one dict per row, from column name to value in column order.
``_table`` writes any of them as CSV or JSON, so a new column is one new key
in the record builder.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .config import RunConfig, apply_overrides, baseline_config, load_config
from .errors import ProcureKitError, ValidationError
from .fitting import FAMILIES, compare, read_demand_series
from .heatmap import render_heatmap_svg
from .optimizer import optimize
from .profit import ProfitBreakdown, expected_profit_monte_carlo
from .scenarios import PRESET_IDS, ScenarioResult, ScenarioSpec, preset, run

_MONEY_FIELDS = frozenset(
    {
        "expected_revenue",
        "expected_salvage",
        "expected_penalty",
        "procurement_cost",
        "adoption_cost",
        "expected_profit",
    }
)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _cell_text(value: object) -> str:
    """Stable text for one CSV cell; floats use shortest round-trip form."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ":".join(_cell_text(v) for v in value)
    return str(value)


def _json_value(value: object) -> object:
    """NaN and infinities become null so the output stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _table(stem: str, records: list[dict], fmt: str) -> tuple[str, str]:
    """One table as ``(stem.csv, CSV text)`` or ``(stem.json, JSON text)``.

    Each record maps column name to value, in column order. The records must
    be non-empty and share their keys in the same order: the CSV header is
    the first record's keys. JSON rows are the records, with tuples taking
    their CSV cell text and non-finite numbers becoming null.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows([_cell_text(v) for v in record.values()] for record in records)
        return f"{stem}.csv", buffer.getvalue()
    payload = [
        {k: _json_value(_cell_text(v) if isinstance(v, tuple) else v) for k, v in record.items()}
        for record in records
    ]
    return f"{stem}.json", _json_text(payload)


def _breakdown_payload(breakdown: ProfitBreakdown) -> dict:
    payload = {}
    for field in dataclasses.fields(breakdown):
        key = f"{field.name}_usd" if field.name in _MONEY_FIELDS else field.name
        payload[key] = _json_value(getattr(breakdown, field.name))
    return payload


def _guarded(func):
    """Map domain failures to the documented exit codes with JSON on stderr."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            func(*args, **kwargs)
        except ValidationError as exc:
            _fail(1, "validation", exc)
        except (ProcureKitError, RuntimeError) as exc:
            _fail(2, "runtime", exc)
        except OSError as exc:
            _fail(3, "io", exc)

    return wrapper


def _fail(code: int, kind: str, exc: Exception) -> None:
    click.echo(f"error: {json.dumps({'kind': kind, 'message': str(exc)})}", err=True)
    sys.exit(code)


def _load(config_path: str | None) -> RunConfig:
    return load_config(config_path) if config_path else baseline_config()


@click.group()
def main() -> None:
    """Procurement planning under bounded demand with contract adoption."""


@main.command("optimize")
@click.option("--config", "config_path", type=click.Path(), default=None, help="YAML config file.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--replications", type=int, default=None, help="Monte Carlo draws.")
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@_guarded
def cmd_optimize(config_path, seed, replications, out_dir) -> None:
    """Solve for the optimal adoption level and order quantities."""
    cfg = apply_overrides(_load(config_path), seed, replications)
    optimum = optimize(cfg.market, cfg.suppliers, cfg.demand)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    mc = expected_profit_monte_carlo(
        cfg.market, cfg.suppliers, cfg.demand, optimum.decision, cfg.replications, rng
    )
    allocation = [
        {
            "supplier_id": supplier.id,
            "base_cost_usd": supplier.base_cost,
            "beta": supplier.beta,
            "unit_cost_usd": cfg.market.unit_cost(supplier, optimum.alpha_star),
            "quantity": quantity,
        }
        for supplier, quantity in zip(cfg.suppliers, optimum.decision.quantities)
    ]
    payload = {
        "alpha_star": optimum.alpha_star,
        "q_star": optimum.q_star,
        "allocation": allocation,
        "closed_form": _breakdown_payload(optimum.breakdown),
        "monte_carlo": {
            **_breakdown_payload(mc),
            "replications": cfg.replications,
            "seed": cfg.seed,
        },
        "kkt": dataclasses.asdict(optimum.kkt),
    }
    path = Path(out_dir) / "optimum.json"
    _atomic_write(path, _json_text(payload))
    click.echo(
        f"alpha_star={optimum.alpha_star:.6f} q_star={optimum.q_star:.4f} "
        f"expected_profit_usd={optimum.breakdown.expected_profit:.2f} "
        f"kkt_max_residual={optimum.kkt.max_residual:.3g} -> {path}"
    )


def _result_row(result: ScenarioResult, param_paths: tuple[str, ...]) -> dict:
    coords = dict(result.coordinates)
    return {
        "scenario_id": result.scenario_id,
        "cell_index": result.cell_index,
        **{path: coords[path] for path in param_paths},
        "alpha_star": result.alpha_star,
        "q_star": result.q_star,
        "expected_profit_usd": result.expected_profit,
        "fill_rate": result.fill_rate,
        "penalty_rate": result.penalty_rate,
        "std_error": result.std_error,
        "kkt_max_residual": result.kkt_max_residual,
        "status": result.status,
    }


def _trajectory_row(result: ScenarioResult) -> dict:
    coords = dict(result.coordinates)
    return {
        "scenario_id": result.scenario_id,
        "cycle": coords["cycle"],
        "a3_usd": coords["market.a3"],
        "alpha": result.alpha_star,
        "q": result.q_star,
        "expected_profit_usd": result.expected_profit,
        "fill_rate": result.fill_rate,
        "penalty_rate": result.penalty_rate,
        "std_error": result.std_error,
        "status": result.status,
    }


def _heatmap_outputs(
    spec: ScenarioSpec, results: list[ScenarioResult]
) -> list[tuple[str, str]]:
    # Rows follow the grid's product order, last axis fastest; a value may repeat.
    (x_path, xs), (y_path, ys) = spec.axes
    grid = np.reshape([result.alpha_star for result in results], (len(xs), len(ys)))
    records = [
        {"x": x, "y": y, "value": result.alpha_star}
        for (x, y), result in zip(itertools.product(xs, ys), results)
    ]
    svg = render_heatmap_svg(
        xs, ys, grid, x_label=x_path, y_label=y_path, title=f"{spec.id}: alpha_star"
    )
    return [_table("heatmap", records, "csv"), ("heatmap.svg", svg)]


@main.command("scenario")
@click.argument("target")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--replications", type=int, default=None, help="Monte Carlo draws per cell.")
@click.option(
    "--jobs", type=int, default=1, show_default=True,
    help="Accepted for compatibility (at least 1); every scenario runs in one process.",
)
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@click.option(
    "--format",
    "fmt",
    default="csv",
    show_default=True,
    help="Output format: csv or json.",
)
@_guarded
def cmd_scenario(target, seed, replications, jobs, out_dir, fmt) -> None:
    """Run a scenario preset s1..s11 or a YAML spec file."""
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    if target in PRESET_IDS:
        cfg = dataclasses.replace(baseline_config(), scenario=preset(target))
    elif Path(target).exists():
        cfg = load_config(target)
        if cfg.scenario is None:
            raise ValidationError(f"{target}: config has no scenario section")
    else:
        raise ValidationError(
            f"unknown preset {target!r}; expected one of {PRESET_IDS} or a spec file path"
        )
    spec = apply_overrides(cfg, seed, replications).scenario

    results = run(spec, jobs=jobs)
    if spec.dynamic is not None:
        outputs = [_table("trajectory", [_trajectory_row(r) for r in results], fmt)]
    else:
        param_paths = tuple(path for path, _ in spec.axes)
        outputs = [_table("results", [_result_row(r, param_paths) for r in results], fmt)]
        if spec.sampler == "grid" and len(spec.axes) == 2:
            outputs += _heatmap_outputs(spec, results)

    out = Path(out_dir)
    for name, text in outputs:
        _atomic_write(out / name, text)
    failed = sum(1 for r in results if r.status != "ok")
    note = f" ({failed} failed cells)" if failed else ""
    click.echo(f"wrote {len(results)} rows{note}: " + ", ".join(str(out / n) for n, _ in outputs))


@main.command("fit")
@click.argument("data_csv", type=click.Path())
@click.option(
    "--families",
    "families_text",
    default=",".join(FAMILIES),
    show_default=True,
    help="Comma-separated candidate families.",
)
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@click.option("--format", "fmt", default="csv", show_default=True, help="csv or json.")
@_guarded
def cmd_fit(data_csv, families_text, out_dir, fmt) -> None:
    """Fit candidate demand distributions to a single-column CSV and rank them."""
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    families = tuple(f.strip() for f in families_text.split(",") if f.strip())
    data = read_demand_series(data_csv)
    comparison = compare(data, families)
    for warning in comparison.warnings:
        click.echo(f"warning: {warning}", err=True)
    if not comparison.reports:
        raise ValidationError("no family produced a usable fit")

    records = [
        {
            "rank": rank,
            "family": report.family,
            "params": "; ".join(
                f"{name}={value:.6g}" for name, value in zip(report.param_names, report.params)
            ),
            "n_free_params": report.n_free_params,
            "log_likelihood": report.log_likelihood,
            "aic": report.aic,
            "bic": report.bic,
            "ks_statistic": report.ks_statistic,
            "rmse": report.rmse,
            "sample_size": report.sample_size,
            "notes": "; ".join(report.notes),
        }
        for rank, report in enumerate(comparison.reports, start=1)
    ]
    name, text = _table("fits", records, fmt)
    path = Path(out_dir) / name
    _atomic_write(path, text)
    click.echo(f"{'rank':<5}{'family':<20}{'aic':>14}{'bic':>14}{'ks':>10}{'rmse':>12}")
    for r in records:
        click.echo(
            f"{r['rank']:<5}{r['family']:<20}{r['aic']:>14.2f}{r['bic']:>14.2f}"
            f"{r['ks_statistic']:>10.4f}{r['rmse']:>12.6f}"
        )
    click.echo(f"wrote {path}")


@main.command("sample")
@click.option("--config", "config_path", type=click.Path(), default=None, help="YAML config file.")
@click.option("--mu", type=float, default=None, help="Override demand location.")
@click.option("--sigma", type=float, default=None, help="Override demand scale.")
@click.option("--lower", type=float, default=None, help="Override demand lower bound.")
@click.option("--upper", type=float, default=None, help="Override demand upper bound.")
@click.option("--n", type=int, default=100_000, show_default=True, help="Number of draws.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Output directory.")
@_guarded
def cmd_sample(config_path, mu, sigma, lower, upper, n, seed, out_dir) -> None:
    """Draw demand samples; write samples.csv and a 40-bin histogram.csv."""
    cfg = apply_overrides(_load(config_path), seed, None)
    demand = cfg.demand
    overrides = {
        name: value
        for name, value in (("mu", mu), ("sigma", sigma), ("lower", lower), ("upper", upper))
        if value is not None
    }
    if overrides:
        demand = dataclasses.replace(demand, **overrides)
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    draws = demand.sample(rng, n)

    samples_text = "demand\n" + "\n".join(repr(float(d)) for d in draws) + "\n"
    density, edges = np.histogram(draws, bins=40, density=True)
    histogram = [
        {"bin_left": float(left), "bin_right": float(right), "density": float(height)}
        for left, right, height in zip(edges[:-1], edges[1:], density)
    ]
    out = Path(out_dir)
    _atomic_write(out / "samples.csv", samples_text)
    _atomic_write(out / "histogram.csv", _table("histogram", histogram, "csv")[1])
    click.echo(
        f"wrote {n} draws from TruncatedNormal(mu={demand.mu}, sigma={demand.sigma}, "
        f"lower={demand.lower}, upper={demand.upper}) to {out / 'samples.csv'}"
    )


if __name__ == "__main__":
    main()

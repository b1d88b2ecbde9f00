"""Seeded inputs for every workload.

Everything here is a pure function of the workload seed, so two runs with the
same seed hand procurekit the same problems, specs and files. The program
never sees the seed itself, only what is generated from it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import procurekit as pk

SOLVE_PROBLEMS = 120
MIN_SOLVE_SUPPLIERS, MAX_SOLVE_SUPPLIERS = 2, 6
# a3 is drawn log-uniformly over this many decades so optima land at
# alpha = 0, inside (0, 1) and at alpha = 1.
A3_LOG10_RANGE = (2.0, 4.5)
# nu near 1 puts some optima at alpha = 0 exactly; see boundary_kkt_known_red.
NU_RANGE = (1.1, 2.5)
SWEEP_PRESETS = ("s10", "s4", "s11")
S9_SHAPED_SPECS = 4  # s9's axes and ranges, 10 LHS cells each
GENERATED_MODELS = 8  # each gives one grid and one LHS spec of 10 cells
CLI_SAMPLE_SIZE = 4000

# Stream tags keep each generator independent of the others.
_TAG_SOLVE, _TAG_SWEEP, _TAG_CLI = 11, 12, 13


@dataclass(frozen=True)
class Problem:
    """One single-period problem handed to ``optimize``."""

    market: pk.MarketEconomics
    suppliers: tuple[pk.SupplierProfile, ...]
    demand: pk.TruncatedNormal


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def _suppliers(rng: np.random.Generator, n: int) -> tuple[pk.SupplierProfile, ...]:
    ids = rng.permutation(np.arange(1, n + 1))
    return tuple(
        pk.SupplierProfile(
            id=int(ids[k]),
            base_cost=float(rng.uniform(85.0, 115.0)),
            beta=float(rng.uniform(0.0, 1.0)),
        )
        for k in range(n)
    )


def _demand(rng: np.random.Generator, window: str) -> pk.TruncatedNormal:
    """Truncated normal whose parent mean sits inside or beyond the window.

    The mean stays within two parent standard deviations of the nearer edge,
    so the captured mass is never small enough to strain the closed forms.
    """
    mu = float(rng.uniform(40.0, 110.0))
    sigma = float(rng.uniform(0.08, 0.3)) * mu
    width = float(rng.uniform(1.0, 4.0)) * sigma
    if window == "inside":
        lower = mu - float(rng.uniform(0.2, 0.8)) * width
        upper = lower + width
    elif window == "mean-below":
        lower = mu + float(rng.uniform(0.1, 2.0)) * sigma
        upper = lower + width
    else:
        upper = mu - float(rng.uniform(0.1, 2.0)) * sigma
        lower = upper - width
    lower = max(lower, 1.0)
    return pk.TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=max(upper, lower + 1.0))


def _market(rng: np.random.Generator, a3: float, nu: float) -> pk.MarketEconomics:
    return pk.MarketEconomics(
        price=float(rng.uniform(130.0, 200.0)),
        salvage=float(rng.uniform(5.0, 45.0)),
        penalty=float(rng.uniform(0.0, 60.0)),
        a1=float(rng.uniform(2.0, 12.0)),
        a2=float(rng.uniform(2.0, 10.0)),
        a3=a3,
        nu=nu,
    )


def _stratified(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [low, high], shuffled.

    Every seed then covers the range evenly, so the work in a round varies
    little from seed to seed.
    """
    return rng.permutation(low + (np.arange(count) + rng.random(count)) * (high - low) / count)


def solve_problems(seed: int, count: int = SOLVE_PROBLEMS) -> list[Problem]:
    """``count`` problems; panel sizes and window placements cycle, a3 and nu are stratified."""
    rng = _rng(seed, _TAG_SOLVE)
    windows = ("inside", "mean-below", "mean-above")
    sizes = range(MIN_SOLVE_SUPPLIERS, MAX_SOLVE_SUPPLIERS + 1)
    log_a3 = _stratified(rng, count, *A3_LOG10_RANGE)
    nus = _stratified(rng, count, *NU_RANGE)
    problems = []
    for k in range(count):
        suppliers = _suppliers(rng, sizes[k % len(sizes)])
        market = _market(rng, float(10.0 ** log_a3[k]), float(nus[k]))
        problems.append(Problem(market, suppliers, _demand(rng, windows[k % len(windows)])))
    return problems


def cheapest_cost(market: pk.MarketEconomics, suppliers, alpha: float) -> float:
    """Lowest effective unit cost across the panel, computed independently."""
    return min(s.base_cost - market.a1 * alpha - market.a2 * s.beta for s in suppliers)


@dataclass(frozen=True)
class SweepBatch:
    """One ``scenarios.run`` call and the number of cells it must return."""

    name: str
    spec: pk.ScenarioSpec
    cells: int


def expected_cell_status(spec: pk.ScenarioSpec, coordinates) -> str:
    """Status a cell's coordinates call for, from the model's own rules.

    Salvage at or above price is rejected when the market is rebuilt; a
    salvage value above the cheapest unit cost reachable at alpha = 1 makes
    the optimizer's scan hit an unbounded-profit cost (the scan includes
    alpha = 1, where cost is lowest). Everything else must solve. Returns
    "ok" or the exception type name that must open the status text.
    """
    market = spec.market
    for path, value in coordinates:
        if path == "market.salvage" and value >= market.price:
            return "ValidationError"
        if path.startswith("market."):
            market = dataclasses.replace(market, **{path.split(".", 1)[1]: float(value)})
    if market.salvage > cheapest_cost(market, spec.suppliers, 1.0):
        return "DegenerateEconomicsError"
    return "ok"


def _batch(name: str, spec: pk.ScenarioSpec) -> SweepBatch:
    if spec.dynamic is not None:
        cells = spec.dynamic.cycles
    elif spec.sampler == "latin-hypercube":
        cells = spec.lhs_samples
    else:
        cells = math.prod(len(values) for _, values in spec.axes)
    return SweepBatch(name, spec, cells)


def _generated_specs(rng: np.random.Generator, k: int, nu: float, seed: int) -> list[SweepBatch]:
    """A 10-cell grid and a 10-cell LHS spec on one generated model, with designed failures."""
    suppliers = _suppliers(rng, 3 + k % 4)
    market = _market(rng, float(10.0 ** rng.uniform(*A3_LOG10_RANGE)), nu)
    demand = _demand(rng, ("inside", "mean-below", "mean-above")[k % 3])
    low_cost = cheapest_cost(market, suppliers, 1.0)
    high_cost = cheapest_cost(market, suppliers, 0.0)
    salvage_ok = tuple(round(float(x), 3) for x in rng.uniform(0.0, 0.6 * low_cost, 3))
    salvage_bad = (round(high_cost + float(rng.uniform(1.0, 10.0)), 3), market.price)
    a3_values = tuple(round(float(10.0 ** x), 3) for x in np.sort(rng.uniform(*A3_LOG10_RANGE, 2)))
    grid = pk.ScenarioSpec(
        id=f"gen-grid-{k}",
        market=market,
        suppliers=suppliers,
        demand=demand,
        axes=(("market.salvage", salvage_ok + salvage_bad), ("market.a3", a3_values)),
        seed=seed,
    )
    # A fifth of the salvage range lies above the cost reachable at alpha = 1,
    # so with stratified sampling one LHS cell in five fails by design.
    lhs = pk.ScenarioSpec(
        id=f"gen-lhs-{k}",
        market=market,
        suppliers=suppliers,
        demand=demand,
        axes=(
            ("demand.sigma", (0.5 * demand.sigma, 1.5 * demand.sigma)),
            ("market.salvage", (0.0, 1.25 * low_cost)),
            ("market.a3", (10.0 ** A3_LOG10_RANGE[0], 10.0 ** A3_LOG10_RANGE[1])),
        ),
        sampler="latin-hypercube",
        lhs_samples=10,
        seed=seed,
    )
    return [_batch(grid.id, grid), _batch(lhs.id, lhs)]


def sweep_batches(seed: int) -> list[SweepBatch]:
    """Presets s10, s4, s11, s9-shaped LHS specs and generated grid and LHS specs.

    The presets run as shipped, at their own seed. Every spec is short: a
    ``run`` call is the smallest unit the benchmark can time from outside,
    and on a host whose speed changes every few seconds only short calls
    give each round's fastest time a fair chance. For that reason s9 itself
    (100 cells in one call) is replaced by four 10-cell specs over its axes
    and ranges at the workload seed. The generated specs carry cells
    designed to fail: salvage above every reachable unit cost, and salvage
    at or above price.
    """
    rng = _rng(seed, _TAG_SWEEP)
    scenario_seed = int(rng.integers(0, 2**31))
    batches = [_batch(p, pk.preset(p)) for p in SWEEP_PRESETS]
    s9 = pk.preset("s9")
    for k in range(S9_SHAPED_SPECS):
        spec = dataclasses.replace(s9, id=f"s9-shaped-{k}", lhs_samples=10, seed=scenario_seed + k)
        batches.append(_batch(spec.id, spec))
    nus = _stratified(rng, GENERATED_MODELS, *NU_RANGE)
    for k in range(GENERATED_MODELS):
        batches += _generated_specs(rng, k, float(nus[k]), scenario_seed)
    return batches


@dataclass(frozen=True)
class CliInputs:
    """Files and arguments for the cli workload, all under one directory."""

    root: Path
    config: Path
    samples: Path
    scenario_seed: int


def _config_yaml(problem: Problem, seed: int, replications: int) -> str:
    m, d = problem.market, problem.demand
    lines = ["market:"]
    lines += [f"  {f.name}: {getattr(m, f.name)!r}" for f in dataclasses.fields(m)]
    lines.append("suppliers:")
    for s in problem.suppliers:
        lines += [f"  - id: {s.id}", f"    base_cost: {s.base_cost!r}", f"    beta: {s.beta!r}"]
    lines.append("demand:")
    lines += [f"  {name}: {getattr(d, name)!r}" for name in ("mu", "sigma", "lower", "upper")]
    lines += [f"seed: {seed}", f"replications: {replications}"]
    return "\n".join(lines) + "\n"


def cli_inputs(seed: int, root: Path) -> CliInputs:
    """Write config.yaml and samples.csv under ``root``."""
    rng = _rng(seed, _TAG_CLI)
    root.mkdir(parents=True, exist_ok=True)
    problem = solve_problems(int(rng.integers(0, 2**31)), count=1)[0]
    scenario_seed = int(rng.integers(0, 2**31))
    config = root / "config.yaml"
    config.write_text(_config_yaml(problem, scenario_seed, pk.DEFAULT_REPLICATIONS), encoding="utf-8")
    demand = pk.TruncatedNormal(
        mu=float(rng.uniform(40.0, 80.0)),
        sigma=float(rng.uniform(6.0, 15.0)),
        lower=20.0,
        upper=float(rng.uniform(90.0, 110.0)),
    )
    draws = demand.sample(rng, CLI_SAMPLE_SIZE)
    samples = root / "samples.csv"
    samples.write_text("demand\n" + "".join(f"{float(x)!r}\n" for x in draws), encoding="utf-8")
    return CliInputs(root=root, config=config, samples=samples, scenario_seed=scenario_seed)


def is_finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)

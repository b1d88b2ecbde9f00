"""Declarative scenario engine for parameter studies on the procurement model.

A ScenarioSpec names a base model plus either a Cartesian grid over parameter
paths, a Latin hypercube design over parameter ranges, or a multi-cycle
adaptive simulation. The cells' models are optimized together as one array
program, in the calling process; each optimum is then evaluated by Monte
Carlo. Results are plain rows, deterministic for a given (spec, seed).

Seeding: every random stream is derived from the scenario seed, a fixed
namespace and the cell index, never from execution order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .baseline import (
    BASELINE_DEMAND,
    BASELINE_MARKET,
    BASELINE_SUPPLIERS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
)
from .demand import TruncatedNormal
from .economics import MarketEconomics, SupplierProfile
from .errors import (
    ProcureKitError, RankDeficientDesignError, ValidationError, check_finite, check_unit_interval, is_finite, is_int,
    is_real, real_array, store_floats,
)
from .optimizer import _checked_kkt, _solve_batch, optimal_quantity_given_alpha
from .profit import Decision, ProfitBreakdown, breakdown_from_draws, expected_profit_monte_carlo

SAMPLERS = ("grid", "latin-hypercube")

# SeedSequence spawn-key namespaces; cell streams never depend on run order
_NS_CELL_MC = 0
_NS_DESIGN = 1
_NS_DYNAMIC = 2
_NS_BUILD = 3


def _check_seeding(seed, replications) -> None:
    """The seeding rules of a ScenarioSpec and a RunConfig: seed is a
    nonnegative integer, replications an integer of at least 2 within float
    range."""
    for name, value in (("replications", replications), ("seed", seed)):
        if not is_int(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    check_finite("replications", replications)
    if replications < 2:
        raise ValidationError(f"replications must be at least 2, got {replications}")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class DynamicSpec:
    """Adaptive multi-cycle settings: declining adoption cost, penalty feedback.

    Cycle t uses adoption cost scale a3_initial - a3_decline * (t - 1). After
    each cycle the adoption level moves by learning_rate times the relative
    gap between the observed penalty rate and target_penalty, clamped to
    [0, 1].
    """

    cycles: int
    a3_initial: float
    a3_decline: float
    learning_rate: float
    target_penalty: float
    alpha_initial: float

    def __post_init__(self) -> None:
        if not is_int(self.cycles) or self.cycles < 1:
            raise ValidationError(f"cycles must be a positive integer, got {self.cycles!r}")
        # NaN passes every ordered comparison below, so finiteness comes first.
        names = ("a3_initial", "a3_decline", "learning_rate", "target_penalty", "alpha_initial")
        for name in ("cycles", *names):
            check_finite(name, getattr(self, name))
        store_floats(self, names)
        final_a3 = self.a3_at(self.cycles)
        if self.a3_initial <= 0.0 or final_a3 <= 0.0:
            raise ValidationError(
                "adoption cost scale must stay positive over the horizon; "
                f"cycle {self.cycles} would reach {final_a3}"
            )
        for name in ("learning_rate", "target_penalty"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        check_unit_interval("alpha_initial", self.alpha_initial)

    def a3_at(self, cycle: int) -> float:
        """Adoption cost scale in the given 1-indexed cycle."""
        return self.a3_initial - self.a3_decline * (cycle - 1)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: base model, axes, sampling, and seeding.

    Axes are (parameter path, values) pairs. Grid specs enumerate the
    Cartesian product of the values; Latin hypercube specs read each values
    tuple as a (low, high) range. Supported paths are ``market.<field>``,
    ``demand.<field>``, and ``suppliers.beta_range`` (readiness scores
    redrawn uniformly from the given range, one per supplier).
    """

    id: str
    market: MarketEconomics
    suppliers: tuple[SupplierProfile, ...]
    demand: TruncatedNormal
    axes: tuple[tuple[str, tuple], ...] = ()
    sampler: str = "grid"
    lhs_samples: int = 0
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    dynamic: DynamicSpec | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("scenario id must be nonempty")
        if self.sampler not in SAMPLERS:
            raise ValidationError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")
        if not is_int(self.lhs_samples):
            raise ValidationError(f"lhs_samples must be an integer, got {self.lhs_samples!r}")
        _check_seeding(self.seed, self.replications)
        for axis in self.axes:
            if len(axis) != 2 or not isinstance(axis[0], str):
                raise ValidationError(f"axes entries must be (path, values) pairs, got {axis!r}")
            _validate_axis(axis[0], axis[1], self.sampler)
        paths = [path for path, _ in self.axes]
        if len(set(paths)) != len(paths):
            raise ValidationError(f"axis paths must be distinct, got {paths}")
        if self.dynamic is not None:
            if self.axes or self.sampler != "grid":
                raise ValidationError("dynamic scenarios take no axes or sampler settings")
            return
        if self.sampler == "grid" and not self.axes:
            raise ValidationError("grid sampler requires at least one axis")
        if self.sampler == "latin-hypercube":
            if self.lhs_samples < 2:
                raise ValidationError(
                    f"latin-hypercube sampler requires lhs_samples >= 2, got {self.lhs_samples}"
                )
            for path, values in self.axes:
                if not (len(values) == 2 and all(map(is_finite, values)) and values[0] < values[1]
                        and is_finite(values[1] - values[0])):
                    raise ValidationError(
                        f"latin-hypercube axis {path!r} needs a finite (low, high) range of finite width, "
                        f"got {values!r}"
                    )


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated cell or cycle.

    ``coordinates`` holds the (parameter path, value) pairs that define the
    cell. This class is the one statement of the row schema: every metric
    defaults to NaN, so a row leaves NaN what its stage does not measure (a
    dynamic cycle has no KKT audit), and a failed cell is its identity, NaN
    in every metric and the failure text in ``status``. The run continues
    past failed cells.
    """

    scenario_id: str
    cell_index: int
    coordinates: tuple[tuple[str, object], ...]
    alpha_star: float = math.nan
    q_star: float = math.nan
    expected_profit: float = math.nan
    fill_rate: float = math.nan
    penalty_rate: float = math.nan
    kkt_max_residual: float = math.nan
    std_error: float = math.nan
    status: str = "ok"


_AXIS_FIELDS = {
    "market": frozenset(f.name for f in dataclasses.fields(MarketEconomics)),
    "demand": frozenset(f.name for f in dataclasses.fields(TruncatedNormal)),
    "suppliers": frozenset({"beta_range"}),
}


def _validate_axis(path: str, values: tuple, sampler: str) -> None:
    """Path and value-shape check of one axis; a cell build then meets only domain errors.

    ``market.*`` and ``demand.*`` values are real numbers (in a Latin
    hypercube, the two ends of the range); ``suppliers.beta_range`` values
    are (low, high) pairs of real numbers, which a grid alone can sweep.
    """
    scope, _, field = path.partition(".")
    if field not in _AXIS_FIELDS.get(scope, ()):
        raise ValidationError(f"unsupported parameter path {path!r}")
    if len(values) == 0:
        raise ValidationError(f"axis {path!r} has no values")
    if scope != "suppliers":
        if not all(map(is_real, values)):
            raise ValidationError(f"axis {path!r} values must be real numbers, got {values!r}")
        return
    if sampler == "latin-hypercube":
        raise ValidationError(
            f"latin-hypercube cannot sample {path!r}; sweep its (low, high) pairs on a grid"
        )
    for value in values:
        if not (isinstance(value, Sequence) and len(value) == 2 and all(map(is_real, value))):
            raise ValidationError(f"axis {path!r} values must be (low, high) pairs, got {value!r}")


def _build_cell(
    spec: ScenarioSpec, index: int, coords: tuple
) -> tuple[MarketEconomics, tuple[SupplierProfile, ...], TruncatedNormal]:
    """The (market, suppliers, demand) of one cell, each built once.

    All of the cell's coordinates are collected first, so each model is
    validated once, in its final state, and the order of the axes never
    decides whether a cell builds; a model that no coordinate touches is
    the spec's own object. Axis values reach the models as given, so a
    model's own checks name a value that is no number or exceeds float
    range. A cell that breaks more than one model reports the first error in
    this order: its ``beta_range``, then the market, then the demand; within
    a model, the model's own checks set the order.
    """
    changes = {scope: {} for scope in _AXIS_FIELDS}
    for path, value in coords:
        scope, _, field = path.partition(".")
        changes[scope][field] = value
    suppliers = spec.suppliers
    pair = changes["suppliers"].get("beta_range")
    if pair is not None:
        lo, hi = pair
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValidationError(f"beta_range must satisfy 0 <= low <= high <= 1, got {pair!r}")
        # The cell's supplier stream is made only here, where it is drawn.
        build_rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(_NS_BUILD, index)))
        suppliers = tuple(
            dataclasses.replace(s, beta=float(build_rng.uniform(lo, hi))) for s in suppliers
        )
    market, demand = (
        dataclasses.replace(model, **changes[scope]) if changes[scope] else model
        for scope, model in (("market", spec.market), ("demand", spec.demand))
    )
    return market, suppliers, demand


def _measured(decision: Decision, breakdown: ProfitBreakdown, **extra: float) -> dict[str, float]:
    """A row's metric fields from a decision, its Monte Carlo breakdown and,
    in ``extra``, the metrics of the stages that only some rows run."""
    return dict(
        alpha_star=decision.alpha,
        q_star=decision.total,
        expected_profit=breakdown.expected_profit,
        fill_rate=breakdown.fill_rate_mean,
        penalty_rate=breakdown.penalty_rate,
        std_error=breakdown.std_error,
        **extra,
    )


def _cell_coordinates(spec: ScenarioSpec) -> list[tuple[tuple[str, object], ...]]:
    paths = [path for path, _ in spec.axes]
    if spec.sampler == "latin-hypercube":
        design_rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(_NS_DESIGN, 0))
        )
        rows = latin_hypercube([values for _, values in spec.axes], spec.lhs_samples, design_rng).tolist()
    else:
        rows = itertools.product(*(values for _, values in spec.axes))
    return [tuple(zip(paths, row)) for row in rows]


def run(spec: ScenarioSpec, jobs: int = 1) -> list[ScenarioResult]:
    """Evaluate every cell of a scenario, in deterministic cell order.

    Dynamic specs delegate to ``run_dynamic``. Every cell's model is built,
    the models are solved as one array program, then each optimum is audited
    and evaluated by Monte Carlo on its cell's own stream. A failing cell,
    including one whose KKT audit does not close (SolverCheckError), becomes
    a failed row. ``jobs`` is validated for compatibility but does
    not change how, or where, the cells are computed.
    """
    if not is_int(jobs) or jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs!r}")
    if spec.dynamic is not None:
        return run_dynamic(spec)
    coordinates = _cell_coordinates(spec)
    # One entry per cell, in cell order: its models, or the error that stopped its build.
    cells = []
    for index, coords in enumerate(coordinates):
        try:
            cells.append(_build_cell(spec, index, coords))
        except ProcureKitError as exc:
            cells.append(exc)
    rows = []
    for index, (coords, cell, solved) in enumerate(zip(coordinates, cells, _solve_batch(cells))):
        try:
            if isinstance(solved, ProcureKitError):
                raise solved
            kkt = _checked_kkt(*cell, solved)
            mc_rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(_NS_CELL_MC, index)))
            breakdown = expected_profit_monte_carlo(*cell, solved, spec.replications, mc_rng)
            outcome = _measured(solved, breakdown, kkt_max_residual=kkt.max_residual)
        except ProcureKitError as exc:
            outcome = {"status": f"{type(exc).__name__}: {exc}"}
        rows.append(ScenarioResult(spec.id, index, coords, **outcome))
    return rows


def adaptive_alpha_update(
    alpha: float, observed_penalty: float, learning_rate: float, target_penalty: float
) -> float:
    """Penalty-feedback rule: step by the relative target gap, clamp to [0, 1].

    alpha lies in [0, 1], the penalty rates are finite, and the learning rate
    and target are positive, as in DynamicSpec. The step is in Python floats.
    """
    check_unit_interval("alpha", alpha)
    check_finite("observed_penalty", observed_penalty)
    for name, value in (("learning_rate", learning_rate), ("target_penalty", target_penalty)):
        check_finite(name, value)
        if value <= 0.0:
            raise ValidationError(f"{name} must be positive, got {value!r}")
    rate, target = float(learning_rate), float(target_penalty)
    return min(1.0, max(0.0, float(alpha) + rate * (float(observed_penalty) - target) / target))


def run_dynamic(spec: ScenarioSpec) -> list[ScenarioResult]:
    """Simulate the adaptive cycle loop, one result row per cycle.

    Each cycle re-optimizes the order quantity at the current adoption level
    under that cycle's adoption cost scale, measures the penalty rate on a
    demand draw set shared across cycles (so trajectory differences reflect
    decisions, not resampling noise), then updates the adoption level.
    """
    dyn = spec.dynamic
    if dyn is None:
        raise ValidationError("run_dynamic requires a spec with dynamic settings")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(_NS_DYNAMIC, 0)))
    draws = spec.demand.sample(rng, spec.replications)

    alpha = dyn.alpha_initial
    rows: list[ScenarioResult] = []
    for cycle in range(1, dyn.cycles + 1):
        a3 = dyn.a3_at(cycle)
        market_t = dataclasses.replace(spec.market, a3=a3)
        decision = optimal_quantity_given_alpha(market_t, spec.suppliers, spec.demand, alpha)
        breakdown = breakdown_from_draws(market_t, spec.suppliers, spec.demand, decision, draws)
        coords = (("cycle", cycle), ("market.a3", a3))
        rows.append(ScenarioResult(spec.id, cycle - 1, coords, **_measured(decision, breakdown)))
        alpha = adaptive_alpha_update(
            alpha, breakdown.penalty_rate, dyn.learning_rate, dyn.target_penalty
        )
    return rows


def latin_hypercube(
    ranges: list[tuple[float, float]], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified design: one sample per equal-width stratum per dimension.

    Returns an (n, len(ranges)) array. Strata are permuted independently per
    dimension, with a uniform draw inside each stratum.
    """
    if not is_int(n) or n < 2:
        raise ValidationError(f"latin hypercube needs n >= 2, got {n!r}")
    check_finite("n", n)
    if not ranges:
        raise ValidationError("latin hypercube needs at least one dimension")
    try:
        design = np.empty((n, len(ranges)))
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"latin hypercube n={n} is too large to allocate") from exc
    for j, (lo, hi) in enumerate(ranges):
        # An end that converts to no finite float stays as given, for the message.
        lo, hi = (float(v) if is_finite(v) else v for v in (lo, hi))
        if not (is_finite(lo) and is_finite(hi) and lo < hi and math.isfinite(hi - lo)):
            raise ValidationError(f"dimension {j} needs finite low < high with a finite width, got ({lo}, {hi})")
        strata = rng.permutation(n)
        offsets = rng.random(n)
        design[:, j] = lo + (strata + offsets) / n * (hi - lo)
    return design


def variance_decomposition(samples: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Percentage of response variance attributed to each parameter.

    Fits ordinary least squares on standardized parameters; the contribution
    of parameter j is its squared standardized coefficient, in units of the
    response's standard deviation, normalized to sum to 100 percent.
    """
    x = real_array("samples", samples, (1, 2))
    if x.ndim == 1:
        x = x[:, None]
    y = real_array("responses", responses, (1, 2)).ravel()
    n, k = x.shape
    if n < 10:
        raise ValidationError(f"variance decomposition needs at least 10 samples, got {n}")
    if y.size != n:
        raise ValidationError(f"got {n} samples but {y.size} responses")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("samples and responses must be finite")
    # Values near float range take the std's sum or square to inf or NaN; the check below refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        spread, stds = y.std(), x.std(axis=0)
    if not (math.isfinite(spread) and np.all(np.isfinite(stds))):
        raise ValidationError("the spread of the samples or responses overflows a float")
    if spread == 0.0:
        raise ValidationError("responses do not vary with the parameters")
    if np.any(stds == 0.0):
        constant = int(np.argmax(stds == 0.0))
        raise RankDeficientDesignError(f"parameter column {constant} is constant")
    standardized = (x - x.mean(axis=0)) / stds
    design = np.column_stack([np.ones(n), standardized])
    coefs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k + 1:
        raise RankDeficientDesignError(
            f"design has rank {rank}, need {k + 1}; parameters are collinear"
        )
    weights = (coefs[1:] / spread) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise ValidationError("responses do not vary with the parameters")
    return 100.0 * weights / total


# Each preset's ScenarioSpec fields that differ from the baseline model.
_PRESETS = {
    "s1": dict(axes=(("demand.sigma", (5.0, 8.0, 12.0, 15.0)),)),
    "s2": dict(axes=(("demand.upper", (65.0, 70.0, 75.0, 80.0)),)),
    "s3": dict(
        axes=(
            ("demand.sigma", (5.0, 8.0, 12.0, 15.0)),
            ("demand.upper", (65.0, 70.0, 75.0, 80.0)),
        )
    ),
    "s4": dict(axes=(("suppliers.beta_range", ((0.4, 0.6), (0.3, 0.7), (0.1, 0.9))),)),
    "s5": dict(axes=(("market.a3", (500.0, 1000.0, 2000.0, 3000.0, 4000.0)),)),
    "s6": dict(axes=(("market.a1", (2.0, 3.5, 5.0)), ("market.a3", (500.0, 2000.0, 4000.0)))),
    "s7": dict(axes=(("demand.sigma", (5.0, 8.0, 12.0)), ("market.a3", (500.0, 2000.0, 4000.0)))),
    "s8": dict(axes=(("market.a3", (10_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0)),)),
    "s9": dict(
        axes=(
            ("demand.sigma", (5.0, 15.0)),
            ("demand.upper", (65.0, 80.0)),
            ("market.a3", (500.0, 4000.0)),
        ),
        sampler="latin-hypercube",
        lhs_samples=100,
    ),
    "s10": dict(
        axes=(
            ("demand.sigma", (5.0, 7.5, 10.0, 12.5, 15.0)),
            ("market.a3", (500.0, 1375.0, 2250.0, 3125.0, 4000.0)),
        )
    ),
    "s11": dict(
        demand=dataclasses.replace(BASELINE_DEMAND, sigma=12.0),
        dynamic=DynamicSpec(
            cycles=10,
            a3_initial=3000.0,
            a3_decline=200.0,
            learning_rate=0.05,
            target_penalty=0.05,
            alpha_initial=0.2,
        ),
    ),
}

PRESET_IDS = tuple(_PRESETS)


def preset(
    preset_id: str,
    seed: int = DEFAULT_SEED,
    replications: int = DEFAULT_REPLICATIONS,
) -> ScenarioSpec:
    """Build one of the shipped scenario presets s1 through s11."""
    if preset_id not in PRESET_IDS:
        raise ValidationError(f"unknown preset {preset_id!r}; expected one of {PRESET_IDS}")
    settings = dict(market=BASELINE_MARKET, suppliers=BASELINE_SUPPLIERS, demand=BASELINE_DEMAND)
    settings.update(_PRESETS[preset_id])
    return ScenarioSpec(id=preset_id, seed=seed, replications=replications, **settings)

"""Property test: every Python API call ends in a checked answer or a ProcureKitError.

Each example draws plausible model fields as Python floats and ints and as
numpy float64, float32 and int64 scalars, then replaces up to two of them
with junk: NaN, infinities, integers beyond float range, bools (Python and
numpy), -0.0, subnormals, None and strings. The public constructors and
optimize, adoption_threshold, run, run_dynamic, fit, TruncatedNormal.sample
and latin_hypercube either return a result that passes its own checks (the
KKT audit closes, rows are ok with finite metrics or failed with NaN ones),
or raise a ProcureKitError subclass: never a bare TypeError, ValueError or
OverflowError. fill_rate_distribution, breakdown_from_draws,
critical_fractile, adaptive_alpha_update, the TruncatedNormal methods,
variance_decomposition, render_heatmap_svg and the economics functions
unit_cost, adoption_cost, adoption_cost_slope and composite_beta are held
to the same rule;
breakdown_from_draws also meets draws spoiled by junk, strings, a second
dimension and ragged rows, and fit, variance_decomposition and
render_heatmap_svg ragged nested lists. Each @example pins a branch that the
drawn examples may miss. Sizes stay small: at most 2 axis values, 20
replications, 30 draws, 3 cycles and 14 samples.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from procurekit import errors, optimizer
from procurekit.demand import TruncatedNormal
from procurekit.economics import (
    MarketEconomics, SupplierProfile, adoption_cost, adoption_cost_slope, composite_beta, unit_cost,
)
from procurekit.errors import ProcureKitError
from procurekit.fitting import FAMILIES, fit
from procurekit.heatmap import render_heatmap_svg
from procurekit.optimizer import adoption_threshold, critical_fractile, optimize
from procurekit.profit import Decision, breakdown_from_draws, fill_rate_distribution
from procurekit.scenarios import (
    DynamicSpec, ScenarioResult, ScenarioSpec, adaptive_alpha_update, latin_hypercube, run, run_dynamic,
    variance_decomposition,
)

from helpers import examples

JUNK = st.one_of(
    st.sampled_from(
        [
            math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, np.bool_(True),
            np.float64(math.nan), np.float32(math.inf), -0.0, 5e-324, 1e308, -1e308, None,
        ]
    ),
    st.text(max_size=3),
    st.floats(),
)

# float twice, so that most plausible values are Python floats.
KINDS = (float, float, np.float64, np.float32, int, np.int64)

MARKET = dict(
    price=(100.0, 200.0), salvage=(0.0, 40.0), penalty=(0.0, 80.0),
    a1=(0.0, 10.0), a2=(0.0, 12.0), a3=(0.0, 5000.0), nu=(0.9, 3.0),
)
DEMAND = dict(mu=(20.0, 80.0), sigma=(0.5, 20.0), lower=(-5.0, 40.0), upper=(60.0, 100.0))
SUPPLIER = dict(id=(1.0, 3.0), base_cost=(80.0, 120.0), beta=(0.0, 1.0))
DYNAMIC = dict(
    cycles=(1.0, 3.0), a3_initial=(500.0, 5000.0), a3_decline=(0.0, 500.0),
    learning_rate=(0.01, 0.2), target_penalty=(0.01, 0.2), alpha_initial=(0.0, 1.0),
)
AXIS_PATHS = {"market.a3": MARKET["a3"], "market.nu": MARKET["nu"], "demand.sigma": DEMAND["sigma"]}
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
BASELINE = (
    MarketEconomics(price=150.0, salvage=20.0, penalty=40.0, a1=5.0, a2=8.0, a3=2000.0, nu=1.5),
    (SupplierProfile(id=1, base_cost=100.0, beta=0.2),),
    TruncatedNormal(50.0, 8.0, 30.0, 70.0),
)


@st.composite
def number(draw, low: float, high: float):
    """A plausible value of one of KINDS, or (one time in eight) junk."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JUNK)
    return draw(st.sampled_from(KINDS))(draw(st.floats(low, high)))


@st.composite
def fields(draw, ranges: dict) -> dict:
    """Plausible values for every field, with up to two replaced by junk."""
    values = {name: draw(st.sampled_from(KINDS))(draw(st.floats(*bounds))) for name, bounds in ranges.items()}
    for name in draw(st.lists(st.sampled_from(list(ranges)), max_size=2, unique=True)):
        values[name] = draw(JUNK)
    return values


def built(cls, values: dict):
    """cls(**values), or None when it raises a ProcureKitError; any other error fails the test."""
    try:
        return cls(**values)
    except ProcureKitError:
        return None


@st.composite
def models(draw):
    """A (market, suppliers, demand) triple; None where a constructor refused its fields."""
    market = built(MarketEconomics, draw(fields(MARKET)))
    suppliers = tuple(built(SupplierProfile, draw(fields(SUPPLIER))) for _ in range(draw(st.integers(1, 3))))
    demand = built(TruncatedNormal, draw(fields(DEMAND)))
    return market, suppliers, demand


def valid(model) -> bool:
    market, suppliers, demand = model
    return market is not None and demand is not None and None not in suppliers


def check_optimum(opt, market, demand) -> None:
    decision = opt.decision
    assert 0.0 <= decision.alpha <= 1.0
    assert all(math.isfinite(q) and q >= 0.0 for q in decision.quantities)
    scale = max(market.price + market.penalty, market.a1 * decision.total)
    assert opt.kkt.max_residual <= optimizer._KKT_TOLERANCE * scale
    b = opt.breakdown
    assert math.isfinite(b.expected_profit)
    assert b.expected_profit == (
        b.expected_revenue + b.expected_salvage - b.expected_penalty - b.procurement_cost - b.adoption_cost
    )
    assert math.isfinite(b.fill_rate_mean) or demand.lower <= 0.0


METRICS = [f.name for f in dataclasses.fields(ScenarioResult)][3:-1]
ERROR_NAMES = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, ProcureKitError)}


def check_rows(rows, spec: ScenarioSpec, audited: bool) -> None:
    for row in rows:
        values = {name: getattr(row, name) for name in METRICS}
        if row.status != "ok":
            assert row.status.split(":")[0] in ERROR_NAMES, row.status
            assert all(math.isnan(v) for v in values.values()), row
            continue
        lower = dict(row.coordinates).get("demand.lower", spec.demand.lower)
        for name, value in values.items():
            expected_nan = (name == "fill_rate" and lower <= 0.0) or (name == "kkt_max_residual" and not audited)
            assert math.isnan(value) if expected_nan else math.isfinite(value), (name, row)
        assert 0.0 <= row.alpha_star <= 1.0


@settings(max_examples=examples(40), **SETTINGS)
@given(model=models())
# price * expected sales overflows a float
@example(model=(dataclasses.replace(BASELINE[0], price=1e307), *BASELINE[1:]))
def test_optimize_ends_checked_or_in_a_package_error(model):
    if not valid(model):
        return
    market, suppliers, demand = model
    try:
        opt = optimize(market, suppliers, demand)
    except ProcureKitError:
        return
    check_optimum(opt, market, demand)


@settings(max_examples=examples(15), **SETTINGS)
@given(model=models(), low=number(1.0, 100.0), high=number(1e5, 1e6))
def test_adoption_threshold_ends_in_range_or_in_a_package_error(model, low, high):
    if not valid(model):
        return
    try:
        a3 = adoption_threshold(*model, low, high)
    except ProcureKitError:
        return
    assert low <= a3 <= high


@st.composite
def specs(draw):
    """ScenarioSpec fields: a grid or Latin hypercube over one or two axes of junk-prone numbers."""
    paths = draw(st.lists(st.sampled_from(list(AXIS_PATHS)), min_size=1, max_size=2, unique=True))
    latin = draw(st.booleans())
    size = 2 if latin else draw(st.integers(1, 2))
    axes = tuple((path, tuple(draw(number(*AXIS_PATHS[path])) for _ in range(size))) for path in paths)
    extra = dict(sampler="latin-hypercube", lhs_samples=draw(number(2.0, 4.0))) if latin else {}
    return dict(axes=axes, replications=draw(number(2.0, 20.0)), seed=draw(number(0.0, 9.0)), **extra)


@settings(max_examples=examples(25), **SETTINGS)
@given(model=models(), settings_=specs(), jobs=number(1.0, 2.0))
@example(model=BASELINE, settings_=dict(axes=(("market.a3", (1000.0,)),), replications=2, seed=-1), jobs=1)
def test_run_rows_are_checked_or_the_call_fails_in_a_package_error(model, settings_, jobs):
    if not valid(model):
        return
    market, suppliers, demand = model
    try:
        spec = ScenarioSpec(id="fuzz", market=market, suppliers=suppliers, demand=demand, **settings_)
        rows = run(spec, jobs=jobs)
    except ProcureKitError:
        return
    check_rows(rows, spec, audited=True)


@settings(max_examples=examples(20), **SETTINGS)
@given(model=models(), dynamic=fields(DYNAMIC), replications=number(2.0, 20.0))
def test_run_dynamic_rows_are_checked_or_the_call_fails_in_a_package_error(model, dynamic, replications):
    if not valid(model):
        return
    market, suppliers, demand = model
    try:
        spec = ScenarioSpec(
            id="fuzz", market=market, suppliers=suppliers, demand=demand,
            replications=replications, dynamic=DynamicSpec(**dynamic),
        )
        rows = run_dynamic(spec)
    except ProcureKitError:
        return
    assert len(rows) == spec.dynamic.cycles
    check_rows(rows, spec, audited=False)


# Nested lists whose rows differ in length, which numpy cannot make an array of.
RAGGED = st.lists(st.lists(number(1.0, 60.0), max_size=3), min_size=2, max_size=4).filter(
    lambda rows: len(set(map(len, rows))) > 1
)


@settings(max_examples=examples(15), **SETTINGS)
@given(
    family=st.sampled_from(FAMILIES),
    data=st.lists(number(1.0, 60.0), max_size=12) | RAGGED,
    bounds=st.none() | st.tuples(number(0.0, 1.0), number(60.0, 100.0)),
)
# fixed_bounds that are not a (lower, upper) pair
@example(family="truncated-normal", data=[1.0, 2.0, 3.0, 2.5], bounds=5)
@example(family="truncated-normal", data=[1.0, 2.0, 3.0, 2.5], bounds=(1.0,))
@example(family="truncated-normal", data=[1.0, 2.0, 3.0, 2.5], bounds=(1.0, 2.0, 3.0))
@example(family="pareto", data=[[1.0], [2.0, 3.0]], bounds=None)
@example(family="pareto", data=[1.0, None], bounds=None)
@example(family="truncated-normal", data=[1.0, 2.0, 3.0], bounds=(-1e308, 1e308))
@example(family="pareto", data=[5e-324, 1e308], bounds=None)
@example(family="negative-binomial", data=[1.0, 1e16], bounds=None)
# a negative count beyond int64
@example(family="negative-binomial", data=[-9.223372036854778e18], bounds=None)
# a dispersion far below one float spacing of the largest count
@example(family="negative-binomial", data=[0] * 24 + [2**53], bounds=None)
def test_fit_reports_finite_metrics_or_fails_in_a_package_error(family, data, bounds):
    try:
        report = fit(family, data, bounds)
    except ProcureKitError:
        return
    assert all(math.isfinite(p) for p in report.params)
    assert math.isfinite(report.log_likelihood) and 0.0 <= report.ks_statistic <= 1.0
    assert report.sample_size == len(data)


@settings(max_examples=examples(40), **SETTINGS)
@given(fields_=fields(DEMAND), n=number(0.0, 20.0), seed=st.integers(0, 3))
def test_sample_draws_inside_the_window_or_fails_in_a_package_error(fields_, n, seed):
    try:
        demand = TruncatedNormal(**fields_)
        draws = demand.sample(np.random.default_rng(seed), n)
    except ProcureKitError:
        return
    assert draws.shape == (n,)
    assert np.all((draws >= demand.lower) & (draws <= demand.upper))


@settings(max_examples=examples(40), **SETTINGS)
@given(
    ranges=st.lists(st.tuples(number(-10.0, 0.0), number(0.0, 10.0)), min_size=1, max_size=2),
    n=number(0.0, 6.0),
)
def test_latin_hypercube_stays_in_its_ranges_or_fails_in_a_package_error(ranges, n):
    try:
        design = latin_hypercube(ranges, n, np.random.default_rng(0))
    except ProcureKitError:
        return
    assert design.shape == (n, len(ranges))
    for column, (lo, hi) in zip(design.T, ranges):
        assert np.all((column >= float(lo)) & (column <= float(hi)))


@settings(max_examples=examples(40), **SETTINGS)
@given(fields_=fields(DEMAND), q=number(0.0, 100.0), n=number(10.0, 30.0), seed=st.integers(0, 3))
@example(fields_=dict(mu=50.0, sigma=8.0, lower=30.0, upper=70.0), q=50.0, n=5, seed=0)
def test_fill_rate_distribution_summarizes_fills_or_fails_in_a_package_error(fields_, q, n, seed):
    try:
        demand = TruncatedNormal(**fields_)
        summary = fill_rate_distribution(demand, q, n, np.random.default_rng(seed))
    except ProcureKitError:
        return
    shares = dataclasses.asdict(summary)
    std, cv = shares.pop("std"), shares.pop("cv")
    assert all(0.0 <= v <= 1.0 for v in shares.values())
    assert std >= 0.0 and (math.isfinite(cv) or summary.mean == 0.0)


# How a draw vector is spoiled before breakdown_from_draws sees it.
SPOILERS = {
    "none": lambda draws, junk: draws,
    "junk": lambda draws, junk: [*draws[1:], junk],
    "strings": lambda draws, junk: [str(v) for v in draws],
    "2-D": lambda draws, junk: draws.reshape(1, -1),
    "ragged": lambda draws, junk: [list(draws), [1.0]],
}


@settings(max_examples=examples(40), **SETTINGS)
@given(
    model=models(), alpha=number(0.0, 1.0), total=number(0.0, 100.0), n=st.integers(0, 30),
    spoiler=st.sampled_from(list(SPOILERS)), junk=JUNK,
)
@example(model=BASELINE, alpha=0.1, total=50.0, n=2, spoiler="junk", junk=math.nan)
@example(model=BASELINE, alpha=0.1, total=50.0, n=3, spoiler="ragged", junk=None)
def test_breakdown_from_draws_ends_checked_or_in_a_package_error(model, alpha, total, n, spoiler, junk):
    if not valid(model):
        return
    market, suppliers, demand = model
    try:
        decision = Decision(alpha, (total,) + (0.0,) * (len(suppliers) - 1))
        draws = SPOILERS[spoiler](demand.sample(np.random.default_rng(n), n), junk)
        b = breakdown_from_draws(market, suppliers, demand, decision, draws)
    except ProcureKitError:
        return
    assert b.expected_profit == (
        b.expected_revenue + b.expected_salvage - b.expected_penalty - b.procurement_cost - b.adoption_cost
    )
    if spoiler == "none":
        fills = (b.fill_rate_mean, b.fill_rate_cvar10)
        assert all(0.0 <= v <= 1.0 for v in fills) if demand.lower > 0.0 else all(map(math.isnan, fills))


@settings(max_examples=examples(40), **SETTINGS)
@given(market=fields(MARKET), cost=number(0.0, 200.0))
@example(market=dict(price=1e308, salvage=20.0, penalty=1e308, a1=5.0, a2=8.0, a3=2000.0, nu=1.5), cost=100.0)
# a float32 cost must not take the fractile into float32, where this price overflows
@example(market=dict(price=3.4028235677973366e38, salvage=-0.0, penalty=0.0, a1=0.0, a2=0.0, a3=0.0, nu=2.0),
         cost=np.float32(0.0))
def test_critical_fractile_is_a_service_level_or_fails_in_a_package_error(market, cost):
    try:
        fractile = critical_fractile(MarketEconomics(**market), cost)
    except ProcureKitError:
        return
    assert math.isfinite(fractile) and fractile <= 1.0


@settings(max_examples=examples(40), **SETTINGS)
@given(alpha=number(0.0, 1.0), observed=number(0.0, 0.5), rate=number(0.01, 0.2), target=number(0.01, 0.2))
# a float32 target must not take the step into float32, where 1e308 overflows
@example(alpha=-0.0, observed=1e308, rate=0.125, target=np.float32(0.125))
def test_adaptive_alpha_update_stays_in_the_unit_interval_or_fails_in_a_package_error(alpha, observed, rate, target):
    try:
        updated = adaptive_alpha_update(alpha, observed, rate, target)
    except ProcureKitError:
        return
    assert 0.0 <= updated <= 1.0


# Each TruncatedNormal method with the range of its plausible arguments.
DEMAND_METHODS = {
    "pdf": (0.0, 100.0), "cdf": (0.0, 100.0), "quantile": (0.0, 1.0),
    "expected_excess": (0.0, 100.0), "expected_min": (0.0, 100.0),
}


@settings(max_examples=examples(60), **SETTINGS)
@given(method=st.sampled_from(list(DEMAND_METHODS)), data=st.data())
def test_demand_methods_answer_without_nan_or_refuse_the_argument_by_name(method, data):
    bounds = DEMAND_METHODS[method]
    x = data.draw(number(*bounds) | st.lists(number(*bounds), max_size=3) | RAGGED, label="x")
    demand = BASELINE[2]
    try:
        value = np.asarray(getattr(demand, method)(x))
    except errors.ValidationError as exc:
        assert str(exc).startswith(f"{method} argument must"), str(exc)
        return
    assert not np.isnan(value).any()
    if method == "cdf":
        assert np.all((value >= 0.0) & (value <= 1.0))
    if method == "quantile":
        assert np.all((value >= demand.lower) & (value <= demand.upper))


@settings(max_examples=examples(40), **SETTINGS)
@given(n=st.integers(9, 14), data=st.data())
def test_variance_decomposition_shares_sum_to_100_or_fail_in_a_package_error(n, data):
    row = st.lists(number(0.0, 1.0), min_size=2, max_size=2)
    samples = data.draw(st.lists(row, min_size=n, max_size=n) | RAGGED, label="samples")
    responses = data.draw(st.lists(number(-5.0, 5.0), min_size=n, max_size=n), label="responses")
    try:
        shares = variance_decomposition(samples, responses)
    except ProcureKitError:
        return
    assert np.all(np.isfinite(shares) & (shares >= 0.0))
    assert shares.sum() == pytest.approx(100.0)


@settings(max_examples=examples(40), **SETTINGS)
@given(
    xs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2).map(tuple),
    ys=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2).map(tuple),
    values=st.lists(st.lists(number(0.0, 1.0), min_size=1, max_size=2), min_size=1, max_size=2) | RAGGED,
)
def test_render_heatmap_svg_draws_a_cell_per_value_or_fails_in_a_package_error(xs, ys, values):
    try:
        svg = render_heatmap_svg(xs, ys, values, "x", "y", "t")
    except ProcureKitError:
        return
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count('width="56" height="56"') == len(xs) * len(ys)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fill_rate_distribution(BASELINE[2], math.nan, 100, np.random.default_rng(0)),
         "supply level must be finite, got nan"),
        (lambda: fill_rate_distribution(BASELINE[2], "a", 100, np.random.default_rng(0)),
         "supply level must be a real number, got 'a'"),
        (lambda: fill_rate_distribution(BASELINE[2], 10**400, 100, np.random.default_rng(0)),
         "supply level must be finite, got an integer beyond float range"),
        (lambda: fill_rate_distribution(BASELINE[2], 50.0, 10.5, np.random.default_rng(0)),
         "need an integer count of at least 10 draws to summarize fills, got 10.5"),
        (lambda: breakdown_from_draws(*BASELINE, Decision(0.1, (50.0,)), ["a", "b"]),
         "draws must be a 1-D array of real numbers, got <U1 of shape (2,)"),
        (lambda: breakdown_from_draws(*BASELINE, Decision(0.1, (50.0,)), np.ones((2, 2))),
         "draws must be a 1-D array of real numbers, got float64 of shape (2, 2)"),
        (lambda: breakdown_from_draws(*BASELINE, Decision(0.1, (50.0,)), [50.0, math.nan]),
         "draws must be finite with a positive mean, got mean nan"),
        (lambda: critical_fractile(BASELINE[0], math.nan), "cost must be finite, got nan"),
        (lambda: adaptive_alpha_update(math.nan, 0.1, 0.05, 0.05), "alpha must lie in [0, 1], got nan"),
        (lambda: adaptive_alpha_update(0.2, 0.1, 0.05, 0.0), "target_penalty must be positive, got 0.0"),
        (lambda: BASELINE[2].cdf("a"),
         "cdf argument must be a real number or array of real numbers, got <U1 of shape ()"),
        (lambda: BASELINE[2].pdf(math.nan), "pdf argument must lie in [-inf, inf]"),
        (lambda: BASELINE[2].expected_excess(math.nan), "expected_excess argument must lie in [-inf, inf]"),
        (lambda: BASELINE[2].expected_min(math.nan), "expected_min argument must lie in [-inf, inf]"),
        (lambda: BASELINE[2].cdf([math.nan, 40.0]), "cdf argument must lie in [-inf, inf]"),
        (lambda: variance_decomposition(np.ones((12, 2)), ["a"] * 12),
         "responses must be a 1-D or 2-D array of real numbers, got <U1 of shape (12,)"),
        (lambda: variance_decomposition([[1, 2], [3]], list(range(2))),
         "samples must be a 1-D or 2-D array of real numbers"),
        (lambda: render_heatmap_svg((1,), (2,), [["a"]], "x", "y", "t"),
         "values must be a 2-D array of real numbers, got <U1 of shape (1, 1)"),
        (lambda: unit_cost(math.nan, 0.5, 0.5, 5.0, 8.0), "base_cost must be finite, got nan"),
        (lambda: unit_cost("100", 0.5, 0.5, 5.0, 8.0), "base_cost must be a real number, got '100'"),
        (lambda: unit_cost(10**400, 0.5, 0.5, 5.0, 8.0),
         "base_cost must be finite, got an integer beyond float range"),
        (lambda: unit_cost(100.0, 0.5, 0.5, 5.0, math.inf), "a2 must be finite, got inf"),
        (lambda: adoption_cost(0.5, math.nan, 1.5), "a3 must be finite, got nan"),
        (lambda: adoption_cost(0.0, 1.0, -1.0), "nu must exceed 1, got -1.0"),
        (lambda: adoption_cost_slope(0.5, 10**400, 1.5), "a3 must be finite, got an integer beyond float range"),
        (lambda: adoption_cost_slope(0.5, 2000.0, 1.0), "nu must exceed 1, got 1.0"),
        (lambda: composite_beta(None), "components must be a 1-D array of real numbers, got object of shape ()"),
    ],
    ids=[
        "fill-nan-q", "fill-string-q", "fill-huge-q", "fill-float-n", "draws-strings", "draws-2d", "draws-nan",
        "fractile-nan-cost", "update-nan-alpha", "update-zero-target", "cdf-string", "pdf-nan", "excess-nan",
        "min-nan", "cdf-array-nan", "decomposition-string-responses", "decomposition-ragged-samples",
        "heatmap-string-values", "unit-cost-nan-base", "unit-cost-string-base", "unit-cost-huge-base",
        "unit-cost-inf-a2", "adoption-nan-a3", "adoption-negative-nu", "slope-huge-a3", "slope-nu-one",
        "composite-none",
    ],
)
def test_public_functions_refuse_bad_arguments_by_name(call, message):
    with pytest.raises(errors.ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: TruncatedNormal("50", 8.0, 30.0, 70.0), "mu"),
        (lambda: TruncatedNormal(50.0, True, 30.0, 70.0), "sigma"),
        (lambda: MarketEconomics(price=True, salvage=20.0, penalty=40.0, a1=5.0, a2=8.0, a3=2000.0, nu=1.5), "price"),
        (lambda: SupplierProfile(id="a", base_cost=100.0, beta=0.2), "id"),
        (lambda: SupplierProfile(id=1, base_cost=100.0, beta=np.bool_(True)), "beta"),
        (
            lambda: DynamicSpec(
                cycles=np.int64(2), a3_initial=3000.0, a3_decline=200.0,
                learning_rate=0.05, target_penalty=0.05, alpha_initial="0.2",
            ),
            "alpha_initial",
        ),
    ],
    ids=["string", "bool", "bool-price", "string-id", "numpy-bool", "string-alpha-initial"],
)
def test_constructors_refuse_non_numbers_by_field(call, field):
    with pytest.raises(ProcureKitError, match=f"^{field} must"):
        call()

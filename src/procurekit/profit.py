"""Expected-profit evaluation for a joint (alpha, order vector) decision.

Two interchangeable routes are provided. The closed form uses the demand
model's partial expectations and is exact up to quadrature on the fill-rate
integrals; its sales terms make up the optimizer's array envelope. The Monte
Carlo route estimates the same breakdown from simulated demand and also
reports a standard error, which is what scenario experiments record.
Evaluating several decisions against generators seeded identically yields
common random numbers, so decision differences are estimated without
cross-decision noise.

Expected profit is written once, in _profit: the optimizer's envelope on the
alpha grid, expected_profit_value at the slope root and both breakdowns sum
their five money terms through it, so the grid's profit and the root's
profit round alike. Every ProfitBreakdown is built by _breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import _GL_NODES, _GL_WEIGHTS, TruncatedNormal
from .economics import MarketEconomics, SupplierProfile
from .errors import (
    DegenerateEconomicsError, ValidationError, check_finite, check_unit_interval, is_finite, is_int, real_array,
    store_floats,
)

__all__ = [
    "Decision",
    "ProfitBreakdown",
    "FillRateSummary",
    "expected_profit_closed_form",
    "expected_profit_value",
    "expected_sales_terms",
    "expected_profit_monte_carlo",
    "breakdown_from_draws",
    "fill_rate_distribution",
]


@dataclass(frozen=True)
class Decision:
    """Contract-automation intensity plus per-supplier order quantities."""

    alpha: float
    quantities: tuple[float, ...]

    def __post_init__(self) -> None:
        check_unit_interval("alpha", self.alpha)
        if not self.quantities:
            raise ValidationError("decision needs at least one order quantity")
        for i, q in enumerate(self.quantities):
            if not (is_finite(q) and q >= 0.0):
                raise ValidationError(f"quantities[{i}] must be nonnegative, got {q!r}")
        store_floats(self, ("alpha",))
        object.__setattr__(self, "quantities", tuple(map(float, self.quantities)))

    @property
    def total(self) -> float:
        return float(sum(self.quantities))


@dataclass(frozen=True)
class ProfitBreakdown:
    """Expected profit and its components, all in USD per cycle.

    expected_profit always equals expected_revenue + expected_salvage
    - expected_penalty - procurement_cost - adoption_cost, exactly as floats,
    and is finite, as are penalty_rate and std_error.
    std_error is zero for closed-form evaluations. Fill metrics are NaN when
    the demand support touches zero (fill = served/demand is undefined there).
    """

    expected_revenue: float
    expected_salvage: float
    expected_penalty: float
    procurement_cost: float
    adoption_cost: float
    expected_profit: float
    fill_rate_mean: float
    penalty_rate: float
    fill_rate_cvar10: float
    std_error: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.expected_profit, self.penalty_rate, self.std_error))):
            raise DegenerateEconomicsError(f"the money terms overflow a float: {self!r}")


@dataclass(frozen=True)
class FillRateSummary:
    """Distributional summary of per-cycle fill rate min(Q, D) / D."""

    mean: float
    std: float
    cv: float
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float
    prob_fill_ge_090: float
    cvar10: float


def _check_decision(suppliers: Sequence[SupplierProfile], decision: Decision) -> None:
    if len(decision.quantities) != len(suppliers):
        raise ValidationError(
            f"decision carries {len(decision.quantities)} quantities for "
            f"{len(suppliers)} suppliers"
        )


def _procurement_cost(
    market: MarketEconomics, suppliers: Sequence[SupplierProfile], decision: Decision
) -> float:
    return float(
        sum(
            market.unit_cost(sup, decision.alpha) * q
            for sup, q in zip(suppliers, decision.quantities)
            if q > 0.0
        )
    )


def _check_demand_mean(demand: TruncatedNormal) -> None:
    # The penalty rate is expected shortfall per unit of expected demand.
    if not demand.mean > 0.0:
        raise ValidationError(f"penalty rate needs a positive mean demand, got mean {demand.mean!r}")


def _mean(values: np.ndarray) -> float:
    """values.mean() of a 1-D float array, bit for bit: the same pairwise sum
    over the same count, without the Python layer numpy wraps it in."""
    return float(np.add.reduce(values) / values.size)


def _sample_std(values: np.ndarray) -> float:
    """values.std(ddof=1) of a 1-D float array, bit for bit: numpy's two-pass
    variance spelled out."""
    deviations = values - np.add.reduce(values) / values.size
    deviations *= deviations
    return math.sqrt(float(np.add.reduce(deviations) / (values.size - 1)))


def _mean_inverse(demand: TruncatedNormal, lo: float, hi: float) -> float:
    """integral of f(x)/x over [lo, hi], a part of the demand interval; requires lo > 0."""
    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid + half * _GL_NODES
    # The nodes lie inside [lo, hi], so the density needs no bounds mask.
    return float(half * np.add.reduce(_GL_WEIGHTS * demand.params.density(x) / x))


def _closed_form_fills(demand: TruncatedNormal, q: float) -> tuple[float, float]:
    """Mean fill rate and the mean of its worst decile at supply level q.

    Fill is nonincreasing in demand, so the worst decile of fills is exactly
    the top decile of demand. Above the 90% quantile both integrate f(x)/x
    over [q, upper], which is computed once.

    Every fill min(q, x) / x lies in [q / upper, 1], and both means are
    clamped to that range. Only a window a few floats wide reaches the
    clamp: there the quadrature's mass and the quantile round by more than
    the window's width, so that the top decile can lose all its width.
    """
    if q >= demand.upper:
        return 1.0, 1.0
    cdf = demand.cdf(q)
    q90 = demand.quantile(0.9)
    tail = _mean_inverse(demand, max(q, demand.lower), demand.upper)
    fill_mean = cdf + q * tail
    if q > q90:
        cvar10 = 10.0 * (cdf - 0.9 + q * tail)
    else:
        cvar10 = 10.0 * q * _mean_inverse(demand, q90, demand.upper)
    lowest = q / demand.upper
    return min(max(fill_mean, lowest), 1.0), min(max(cvar10, lowest), 1.0)


def expected_sales_terms(market: MarketEconomics, demand: TruncatedNormal, q_total):
    """Expected revenue, salvage, penalty and shortfall E[(D - q)^+] of a total
    order (scalar or array); procurement and adoption costs are the caller's.

    The optimizer's batches pass (cells, 1) columns of prices and demand
    parameters (a TruncatedNormalParams) in place of market and demand."""
    excess = demand.expected_excess(q_total)
    served = demand.mean - excess
    return market.price * served, market.salvage * (q_total - served), market.penalty * excess, excess


def _profit(revenue, salvage, penalty, procurement, adoption):
    """The profit identity, for floats and arrays alike; every expected profit
    in the package is this sum in this order."""
    return revenue + salvage - penalty - procurement - adoption


def _money_terms(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
) -> tuple[tuple[float, float, float, float, float], float]:
    """The five expected money terms in _profit's order (revenue, salvage,
    penalty, procurement, adoption), and the expected shortfall E[(D - Q)^+]."""
    revenue, salvage, penalty, excess = expected_sales_terms(market, demand, decision.total)
    procurement = _procurement_cost(market, suppliers, decision)
    return (revenue, salvage, penalty, procurement, market.adoption_cost(decision.alpha)), excess


def _breakdown(demand: TruncatedNormal, terms, penalty_rate: float, std_error: float, fills) -> ProfitBreakdown:
    """The one ProfitBreakdown assembly from the five money terms in _profit's
    order. ``fills()`` gives (fill mean, fill CVaR10) and is called only when
    the demand support lies above zero; where it touches zero, fill =
    served/demand is undefined and both are NaN."""
    fill_mean, cvar10 = fills() if demand.lower > 0.0 else (math.nan, math.nan)
    # Positional, in ProfitBreakdown's field order.
    return ProfitBreakdown(*terms, _profit(*terms), fill_mean, penalty_rate, cvar10, std_error)


def expected_profit_value(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
) -> float:
    """Closed-form expected profit alone, skipping the fill-rate quadrature.

    Same number as expected_profit_closed_form(...).expected_profit; the
    optimizer calls it once per solved cell, at the slope root, to choose
    between the root and the grid point, whose profit the batch already holds.
    """
    _check_decision(suppliers, decision)
    terms, _ = _money_terms(market, suppliers, demand, decision)
    return _profit(*terms)


def expected_profit_closed_form(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
) -> ProfitBreakdown:
    """Exact expected-profit breakdown via partial expectations."""
    _check_decision(suppliers, decision)
    _check_demand_mean(demand)
    terms, excess = _money_terms(market, suppliers, demand, decision)
    return _breakdown(demand, terms, excess / demand.mean, 0.0, lambda: _closed_form_fills(demand, decision.total))


def _fill_mean_and_cvar10(fills: np.ndarray) -> tuple[float, float]:
    """Mean of simulated fills and the mean of the lowest max(1, n // 10) of
    them; partitions ``fills`` in place."""
    fill_mean = _mean(fills)
    k = max(1, fills.size // 10)
    fills.partition(k - 1)
    return fill_mean, _mean(fills[:k])


def breakdown_from_draws(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
    draws: np.ndarray,
) -> ProfitBreakdown:
    """Monte Carlo breakdown from an existing demand draw vector.

    Passing the same draws to several decisions gives common random numbers:
    the sampling noise cancels out of decision-to-decision differences.
    Means and the sample std reduce with np.add.reduce: bit for bit what
    .mean() and .std(ddof=1) return, without their Python layer, a fixed
    cost per call close to that of the sum itself at a cell's 5,000 draws.
    The draws must be a 1-D array of real numbers with a finite, positive
    mean.
    """
    _check_decision(suppliers, decision)
    _check_demand_mean(demand)
    draws = real_array("draws", draws, (1,))
    n = draws.size
    if n < 2:
        raise ValidationError(f"need at least 2 draws for a Monte Carlo estimate, got {n}")
    draws_mean = _mean(draws)
    # Also refuses NaN and infinite draws; the penalty rate divides by this mean.
    if not 0.0 < draws_mean < math.inf:
        raise ValidationError(f"draws must be finite with a positive mean, got mean {draws_mean!r}")

    q_total = decision.total
    served = np.minimum(q_total, draws)
    leftover = q_total - served
    shortfall = draws - served

    procurement = _procurement_cost(market, suppliers, decision)
    adoption = market.adoption_cost(decision.alpha)

    shortfall_mean = _mean(shortfall)
    terms = (
        market.price * _mean(served), market.salvage * _mean(leftover), market.penalty * shortfall_mean,
        procurement, adoption,
    )

    # Money terms near float range overflow the per-draw profits; ProfitBreakdown refuses their std_error.
    with np.errstate(over="ignore", invalid="ignore"):
        per_rep = market.price * served
        per_rep += market.salvage * leftover
        per_rep -= market.penalty * shortfall
        per_rep -= procurement + adoption
        std_error = _sample_std(per_rep) / math.sqrt(n)
    return _breakdown(
        demand, terms, shortfall_mean / draws_mean, std_error, lambda: _fill_mean_and_cvar10(served / draws)
    )


def expected_profit_monte_carlo(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
    n: int,
    rng: np.random.Generator,
) -> ProfitBreakdown:
    """Monte Carlo breakdown from n fresh inverse-CDF draws."""
    return breakdown_from_draws(market, suppliers, demand, decision, demand.sample(rng, n))


def fill_rate_distribution(
    demand: TruncatedNormal, q: float, n: int, rng: np.random.Generator
) -> FillRateSummary:
    """Simulated distribution of the fill rate at supply level q.

    Requires a strictly positive demand support. Percentiles use linear
    interpolation; cvar10 is the mean of the lowest floor(n/10) fills.
    """
    if demand.lower <= 0.0:
        raise ValidationError("fill rate needs strictly positive demand support")
    check_finite("supply level", q)
    if q < 0.0:
        raise ValidationError(f"supply level must be nonnegative, got {q!r}")
    if not (is_int(n) and n >= 10):
        raise ValidationError(f"need an integer count of at least 10 draws to summarize fills, got {n!r}")

    draws = demand.sample(rng, n)
    fills = np.minimum(q, draws) / draws
    std = _sample_std(fills)
    p10, p25, p50, p75, p90 = (float(v) for v in np.percentile(fills, [10, 25, 50, 75, 90]))
    prob_fill_ge_090 = float((fills >= 0.9).mean())
    mean, cvar10 = _fill_mean_and_cvar10(fills)
    return FillRateSummary(
        mean=mean,
        std=std,
        cv=std / mean if mean else math.inf,
        p10=p10,
        p25=p25,
        p50=p50,
        p75=p75,
        p90=p90,
        prob_fill_ge_090=prob_fill_ge_090,
        cvar10=cvar10,
    )

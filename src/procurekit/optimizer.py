"""Joint optimization of adoption intensity and order quantities.

The problem separates cleanly. Given alpha, every supplier's unit cost is
fixed and the order side is a classic newsvendor: put everything on the
cheapest supplier and order up to the critical fractile
(price + penalty - cost) / (price + penalty - salvage). Since a1 * alpha
lowers every cost by the same amount, the cheapest supplier does not depend
on alpha, and the outer problem is one curve in alpha. It is evaluated on a
grid as one array program, and the grid argmax is then polished by a root-find
on the closed-form envelope derivative a1 * Q*(alpha) - adoption_cost_slope(alpha).

KKT residuals are computed from closed-form probabilities and reported with
the multipliers, so a caller can audit any decision, optimal or not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demand import TruncatedNormal
from .economics import MarketEconomics, SupplierProfile, cheapest_supplier
from .errors import DegenerateEconomicsError, ThresholdNotFoundError, ValidationError
from .profit import (
    Decision, ProfitBreakdown, expected_profit_closed_form, expected_profit_value, expected_sales_terms
)

__all__ = [
    "KKTReport",
    "Optimum",
    "critical_fractile",
    "optimal_quantity_given_alpha",
    "optimize",
    "kkt_residuals",
    "adoption_threshold",
]

_ACTIVE_TOL = 1e-9
# Multisection of the envelope slope: 32 cells per round; 2**-1074 is reached
# from a bracket of width 1 within 215 rounds.
_SECTIONS = 32
_MAX_ROUNDS = 215


@dataclass(frozen=True)
class KKTReport:
    """First-order optimality residuals at a decision.

    stationarity_q[i] is the gradient of expected profit in q_i plus the
    nonnegativity multiplier lambda_i; stationarity_alpha likewise includes
    the bound multipliers on alpha. All residuals vanish (to tolerance) at an
    interior optimum. complementary_slackness is the largest multiplier *
    slack product.
    """

    stationarity_q: tuple[float, ...]
    stationarity_alpha: float
    multipliers_q: tuple[float, ...]
    multiplier_alpha_lower: float
    multiplier_alpha_upper: float
    complementary_slackness: float
    max_residual: float


@dataclass(frozen=True)
class Optimum:
    """Solver output: the decision, its closed-form breakdown, KKT audit."""

    decision: Decision
    breakdown: ProfitBreakdown
    kkt: KKTReport

    @property
    def alpha_star(self) -> float:
        return self.decision.alpha

    @property
    def q_star(self) -> float:
        return self.decision.total


def critical_fractile(market: MarketEconomics, cost: float) -> float:
    """Service-level target (p + r - c) / (p + r - s) for unit cost c.

    Raises DegenerateEconomicsError when cost < salvage: every unit beyond
    the demand cap would then earn salvage - cost > 0, so expected profit is
    unbounded and no finite order is optimal.
    """
    if cost < market.salvage:
        raise DegenerateEconomicsError(
            f"unit cost {cost!r} below salvage {market.salvage!r}: "
            "profit is unbounded in the order quantity"
        )
    return (market.price + market.penalty - cost) / (market.price + market.penalty - market.salvage)


def optimal_quantity_given_alpha(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    alpha: float,
) -> Decision:
    """Best order vector for a fixed alpha.

    All volume goes to the cheapest supplier (ties to the lowest id); the
    total is the demand quantile at the critical fractile, clamped to the
    demand support. A fractile <= 0 (cost at or above price + penalty) pins
    the order at the lower support edge.
    """
    idx, cost = cheapest_supplier(market, suppliers, alpha)
    fractile = critical_fractile(market, cost)
    q_total = demand.quantile(min(max(fractile, 0.0), 1.0))
    quantities = [0.0] * len(suppliers)
    quantities[idx] = q_total
    return Decision(alpha=alpha, quantities=tuple(quantities))


def _slope_root(slope: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Root of the envelope slope inside [lo, hi], or the binding endpoint.

    Multisection: each round evaluates the slope at _SECTIONS + 1 evenly
    spaced points and keeps the first cell where it turns nonpositive, so the
    bracket shrinks 32-fold per round until its ends are adjacent floats.
    """
    xs = np.linspace(lo, hi, _SECTIONS + 1)
    s = slope(xs)
    if s[0] <= 0.0:
        # Slope already nonpositive at the left edge: profit falls on [lo, hi].
        return lo
    if s[-1] >= 0.0:
        return hi
    for _ in range(_MAX_ROUNDS):
        k = 1 + int(np.argmax(~(s[1:] > 0.0)))
        lo, hi = float(xs[k - 1]), float(xs[k])
        if np.nextafter(lo, hi) >= hi:
            break
        xs = np.linspace(lo, hi, _SECTIONS + 1)
        s = slope(xs)
    return 0.5 * (lo + hi)


def optimize(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    grid_step: float = 0.01,
    refine: bool = True,
) -> Optimum:
    """Maximize expected profit over alpha in [0, 1] and the order vector.

    The whole alpha grid at grid_step is evaluated as one array program and
    its argmax taken. When refine is set, the envelope slope
    a1 * Q*(alpha) - adoption_cost_slope(alpha) is then root-found within one
    grid step of that argmax, and the root is kept unless the grid point
    earns strictly more. The returned alpha is stored at full precision;
    display layers round it.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid_step must lie in (0, 0.5], got {grid_step!r}")

    steps = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, steps + 1) if abs(steps * grid_step - 1.0) < 1e-12 else np.append(
        np.arange(0.0, 1.0, grid_step), 1.0
    )
    # a1 * alpha lowers every cost alike, so the cheapest supplier at alpha = 0
    # stays cheapest on the whole grid.
    idx, _ = cheapest_supplier(market, suppliers, 0.0)
    winner = suppliers[idx]
    margin = market.price + market.penalty

    def cost_and_order(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cost = winner.base_cost - market.a1 * alphas - market.a2 * winner.beta
        fractile = (margin - cost) / (margin - market.salvage)
        return cost, demand.quantile(np.clip(fractile, 0.0, 1.0))

    cost, q = cost_and_order(grid)
    bad = (cost <= 0.0) | (cost < market.salvage) | ~(q >= 0.0)
    if bad.any():
        # Raise the error the scalar inner solve gives at the first bad alpha.
        optimal_quantity_given_alpha(market, suppliers, demand, float(grid[int(np.argmax(bad))]))
    revenue, salvage, penalty, _ = expected_sales_terms(market, demand, q)
    values = revenue + salvage - penalty - cost * q - market.a3 * grid**market.nu
    alpha_best = float(grid[int(np.argmax(values))])
    decision = optimal_quantity_given_alpha(market, suppliers, demand, alpha_best)

    if refine:

        def slope(alphas: np.ndarray) -> np.ndarray:
            return market.a1 * cost_and_order(alphas)[1] - market.a3 * market.nu * alphas ** (market.nu - 1.0)

        root = _slope_root(slope, max(0.0, alpha_best - grid_step), min(1.0, alpha_best + grid_step))
        at_root = optimal_quantity_given_alpha(market, suppliers, demand, root)
        # On a tie the root wins: it is the point whose KKT audit closes.
        if expected_profit_value(market, suppliers, demand, at_root) >= expected_profit_value(
            market, suppliers, demand, decision
        ):
            decision = at_root

    return Optimum(
        decision=decision,
        breakdown=expected_profit_closed_form(market, suppliers, demand, decision),
        kkt=kkt_residuals(market, suppliers, demand, decision),
    )


def kkt_residuals(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    decision: Decision,
) -> KKTReport:
    """First-order residuals of any decision, from closed-form probabilities.

    The marginal value of one more unit is p*P(D >= Q) + s*P(D < Q)
    + r*P(D > Q); each supplier's gradient is that minus its unit cost. The
    alpha gradient is a1*Q - adoption_cost_slope(alpha). Multipliers for the
    active bounds (q_i = 0, alpha = 0 or 1) are chosen as the smallest
    nonnegative values closing the residuals, so complementary slackness is
    honest rather than assumed.
    """
    if len(decision.quantities) != len(suppliers):
        raise ValidationError(
            f"decision carries {len(decision.quantities)} quantities for "
            f"{len(suppliers)} suppliers"
        )
    q_total = decision.total
    cdf = demand.cdf(q_total)
    marginal_value = (market.price + market.penalty) * (1.0 - cdf) + market.salvage * cdf

    residuals_q = []
    multipliers_q = []
    slack_products = []
    for sup, q in zip(suppliers, decision.quantities):
        grad = marginal_value - market.unit_cost(sup, decision.alpha)
        if q > _ACTIVE_TOL:
            lam = 0.0
            residuals_q.append(grad)
        else:
            lam = max(0.0, -grad)
            residuals_q.append(grad + lam)
        multipliers_q.append(lam)
        slack_products.append(lam * q)

    slope = market.a1 * q_total - market.adoption_cost_slope(decision.alpha)
    gamma_lower = max(0.0, -slope) if decision.alpha <= _ACTIVE_TOL else 0.0
    gamma_upper = max(0.0, slope) if decision.alpha >= 1.0 - _ACTIVE_TOL else 0.0
    residual_alpha = slope + gamma_lower - gamma_upper
    slack_products.append(gamma_lower * decision.alpha)
    slack_products.append(gamma_upper * (1.0 - decision.alpha))

    return KKTReport(
        stationarity_q=tuple(residuals_q),
        stationarity_alpha=residual_alpha,
        multipliers_q=tuple(multipliers_q),
        multiplier_alpha_lower=gamma_lower,
        multiplier_alpha_upper=gamma_upper,
        complementary_slackness=max(abs(p) for p in slack_products),
        max_residual=max(abs(residual_alpha), max(abs(r) for r in residuals_q)),
    )


def adoption_threshold(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    a3_low: float,
    a3_high: float,
    grid_step: float = 0.01,
    resolution: float = 1.0,
) -> float:
    """Smallest a3 in [a3_low, a3_high] at which alpha* drops below
    grid_step / 2, i.e. displays as 0.00 at the grid resolution.

    alpha* is nonincreasing in a3, so bisection applies. The result is exact
    to `resolution` (default 1 USD). Raises ThresholdNotFoundError when even
    a3_high leaves alpha* at or above the cutoff.
    """
    if not 0.0 < a3_low < a3_high:
        raise ValidationError(
            f"need 0 < a3_low < a3_high, got [{a3_low!r}, {a3_high!r}]"
        )
    if resolution <= 0.0:
        raise ValidationError(f"resolution must be positive, got {resolution!r}")
    cutoff = grid_step / 2.0

    def reported_zero(a3: float) -> bool:
        probe = dataclasses.replace(market, a3=a3)
        return optimize(probe, suppliers, demand, grid_step=grid_step).alpha_star < cutoff

    if not reported_zero(a3_high):
        raise ThresholdNotFoundError(
            f"alpha* still at or above {cutoff} at a3={a3_high}; widen the range"
        )
    if reported_zero(a3_low):
        return a3_low
    lo, hi = a3_low, a3_high
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if reported_zero(mid):
            hi = mid
        else:
            lo = mid
    return hi

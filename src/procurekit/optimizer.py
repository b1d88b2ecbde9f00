"""Joint optimization of adoption intensity and order quantities.

The problem separates cleanly. Given alpha, every supplier's unit cost is
fixed and the order side is a classic newsvendor: put everything on the
cheapest supplier and order up to the critical fractile
(price + penalty - cost) / (price + penalty - salvage). Since a1 * alpha
lowers every cost by the same amount, the cheapest supplier does not depend
on alpha, and the outer problem is one curve in alpha. It is evaluated on the
fixed grid 0, 0.01, ..., 1 as one array program, and the grid argmax is then
polished by a root-find on the closed-form envelope derivative
a1 * Q*(alpha) - adoption_cost_slope(alpha). Many problems (the cells of a
scenario) share that array program; optimize is the same program on a batch
of one. Since Q*(alpha) does not involve a3, the adoption threshold is a
closed form in Q* at the display cutoff.

KKT residuals are computed from closed-form probabilities and reported with
the multipliers, so a caller can audit any decision, optimal or not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import TruncatedNormal, TruncatedNormalParams
from .economics import MarketEconomics, SupplierProfile, cheapest_supplier
from .errors import DegenerateEconomicsError, ProcureKitError, ThresholdNotFoundError, ValidationError
from .profit import (
    Decision, ProfitBreakdown, _check_decision, expected_profit_closed_form, expected_profit_value,
    expected_sales_terms,
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
# The alpha grid of the envelope argmax; linspace keeps 1.0 an exact endpoint.
_GRID_STEP = 0.01
_GRID = np.linspace(0.0, 1.0, 101)
# Multisection of the envelope slope: 32 cells per round; 2**-1074 is reached
# from a bracket of width 1 within 215 rounds.
_SECTIONS = 32
_MAX_ROUNDS = 215
# Where a round's points sit in its bracket, as fractions of the bracket width.
_OFFSETS = np.arange(_SECTIONS + 1) / _SECTIONS


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


def _power(base: np.ndarray, exponent: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """base ** exponent at the given result shape, rounded the same way for
    every batch shape.

    For a broadcast exponent of 0.5 or 2 numpy takes sqrt or square, which
    can round differently from pow; spelled out to the full shape, the
    exponent keeps a cell's value independent of the cells beside it.
    """
    spelled = np.empty(shape)
    spelled[...] = exponent
    return np.power(base, spelled)


class _Envelope:
    """Profit envelope over alpha of many cells, with constants as (cells, 1) columns.

    A cell orders from its cheapest supplier at alpha = 0, which stays
    cheapest for every alpha. All arithmetic is elementwise, so a cell's
    numbers do not depend on which cells share the batch.
    """

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        columns = table.T[:, :, None]
        self.base_cost, self.a1, self.a2_beta, self.price, self.salvage, self.penalty, self.a3, self.nu = columns[:8]
        self.demand = TruncatedNormalParams(*columns[8:])
        self.margin = self.price + self.penalty
        self.spread = self.margin - self.salvage
        self.a3_nu, self.nu_less_one = self.a3 * self.nu, self.nu - 1.0

    def take(self, rows) -> _Envelope:
        return _Envelope(self.table[rows])

    def cost_and_order(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cost = self.base_cost - self.a1 * alphas - self.a2_beta
        fractile = (self.margin - cost) / self.spread
        return cost, self.demand.quantile(np.minimum(np.maximum(fractile, 0.0), 1.0))

    def profit(self, alphas: np.ndarray, cost: np.ndarray, q: np.ndarray) -> np.ndarray:
        revenue, salvage, penalty, _ = expected_sales_terms(self, self.demand, q)
        return revenue + salvage - penalty - cost * q - self.a3 * _power(alphas, self.nu, cost.shape)

    def slope(self, alphas: np.ndarray) -> np.ndarray:
        """a1 * Q*(alpha) - adoption_cost_slope(alpha)."""
        return self.a1 * self.cost_and_order(alphas)[1] - self.a3_nu * _power(alphas, self.nu_less_one, alphas.shape)


def _slope_roots(env: _Envelope, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of each cell's envelope slope inside [lo, hi], or the binding endpoint.

    Multisection in lock-step: each round evaluates the slope of every open
    cell at _SECTIONS + 1 evenly spaced points and keeps the first section
    where it turns nonpositive, so each bracket shrinks 32-fold per round. A
    cell drops out once its bracket ends are adjacent floats.
    """

    def points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        xs = lo[:, None] + (hi - lo)[:, None] * _OFFSETS
        xs[:, -1] = hi
        return xs

    s = env.slope(xs := points(lo, hi))
    # A slope nonpositive at the left edge means profit falls on the bracket;
    # one still nonnegative at the right edge means that edge binds.
    roots = np.where(s[:, 0] <= 0.0, lo, hi)
    active = np.flatnonzero(~(s[:, 0] <= 0.0) & ~(s[:, -1] >= 0.0))
    if active.size < roots.size:
        xs, s, env = xs[active], s[active], env.take(active)
    starts = np.arange(0, xs.size, _SECTIONS + 1)
    for _ in range(_MAX_ROUNDS):
        if not active.size:
            return roots
        # Flat index into xs of each bracket's new left end: the point before
        # the first section end where the slope is not positive.
        left = starts + (s[:, 1:] > 0.0).argmin(axis=1)
        flat = xs.ravel()
        lo, hi = flat[left], flat[left + 1]
        closed = np.nextafter(lo, hi) >= hi
        if closed.any():
            roots[active[closed]] = 0.5 * (lo[closed] + hi[closed])
            still = ~closed
            active, lo, hi, env, starts = active[still], lo[still], hi[still], env.take(still), starts[: still.sum()]
            if not active.size:
                return roots
        s = env.slope(xs := points(lo, hi))
    roots[active] = 0.5 * (lo + hi)
    return roots


def _decide(market, suppliers, demand, alpha_grid: float, alpha_root: float) -> Decision:
    """The order at the slope root, unless the grid point earns strictly more."""
    at_grid = optimal_quantity_given_alpha(market, suppliers, demand, alpha_grid)
    at_root = optimal_quantity_given_alpha(market, suppliers, demand, alpha_root)
    # On a tie the root wins: it is the point whose KKT audit closes.
    root_wins = expected_profit_value(market, suppliers, demand, at_root) >= expected_profit_value(
        market, suppliers, demand, at_grid
    )
    return at_root if root_wins else at_grid


def _solve_batch(
    cells: Sequence[tuple[MarketEconomics, Sequence[SupplierProfile], TruncatedNormal]],
) -> list[Decision | ProcureKitError]:
    """Optimal decision of each (market, suppliers, demand) cell, or its error.

    The cells share one array program: every cell's envelope is evaluated on
    the fixed alpha grid in one pass, then their slopes are root-found in
    lock-step within one grid step of each grid argmax. A cell whose grid
    meets a cost <= 0 or below salvage, or a negative order, gets the error
    the scalar inner solve raises at the first such grid alpha. A cell's
    result does not depend on the other cells.
    """
    results: list = [None] * len(cells)
    rows, live = [], []
    for i, (market, suppliers, demand) in enumerate(cells):
        try:
            # a1 * alpha lowers every cost alike, so the cheapest supplier at
            # alpha = 0 stays cheapest on the whole grid.
            winner = suppliers[cheapest_supplier(market, suppliers, 0.0)[0]]
        except ProcureKitError as exc:
            results[i] = exc
            continue
        rows.append((winner.base_cost, market.a1, market.a2 * winner.beta, market.price, market.salvage,
                     market.penalty, market.a3, market.nu, *demand.params))
        live.append(i)
    if not live:
        return results
    env = _Envelope(np.array(rows))
    cost, q = env.cost_and_order(_GRID)
    bad = (cost <= 0.0) | (cost < env.salvage) | ~(q >= 0.0)
    for row in np.flatnonzero(bad.any(axis=1)):
        try:
            # Raise the error the scalar inner solve gives at the first bad alpha.
            optimal_quantity_given_alpha(*cells[live[row]], float(_GRID[np.argmax(bad[row])]))
        except ProcureKitError as exc:
            results[live[row]] = exc
    keep = np.array([results[i] is None for i in live], dtype=bool)
    env, cost, q, live = env.take(keep), cost[keep], q[keep], [i for i, k in zip(live, keep) if k]
    best = _GRID[np.argmax(env.profit(_GRID, cost, q), axis=1)]
    roots = _slope_roots(env, np.maximum(0.0, best - _GRID_STEP), np.minimum(1.0, best + _GRID_STEP))
    for i, alpha_grid, alpha_root in zip(live, best, roots):
        try:
            results[i] = _decide(*cells[i], float(alpha_grid), float(alpha_root))
        except ProcureKitError as exc:
            results[i] = exc
    return results


def optimize(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
) -> Optimum:
    """Maximize expected profit over alpha in [0, 1] and the order vector.

    The envelope is evaluated on the fixed alpha grid 0, 0.01, ..., 1 as one
    array program and its argmax taken. The envelope slope
    a1 * Q*(alpha) - adoption_cost_slope(alpha) is then root-found within one
    grid step of that argmax, and the root is kept unless the grid point
    earns strictly more. The returned alpha is stored at full precision;
    display layers round it. This is the batch solve of scenario runs on a
    batch of one cell, so it agrees with any scenario cell bit for bit.
    """
    (decision,) = _solve_batch([(market, suppliers, demand)])
    if isinstance(decision, ProcureKitError):
        raise decision
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
    _check_decision(suppliers, decision)
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
) -> float:
    """Smallest a3 in [a3_low, a3_high] at which optimize reports alpha*
    below c = 0.005, half the grid step, so that it displays as 0.00.

    Q*(alpha) does not involve a3, so the envelope slope
    g(alpha) = a1 * Q*(alpha) - a3 * nu * alpha**(nu - 1) is nonpositive at c
    exactly when a3 >= a3* = a1 * Q*(c) / (nu * c**(nu - 1)). That makes a3*
    the threshold if alpha* does not increase with a3 and g crosses zero once
    near c. At a3* the slope root sits on the cutoff, so the result is a3* or
    the next float up, whichever optimize first reports below c. Returns
    a3_low when a3* <= a3_low; raises ThresholdNotFoundError when the result
    lies above a3_high, or when neither value reports zero.
    """
    if not 0.0 < a3_low < a3_high:
        raise ValidationError(f"need 0 < a3_low < a3_high, got [{a3_low!r}, {a3_high!r}]")
    cutoff = _GRID_STEP / 2.0
    q_cutoff = optimal_quantity_given_alpha(market, suppliers, demand, cutoff).total
    a3_star = market.a1 * q_cutoff / (market.nu * cutoff ** (market.nu - 1.0))
    if a3_star <= a3_low:
        return a3_low

    def reported_zero(a3: float) -> bool:
        if a3 > a3_high:
            raise ThresholdNotFoundError(f"alpha* still at or above {cutoff} at a3={a3_high}; widen the range")
        return optimize(dataclasses.replace(market, a3=a3), suppliers, demand).alpha_star < cutoff

    if reported_zero(a3_star):
        return a3_star
    if reported_zero(a3_up := math.nextafter(a3_star, math.inf)):
        return a3_up
    raise ThresholdNotFoundError(f"alpha* still at or above {cutoff} at a3={a3_up!r}, just above the closed form")

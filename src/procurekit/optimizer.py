"""Joint optimization of adoption intensity and order quantities.

The problem separates cleanly. Given alpha, every supplier's unit cost is
fixed and the order side is a classic newsvendor: put everything on the
cheapest supplier and order up to the critical fractile
(price + penalty - cost) / (price + penalty - salvage). Since a1 * alpha
lowers every cost by the same amount, the cheapest supplier does not depend
on alpha, and the outer problem is one curve in alpha. It is evaluated on the
fixed grid 0, 0.01, ..., 1 as one array program, and the grid argmax is then
polished by solving the stationarity of the envelope,
a1 * Q*(alpha) = adoption_cost_slope(alpha). In t = alpha**(nu - 1) that is
the fixed point t = a1 * Q*(alpha) / (a3 * nu) of a map that does not
decrease, iterated within one grid step of the argmax. Many problems (the
cells of a scenario) share that array program, with their fixed-point
steps in lock-step; optimize is the same program on a batch of one. Since
Q*(alpha) does not involve a3, the adoption threshold is a closed form in
Q* at the display cutoff.

KKT residuals are computed from closed-form probabilities and reported with
the multipliers, so a caller can audit any decision, optimal or not; a
solved decision whose residuals do not close raises SolverCheckError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import TruncatedNormal, TruncatedNormalParams
from .economics import MarketEconomics, SupplierProfile, adoption_cost_slope, cheapest_supplier
from .errors import (
    DegenerateEconomicsError, ProcureKitError, SolverCheckError, ThresholdNotFoundError, ValidationError, check_finite,
    is_real,
)
from .profit import (
    Decision, ProfitBreakdown, _check_decision, _profit, expected_profit_closed_form, expected_profit_value,
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
# A solve takes about four fixed-point steps; 1,500 random problems with nu
# from 1.005 to 4 and narrow demand windows in both tails took at most seven.
_MAX_STEPS = 64
# adoption_threshold tries the closed-form a3* and this many floats above it.
_THRESHOLD_FLOATS = 64
# A decision whose KKT max_residual exceeds this many USD per unit of
# max(price + penalty, a1 * Q*) fails the solver's postcondition.
_KKT_TOLERANCE = 1e-6
# The grid point beats the slope root only if it earns more by over this much
# relative profit; closer than that the two differ by rounding, and the root
# is the point whose KKT audit closes.
_TIE_TOLERANCE = 1e-12


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
    unbounded and no finite order is optimal, and when price + penalty
    overflows a float.
    """
    check_finite("cost", cost)
    cost = float(cost)  # a numpy float32 cost would round the fractile to float32
    if cost < market.salvage:
        raise DegenerateEconomicsError(
            f"unit cost {cost!r} below salvage {market.salvage!r}: "
            "profit is unbounded in the order quantity"
        )
    fractile = (market.price + market.penalty - cost) / (market.price + market.penalty - market.salvage)
    if math.isnan(fractile):
        raise DegenerateEconomicsError(f"price + penalty overflows a float: {market.price!r} + {market.penalty!r}")
    return fractile


def optimal_quantity_given_alpha(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
    alpha: float,
) -> Decision:
    """Best order vector for a fixed alpha.

    All volume goes to the cheapest supplier (ties to the lowest id); the
    total is the demand quantile at the critical fractile, clamped to the
    demand support. A fractile <= 0 (cost at or above price + penalty) means
    every unit loses money, so nothing is ordered.
    """
    idx, cost = cheapest_supplier(market, suppliers, alpha)
    fractile = critical_fractile(market, cost)
    q_total = demand.quantile(min(fractile, 1.0)) if fractile > 0.0 else 0.0
    return _order(alpha, q_total, idx, len(suppliers))


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
    cheapest, since a1 * alpha lowers every cost alike. All arithmetic is
    elementwise, so a cell's numbers do not depend on its batch.
    """

    COLUMNS = 8 + len(TruncatedNormalParams._fields)  # the width of a row()

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        columns = table.T[:, :, None]
        self.base_cost, self.a1, self.a2_beta, self.price, self.salvage, self.penalty, self.a3, self.nu = columns[:8]
        self.demand = TruncatedNormalParams(*columns[8:])
        self.margin = self.price + self.penalty
        self.spread = self.margin - self.salvage
        self.a3_nu, self.nu_less_one = self.a3 * self.nu, self.nu - 1.0

    @staticmethod
    def row(market: MarketEconomics, supplier: SupplierProfile, demand: TruncatedNormal) -> tuple:
        """The table row of a cell that orders from ``supplier``."""
        return (supplier.base_cost, market.a1, market.a2 * supplier.beta, market.price, market.salvage,
                market.penalty, market.a3, market.nu, *demand.params)

    def cost_and_order(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cost = self.base_cost - self.a1 * alphas - self.a2_beta
        fractile = (self.margin - cost) / self.spread
        q = self.demand.quantile(np.minimum(np.maximum(fractile, 0.0), 1.0))
        return cost, np.where(fractile > 0.0, q, 0.0)

    def profit(self, alphas: np.ndarray, cost: np.ndarray, q: np.ndarray) -> np.ndarray:
        revenue, salvage, penalty, _ = expected_sales_terms(self, self.demand, q)
        return _profit(revenue, salvage, penalty, cost * q, self.a3 * _power(alphas, self.nu, cost.shape))

    def step(self, t: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """alpha = t**(1/(nu - 1)) and the projected map
        P(t) = min(max(T(t), t_lo), t_hi), T(t) = a1 * Q*(alpha) / (a3 * nu).

        Stationarity a1 * Q*(alpha) = a3 * nu * alpha**(nu - 1) reads t = T(t),
        and T does not decrease, because Q* does not decrease in alpha. With a3 = 0
        or an overflowing quotient, T is inf and projects to t_hi; a 0/0 NaN to t_lo.
        """
        alpha = _power(t, 1.0 / self.nu_less_one, t.shape)
        mapped = self.a1 * self.cost_and_order(alpha)[1] / self.a3_nu
        return alpha, np.minimum(np.fmax(mapped, t_lo), t_hi)


def _fixed_point(
    env: _Envelope, t_lo: np.ndarray, t_hi: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of each cell's projected map P on [t_lo, t_hi], from start,
    as (t, alpha = t**(1/(nu - 1))).

    P does not decrease, so from any start its iterates move one way and
    converge (Ortega and Rheinboldt 1970, monotone iteration). At the ulp
    scale rounding can break that order, so each cell keeps the direction of
    its first step and stops for good at the first step that does not move
    strictly that way; a stopped cell holds its iterate, and once no cell
    moves, or after _MAX_STEPS, each cell reports its last evaluated iterate.
    The cells step in lock-step, and a held cell is evaluated again at the
    same t. Every operation is elementwise, so a cell's bits do not depend on
    its batch. Call it where numpy ignores divide, invalid and over, as
    _solve_batch does.
    """
    t, t_lo, t_hi = start[:, None], t_lo[:, None], t_hi[:, None]
    moving = np.ones(start.size, dtype=bool)
    for step in range(_MAX_STEPS):
        alpha, mapped = env.step(t, t_lo, t_hi)
        if not step:
            direction = np.sign(mapped - t)
        moving &= ((mapped - t) * direction > 0.0)[:, 0]
        if not moving.any() or step == _MAX_STEPS - 1:
            break
        t = np.where(moving[:, None], mapped, t)
    return t[:, 0], alpha[:, 0]


def _decide(market, suppliers, demand, at_grid: Decision, grid_profit: float, at_root: Decision) -> Decision:
    """The order at the slope root, unless the grid point earns more by over
    _TIE_TOLERANCE relative profit. Both orders and the grid point's profit
    come from the batch; the envelope and expected_profit_value sum their
    money terms through the one profit._profit, so both profits round alike."""
    root_profit = expected_profit_value(market, suppliers, demand, at_root)
    return at_root if root_profit >= grid_profit - _TIE_TOLERANCE * abs(grid_profit) else at_grid


def _order(alpha: float, total: float, winner: int, count: int) -> Decision:
    quantities = [0.0] * count
    quantities[winner] = total
    return Decision(alpha=alpha, quantities=tuple(quantities))


def _solve_batch(
    cells: Sequence[tuple[MarketEconomics, Sequence[SupplierProfile], TruncatedNormal] | ProcureKitError],
) -> list[Decision | ProcureKitError]:
    """Optimal decision of each (market, suppliers, demand) cell, or its error.

    Every cell keeps its row of one array program: the envelope and slope on
    the fixed alpha grid in one pass, then _fixed_point's lock-step solve of
    the stationarity on one grid step either side of the grid argmax (a fixed
    point at an end of that bracket reports that end exactly). An error entry
    (a cell that did not build) comes back in its place; it, like a cell whose
    cheapest supplier fails at alpha = 0, is a row of NaN. The mask flags a
    grid cost <= 0 or below salvage, a negative order (a support below zero)
    and a price + penalty beyond float range; such a cell gets the error the
    scalar inner solve raises at its first flagged alpha. All arithmetic is
    elementwise, so a NaN row reaches no other cell, nor does any result.
    """
    results, winners = list(cells), [0] * len(cells)  # an entry becomes its decision or error
    table = np.full((len(cells), _Envelope.COLUMNS), math.nan)
    for i, entry in enumerate(cells):
        if not isinstance(entry, ProcureKitError):
            market, suppliers, demand = entry
            try:
                winners[i] = cheapest_supplier(market, suppliers, 0.0)[0]
                table[i] = _Envelope.row(market, suppliers[winners[i]], demand)
            except ProcureKitError as exc:
                results[i] = exc
    cell = np.arange(len(cells))
    # _Envelope.step says where _fixed_point's inf and NaN go.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        env = _Envelope(table)
        cost, q = env.cost_and_order(_GRID)
        bad = (cost <= 0.0) | (cost < env.salvage) | ~(q >= 0.0) | np.isinf(env.margin)
        t = _power(_GRID, env.nu_less_one, q.shape)
        g = env.a1 * q - env.a3_nu * t
        profits = env.profit(_GRID, cost, q)
        best_index = np.argmax(profits, axis=1)
        best = _GRID[best_index]
        # The grid step where the slope should change sign: right of the argmax
        # if the slope there is positive, else left of it.
        left = np.minimum(np.maximum(best_index - (g[cell, best_index] <= 0.0), 0), _GRID.size - 2)
        g_left, g_right = g[cell, left], g[cell, left + 1]
        brackets = (g_left > 0.0) & (g_right <= 0.0)
        lo, hi = np.maximum(0.0, best - _GRID_STEP), np.minimum(1.0, best + _GRID_STEP)
        t_lo, t_hi = (_power(end[:, None], env.nu_less_one, (end.size, 1))[:, 0] for end in (lo, hi))
        # Start from the zero of the grid's secant in t, where the slope is nearly
        # linear, or without a sign change from the middle of [t_lo, t_hi].
        t_left, t_right = t[cell, left], t[cell, left + 1]
        share = np.divide(g_left, g_left - g_right, out=np.zeros_like(g_left), where=brackets)
        start = np.where(brackets, t_left + (t_right - t_left) * share, 0.5 * (t_lo + t_hi))
        t_root, alpha_root = _fixed_point(env, t_lo, t_hi, start)
        roots = np.where(t_root == t_lo, lo, np.where(t_root == t_hi, hi, alpha_root))
        q_root = env.cost_and_order(roots[:, None])[1][:, 0]
    for i in np.flatnonzero(bad.any(axis=1)):
        if not isinstance(results[i], ProcureKitError):
            try:
                # Raise the error the scalar inner solve gives at the first bad alpha.
                optimal_quantity_given_alpha(*cells[i], float(_GRID[np.argmax(bad[i])]))
            except ProcureKitError as exc:
                results[i] = exc
    for i, (winner, alpha_grid, total_grid, profit_grid, alpha_root, total_root) in enumerate(
        zip(winners, best, q[cell, best_index], profits[cell, best_index], roots, q_root)
    ):
        if isinstance(results[i], ProcureKitError):
            continue
        count = len(cells[i][1])
        at_grid = _order(float(alpha_grid), float(total_grid), winner, count)
        at_root = _order(float(alpha_root), float(total_root), winner, count)
        results[i] = _decide(*cells[i], at_grid, float(profit_grid), at_root)
    return results


def optimize(
    market: MarketEconomics,
    suppliers: Sequence[SupplierProfile],
    demand: TruncatedNormal,
) -> Optimum:
    """Maximize expected profit over alpha in [0, 1] and the order vector.

    The envelope is evaluated on the fixed alpha grid 0, 0.01, ..., 1 as one
    array program and its argmax taken. Within one grid step of that argmax,
    the stationarity a1 * Q*(alpha) = adoption_cost_slope(alpha) is then
    solved as the fixed point t = a1 * Q*(alpha) / (a3 * nu) in
    t = alpha**(nu - 1), projected onto the bracket: Q* does not decrease in
    alpha, so the iterates move one way, and they stop when a step no longer
    moves (about four steps per solve). The root is kept unless the grid
    point earns more by over _TIE_TOLERANCE relative profit. Raises
    SolverCheckError when the KKT max_residual of the result exceeds
    _KKT_TOLERANCE times max(price + penalty, a1 * Q*); that includes an
    alpha* below the smallest double (nu near 1 with a large a3), which
    rounds to 0 where the slope does not vanish. The returned alpha is stored
    at full precision; display layers round it. This is the batch solve of
    scenario runs on a batch of one cell, so it agrees with any scenario
    cell bit for bit.
    """
    (decision,) = _solve_batch([(market, suppliers, demand)])
    if isinstance(decision, ProcureKitError):
        raise decision
    kkt = _checked_kkt(market, suppliers, demand, decision)
    return Optimum(
        decision=decision,
        breakdown=expected_profit_closed_form(market, suppliers, demand, decision),
        kkt=kkt,
    )


def _checked_kkt(market, suppliers, demand, decision: Decision) -> KKTReport:
    """KKT residuals of a solved decision, which must close: raises
    SolverCheckError when max_residual exceeds _KKT_TOLERANCE times
    max(price + penalty, a1 * Q*), the scales of the order and alpha
    gradients."""
    kkt = kkt_residuals(market, suppliers, demand, decision)
    scale = max(market.price + market.penalty, market.a1 * decision.total)
    if not kkt.max_residual <= _KKT_TOLERANCE * scale:
        raise SolverCheckError(
            f"KKT max_residual {kkt.max_residual!r} at alpha={decision.alpha!r}, q={decision.total!r} "
            f"exceeds {_KKT_TOLERANCE} x {scale!r}"
        )
    return kkt


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
    near c. At a3* the root sits on the cutoff, and rounding decides on which
    side of it the reported root falls (up to three floats above a3* on the
    36 cells of the bisection test), so the result is the first of a3* and
    the _THRESHOLD_FLOATS floats above it at which optimize reports alpha*
    below c. Returns a3_low when a3* <= a3_low; raises
    ThresholdNotFoundError when the result lies above a3_high, or when none
    of those values reports zero.
    """
    if not (is_real(a3_low) and is_real(a3_high) and 0.0 < a3_low < a3_high):
        raise ValidationError(f"need 0 < a3_low < a3_high, got [{a3_low!r}, {a3_high!r}]")
    cutoff = _GRID_STEP / 2.0
    q_cutoff = optimal_quantity_given_alpha(market, suppliers, demand, cutoff).total
    slope, scale = market.a1 * q_cutoff, adoption_cost_slope(cutoff, 1.0, market.nu)
    # For nu above about 140, cutoff ** (nu - 1) underflows to 0 and a3* lies
    # beyond every float: infinite for a positive slope, 0 for a zero one.
    a3 = a3_star = slope / scale if scale else (math.inf if slope else 0.0)
    if a3_star <= a3_low:
        return a3_low
    for _ in range(_THRESHOLD_FLOATS + 1):
        if a3 > a3_high:
            raise ThresholdNotFoundError(f"alpha* still at or above {cutoff} at a3={a3_high}; widen the range")
        if optimize(dataclasses.replace(market, a3=a3), suppliers, demand).alpha_star < cutoff:
            return a3
        a3 = math.nextafter(a3, math.inf)
    raise ThresholdNotFoundError(
        f"alpha* still at or above {cutoff} up to {_THRESHOLD_FLOATS} floats above the closed form a3={a3_star!r}"
    )

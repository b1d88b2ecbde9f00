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
the fixed point t = a1 * Q*(alpha) / a3 / nu of a map that does not
decrease, iterated within one grid step of the argmax. Many problems (the
cells of a scenario) share that array program, with their fixed-point
steps in lock-step; optimize is the same program on a batch of one. Since
alpha* does not increase with a3, the adoption threshold is a bisection on
a3 over these solves.

KKT residuals are computed from closed-form probabilities and reported with
the multipliers, so a caller can audit any decision, optimal or not. The
solver returns each decision with its KKT report, as a pair it has audited:
one whose residuals do not close leaves it as a SolverCheckError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import TruncatedNormal, TruncatedNormalParams
from .economics import MarketEconomics, SupplierProfile, cheapest_supplier
from .errors import (
    DegenerateEconomicsError, ProcureKitError, SolverCheckError, ThresholdNotFoundError, ValidationError, check_finite,
    is_finite,
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
    cost = check_finite("cost", cost)
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
    elementwise, so a cell's numbers do not depend on its batch. a3 and nu
    enter one at a time, as in economics.adoption_cost_slope.
    """

    COLUMNS = 8 + len(TruncatedNormalParams._fields)  # the width of a row()

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        columns = table.T[:, :, None]
        self.base_cost, self.a1, self.a2_beta, self.price, self.salvage, self.penalty, self.a3, self.nu = columns[:8]
        self.demand = TruncatedNormalParams(*columns[8:])
        self.margin = self.price + self.penalty
        self.spread = self.margin - self.salvage
        self.nu_less_one = self.nu - 1.0

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
        P(t) = min(max(T(t), t_lo), t_hi), T(t) = a1 * Q*(alpha) / a3 / nu.

        Stationarity a1 * Q*(alpha) = a3 * (nu * t) reads t = T(t), and T
        does not decrease, because Q* does not decrease in alpha. With a3 = 0
        or an overflowing quotient, T is inf and projects to t_hi; a 0/0 NaN to t_lo.
        """
        alpha = _power(t, 1.0 / self.nu_less_one, t.shape)
        mapped = self.a1 * self.cost_and_order(alpha)[1] / self.a3 / self.nu
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


def _order(alpha: float, total: float, winner: int, count: int) -> Decision:
    quantities = [0.0] * count
    quantities[winner] = total
    return Decision(alpha=alpha, quantities=tuple(quantities))


def _solve_batch(
    cells: Sequence[tuple[MarketEconomics, Sequence[SupplierProfile], TruncatedNormal] | ProcureKitError],
) -> list[tuple[Decision, KKTReport] | ProcureKitError]:
    """Audited optimum of each (market, suppliers, demand) cell, as a
    (decision, kkt) pair, or its error.

    Every cell keeps its row of one array program: the envelope and slope on
    the fixed alpha grid in one pass, then _fixed_point's lock-step solve of
    the stationarity on one grid step either side of the grid argmax (a fixed
    point at an end of that bracket reports that end exactly). An error entry
    (a cell that did not build) comes back in its place; it, like a cell whose
    cheapest supplier fails at alpha = 0, is a row of NaN. The mask flags a
    grid cost <= 0 or below salvage, a negative order (a support below zero)
    and a price + penalty beyond float range; such a cell gets the error the
    scalar inner solve raises at its first flagged alpha. A solved cell keeps
    the slope root unless the grid point wins by over _TIE_TOLERANCE; if its
    KKT audit fails _KKT_TOLERANCE, its entry is a SolverCheckError. All
    arithmetic is elementwise, so a NaN row reaches no other cell, nor does
    any result.
    """
    results, winners = list(cells), [0] * len(cells)  # an entry becomes its (decision, kkt) or error
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
        g = env.a1 * q - env.a3 * (env.nu * t)
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
    flagged = bad.any(axis=1)
    for i, (winner, alpha_grid, total_grid, profit_grid, alpha_root, total_root) in enumerate(
        zip(winners, best, q[cell, best_index], profits[cell, best_index], roots, q_root)
    ):
        if isinstance(results[i], ProcureKitError):
            continue
        market, suppliers, demand = cells[i]
        try:
            if flagged[i]:
                # Raise the error the scalar inner solve gives at the first bad alpha.
                optimal_quantity_given_alpha(market, suppliers, demand, float(_GRID[np.argmax(bad[i])]))
            decision = _order(float(alpha_root), float(total_root), winner, len(suppliers))
            # The envelope and expected_profit_value sum their money terms
            # through the one profit._profit, so both profits round alike.
            root_profit, grid_profit = expected_profit_value(market, suppliers, demand, decision), float(profit_grid)
            if not root_profit >= grid_profit - _TIE_TOLERANCE * abs(grid_profit):
                decision = _order(float(alpha_grid), float(total_grid), winner, len(suppliers))
            kkt = kkt_residuals(market, suppliers, demand, decision)
            scale = max(market.price + market.penalty, market.a1 * decision.total)
            if not kkt.max_residual <= _KKT_TOLERANCE * scale:
                raise SolverCheckError(
                    f"KKT max_residual {kkt.max_residual!r} at alpha={decision.alpha!r}, q={decision.total!r} "
                    f"exceeds {_KKT_TOLERANCE} x {scale!r}",
                    decision.alpha,
                )
            results[i] = decision, kkt
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
    array program and its argmax taken. Within one grid step of that argmax,
    the stationarity a1 * Q*(alpha) = adoption_cost_slope(alpha) is then
    solved as the fixed point t = a1 * Q*(alpha) / a3 / nu in
    t = alpha**(nu - 1), projected onto the bracket: Q* does not decrease in
    alpha, so the iterates move one way, and they stop when a step no longer
    moves (about four steps per solve). The root is kept unless the grid
    point earns more by over _TIE_TOLERANCE relative profit. Raises
    SolverCheckError when the KKT max_residual of the result exceeds
    _KKT_TOLERANCE times max(price + penalty, a1 * Q*); that includes an
    alpha* below the smallest normal double (nu near 1 with a large a3),
    which rounds to 0 or to too few bits. The returned alpha is stored
    at full precision; display layers round it. This is the batch solve of
    scenario runs on a batch of one cell, so it agrees with any scenario
    cell bit for bit: the batch returns the audited (decision, kkt) pair, and
    optimize adds the closed-form breakdown.
    """
    (solved,) = _solve_batch([(market, suppliers, demand)])
    if isinstance(solved, ProcureKitError):
        raise solved
    decision, kkt = solved
    return Optimum(
        decision=decision,
        breakdown=expected_profit_closed_form(market, suppliers, demand, decision),
        kkt=kkt,
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
        lam = 0.0 if q > _ACTIVE_TOL else max(0.0, -grad)
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
    """Smallest float a3 in [a3_low, a3_high] at which the audited solve
    reports alpha* below c = 0.005, half the grid step, so that it displays
    as 0.00; the float below it reports alpha* >= c. Each end is solved as
    a market's a3, so both must convert to finite floats, or ValidationError.

    V(alpha; a3) = W(alpha) - a3 * alpha**nu, with W free of a3, has
    decreasing differences, so its maximisers do not increase with a3
    (Topkis 1978; Milgrom and Shannon 1994), with no concavity or single
    crossing assumed. Returns a3_low if it reports below c, raises
    ThresholdNotFoundError if a3_high does not, and otherwise bisects the
    IEEE bit patterns, which order positive floats, to adjacent floats. A
    failed audit at an alpha below the smallest normal double counts as
    below c: alpha* underflowed (see optimize). Other errors propagate.
    """
    if not (is_finite(a3_low) and is_finite(a3_high) and 0.0 < a3_low < a3_high):
        raise ValidationError(f"need finite 0 < a3_low < a3_high, got [{a3_low!r}, {a3_high!r}]")
    cutoff = _GRID_STEP / 2.0

    def below_cutoff(*a3s: float) -> list[bool]:
        below = []
        for entry in _solve_batch([(dataclasses.replace(market, a3=a3), suppliers, demand) for a3 in a3s]):
            underflow = isinstance(entry, SolverCheckError) and entry.alpha < np.finfo(float).tiny
            if isinstance(entry, ProcureKitError) and not underflow:
                raise entry
            below.append(underflow or entry[0].alpha < cutoff)
        return below

    low_below, high_below = below_cutoff(a3_low, a3_high)
    if low_below:
        return a3_low
    if not high_below:
        raise ThresholdNotFoundError(f"alpha* still at or above {cutoff} at a3={a3_high}; widen the range")
    lo, hi = np.array([a3_low, a3_high], dtype=float).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below_cutoff(np.int64(mid).view(float))[0] else (mid, hi)
    return float(np.int64(hi).view(float))

"""Joint optimization of adoption intensity and order quantities.

The problem separates cleanly. Given alpha, every supplier's unit cost is
fixed and the order side is a classic newsvendor: put everything on the
cheapest supplier and order up to the critical fractile
(price + penalty - cost) / (price + penalty - salvage). Since a1 * alpha
lowers every cost by the same amount, the cheapest supplier does not depend
on alpha, and the outer problem is one curve in alpha. It is evaluated on the
fixed grid 0, 0.01, ..., 1 as one array program, and the grid argmax is then
polished by a root-find on the closed-form envelope derivative
a1 * Q*(alpha) - adoption_cost_slope(alpha): a multisection whose rounds are
aimed by a secant in t = alpha**(nu - 1), in which that derivative is nearly
linear. Many problems (the cells of a scenario) share that array program;
optimize is the same program on a batch of one, whose root-find keeps its
per-round bookkeeping in floats and gets the same bits. Since Q*(alpha) does not
involve a3, the adoption threshold is a closed form in Q* at the display
cutoff.

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
from .economics import MarketEconomics, SupplierProfile, cheapest_supplier
from .errors import (
    DegenerateEconomicsError, ProcureKitError, SolverCheckError, ThresholdNotFoundError, ValidationError,
)
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
# Multisection of the envelope slope: 33 points, so 32 sections, per round.
# lo and hi are two of the points; the other 31 split a window around a
# secant estimate of the root into 30 sections. The first window has half
# width _FIRST_HALF_WIDTH; a uniform round's window is the middle 15/16 of
# the bracket, and no window is wider, so no window section spans more than
# 1/32 of its bracket.
_SECTIONS = 32
_WINDOW = np.arange(_SECTIONS - 1) / (_SECTIONS - 2)
_FIRST_HALF_WIDTH = 2.0**-5 * _GRID_STEP
_UNIFORM_HALF_WIDTH = (_SECTIONS - 2) / (2 * _SECTIONS)
# Every two rounds shrink a bracket at least 32-fold, so 2**-1074 is reached
# from a bracket of width 1 within 2 * 215 rounds.
_MAX_ROUNDS = 2 * 215
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
    demand support. A fractile <= 0 (cost at or above price + penalty) means
    every unit loses money, so nothing is ordered.
    """
    idx, cost = cheapest_supplier(market, suppliers, alpha)
    fractile = critical_fractile(market, cost)
    q_total = demand.quantile(min(fractile, 1.0)) if fractile > 0.0 else 0.0
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

    @staticmethod
    def row(market: MarketEconomics, supplier: SupplierProfile, demand: TruncatedNormal) -> tuple:
        """The table row of a cell that orders from ``supplier``."""
        return (supplier.base_cost, market.a1, market.a2 * supplier.beta, market.price, market.salvage,
                market.penalty, market.a3, market.nu, *demand.params)

    def take(self, rows) -> _Envelope:
        return _Envelope(self.table[rows])

    def cost_and_order(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cost = self.base_cost - self.a1 * alphas - self.a2_beta
        fractile = (self.margin - cost) / self.spread
        q = self.demand.quantile(np.minimum(np.maximum(fractile, 0.0), 1.0))
        return cost, np.where(fractile > 0.0, q, 0.0)

    def profit(self, alphas: np.ndarray, cost: np.ndarray, q: np.ndarray) -> np.ndarray:
        revenue, salvage, penalty, _ = expected_sales_terms(self, self.demand, q)
        return revenue + salvage - penalty - cost * q - self.a3 * _power(alphas, self.nu, cost.shape)

    def slope(self, alphas: np.ndarray) -> np.ndarray:
        """a1 * Q*(alpha) - adoption_cost_slope(alpha)."""
        return self.a1 * self.cost_and_order(alphas)[1] - self.a3_nu * _power(alphas, self.nu_less_one, alphas.shape)

    def secant(self, lo: np.ndarray, s_lo: np.ndarray, hi: np.ndarray, s_hi: np.ndarray) -> np.ndarray:
        """Zero of the chord through the slopes s_lo > 0 >= s_hi at lo and hi,
        taken in t = alpha**(nu - 1), in which the slope is nearly linear.

        Q*(alpha) moves little, so the slope is close to c - a3*nu*t; in
        alpha, the curvature of alpha**(nu - 1) near 0 stalls a secant when
        nu < 2.
        """
        shape = (lo.size, 1)
        t_lo, t_hi = _power(lo[:, None], self.nu_less_one, shape), _power(hi[:, None], self.nu_less_one, shape)
        t = t_lo + (t_hi - t_lo) * (s_lo / (s_lo - s_hi))[:, None]
        return _power(t, 1.0 / self.nu_less_one, shape)[:, 0]


def _points(lo: np.ndarray, hi: np.ndarray, est, half_width, uniform: np.ndarray) -> np.ndarray:
    """lo, then 31 points spread evenly over [est - half_width, est + half_width]
    clipped to the bracket, or over its middle 15/16 where uniform, then hi:
    one row per cell, ascending."""
    width = hi - lo
    est = np.where(uniform, lo + 0.5 * width, np.minimum(np.maximum(est, lo), hi))
    half_width = np.where(uniform, _UNIFORM_HALF_WIDTH * width, half_width)
    start, stop = np.maximum(est - half_width, lo), np.minimum(est + half_width, hi)
    xs = np.empty((lo.size, _SECTIONS + 1))
    xs[:, 0], xs[:, -1] = lo, hi
    np.minimum(start[:, None] + (stop - start)[:, None] * _WINDOW, hi[:, None], out=xs[:, 1:-1])
    return xs


def _maximum(a: float, b: float) -> float:
    """np.maximum on floats: a NaN wins, and on a tie the second argument."""
    return a if a > b or a != a else b


def _minimum(a: float, b: float) -> float:
    """np.minimum on floats: a NaN wins, and on a tie the second argument."""
    return a if a < b or a != a else b


def _window(lo: float, hi: float, est: float, half_width: float, uniform: bool) -> np.ndarray:
    """_points of one cell from floats: the same operations on a (1, 33) row."""
    width = hi - lo
    if uniform:
        est, half_width = lo + 0.5 * width, _UNIFORM_HALF_WIDTH * width
    else:
        est = _minimum(_maximum(est, lo), hi)
    start, stop = _maximum(est - half_width, lo), _minimum(est + half_width, hi)
    xs = np.empty((1, _SECTIONS + 1))
    xs[0, 0], xs[0, -1] = lo, hi
    np.minimum(start + (stop - start) * _WINDOW, hi, out=xs[0, 1:-1])
    return xs


def _slope_root(env: _Envelope, lo: float, hi: float, est: float) -> float:
    """_slope_roots of a one-cell env, with the bookkeeping of each round in
    Python floats around the same slope evaluations, so the same bits.

    The powers of the secant take the exponent as a one-element array: as a
    float, an exponent of 0.5 or 2 would take numpy's sqrt or square (see
    _power). est lies in [0, 1] or is NaN, where math.ulp equals np.spacing.
    """
    exponent = env.nu_less_one[:, 0]
    inverse = 1.0 / exponent
    uniform = math.isnan(est)
    xs = _window(lo, hi, est, _FIRST_HALF_WIDTH, uniform)
    x, s = xs[0].tolist(), env.slope(xs)[0].tolist()
    if s[0] <= 0.0:
        return lo
    if s[-1] >= 0.0:
        return hi
    for _ in range(_MAX_ROUNDS):
        # argmin of s[1:] > 0, which is 0 when every slope there is positive.
        section = next((k for k in range(_SECTIONS) if not s[k + 1] > 0.0), 0)
        lo, hi, s_lo, s_hi = x[section], x[section + 1], s[section], s[section + 1]
        if math.nextafter(lo, hi) >= hi:
            return 0.5 * (lo + hi)
        width = hi - lo
        t_lo, t_hi = np.power(lo, exponent).item(), np.power(hi, exponent).item()
        est = np.power(t_lo + (t_hi - t_lo) * (s_lo / (s_lo - s_hi)), inverse).item()
        half_width = _maximum(0.5 * width * _minimum(2.0**-10, 10.0 * width), 16.0 * math.ulp(est))
        missed = not uniform and section in (0, _SECTIONS - 1)
        uniform = missed or half_width >= _UNIFORM_HALF_WIDTH * width
        xs = _window(lo, hi, est, half_width, uniform)
        x, s = xs[0].tolist(), env.slope(xs)[0].tolist()
    return 0.5 * (lo + hi)


def _slope_roots(env: _Envelope, lo: np.ndarray, hi: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Root of each cell's envelope slope inside [lo, hi], or the binding endpoint.

    Multisection in lock-step, aimed by a safeguarded secant (Brent 1973):
    each round evaluates the slope of every open cell at lo, at 31 points
    spread over a narrow window around an estimate of the root, and at hi,
    and keeps the first section where the slope turns nonpositive, so the
    bracket keeps s(lo) > 0 >= s(hi). The first round's estimate est comes
    from the grid (NaN for none); each later one is the secant
    (_Envelope.secant) between the new bracket ends. A round is uniform,
    its points spread evenly over the bracket, for a cell without an
    estimate, one whose sign change fell outside its last window (a miss),
    and one whose window would span 15/16 of the bracket or more. A window
    section spans at most 1/32 of its bracket and a miss is followed by a
    uniform round, so every two rounds shrink a bracket at least 32-fold:
    _MAX_ROUNDS bounds the loop. A cell drops out once its bracket ends are
    adjacent floats.

    A batch of one cell, as optimize solves, takes the same rounds in
    _slope_root, whose bookkeeping is in Python floats; its bits equal those
    this array path gives the same cell in any batch.
    """
    if lo.size == 1:
        return np.array([_slope_root(env, lo.item(), hi.item(), est.item())])
    uniform = np.isnan(est)
    s = env.slope(xs := _points(lo, hi, est, _FIRST_HALF_WIDTH, uniform))
    # A slope nonpositive at the left edge means profit falls on the bracket;
    # one still nonnegative at the right edge means that edge binds.
    roots = np.where(s[:, 0] <= 0.0, lo, hi)
    active = np.flatnonzero(~(s[:, 0] <= 0.0) & ~(s[:, -1] >= 0.0))
    if not active.size:
        return roots
    if active.size < roots.size:
        xs, s, env, uniform = xs[active], s[active], env.take(active), uniform[active]
    starts = np.arange(0, xs.size, _SECTIONS + 1)
    for _ in range(_MAX_ROUNDS):
        # The new bracket is the first section whose right end has a slope
        # that is not positive; left is the flat index of its left end.
        section = (s[:, 1:] > 0.0).argmin(axis=1)
        left = starts + section
        flat_x, flat_s = xs.ravel(), s.ravel()
        lo, hi, s_lo, s_hi = flat_x[left], flat_x[left + 1], flat_s[left], flat_s[left + 1]
        closed = np.nextafter(lo, hi) >= hi
        if closed.any():
            roots[active[closed]] = 0.5 * (lo[closed] + hi[closed])
            if closed.all():
                return roots
            still = ~closed
            active, env, starts = active[still], env.take(still), starts[: still.sum()]
            lo, hi, s_lo, s_hi = lo[still], hi[still], s_lo[still], s_hi[still]
            section, uniform = section[still], uniform[still]
        width, est = hi - lo, env.secant(lo, s_lo, hi, s_hi)
        # The secant's error shrinks about with the square of the width; the
        # window keeps a tenfold margin over that, and 16 floats either side.
        half_width = np.maximum(0.5 * width * np.minimum(2.0**-10, 10.0 * width), 16.0 * np.spacing(est))
        missed = ~uniform & ((section == 0) | (section == _SECTIONS - 1))
        uniform = missed | (half_width >= _UNIFORM_HALF_WIDTH * width)
        s = env.slope(xs := _points(lo, hi, est, half_width, uniform))
    roots[active] = 0.5 * (lo + hi)
    return roots


def _decide(market, suppliers, demand, at_grid: Decision, grid_profit: float, at_root: Decision) -> Decision:
    """The order at the slope root, unless the grid point earns more by over
    _TIE_TOLERANCE relative profit. Both orders and the grid point's profit
    come from the batch, which computes that profit with the same operations
    as expected_profit_value."""
    root_profit = expected_profit_value(market, suppliers, demand, at_root)
    return at_root if root_profit >= grid_profit - _TIE_TOLERANCE * abs(grid_profit) else at_grid


def _order(alpha: float, total: float, winner: int, count: int) -> Decision:
    quantities = [0.0] * count
    quantities[winner] = total
    return Decision(alpha=alpha, quantities=tuple(quantities))


def _solve_batch(
    cells: Sequence[tuple[MarketEconomics, Sequence[SupplierProfile], TruncatedNormal]],
) -> list[Decision | ProcureKitError]:
    """Optimal decision of each (market, suppliers, demand) cell, or its error.

    The cells share one array program: every cell's envelope and slope are
    evaluated on the fixed alpha grid in one pass, then their slopes are
    root-found in lock-step within one grid step of each grid argmax, aimed
    by the grid secant next to it. A cell whose grid meets a cost <= 0 or
    below salvage, or a negative order, gets the error the scalar inner
    solve raises at the first such grid alpha. A cell's result does not
    depend on the other cells.
    """
    results: list = [None] * len(cells)
    rows, live, winners = [], [], []
    for i, (market, suppliers, demand) in enumerate(cells):
        try:
            # a1 * alpha lowers every cost alike, so the cheapest supplier at
            # alpha = 0 stays cheapest on the whole grid.
            winner = cheapest_supplier(market, suppliers, 0.0)[0]
        except ProcureKitError as exc:
            results[i] = exc
            continue
        rows.append(_Envelope.row(market, suppliers[winner], demand))
        live.append(i)
        winners.append(winner)
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
    if not keep.all():
        env, cost, q = env.take(keep), cost[keep], q[keep]
        live, winners = [i for i, k in zip(live, keep) if k], [w for w, k in zip(winners, keep) if k]
    t = _power(_GRID, env.nu_less_one, q.shape)
    g = env.a1 * q - env.a3_nu * t
    cell = np.arange(len(live))
    profits = env.profit(_GRID, cost, q)
    best_index = np.argmax(profits, axis=1)
    best = _GRID[best_index]
    # The grid step where the slope should change sign: right of the argmax
    # if the slope there is positive, else left of it.
    left = np.minimum(np.maximum(best_index - (g[cell, best_index] <= 0.0), 0), _GRID.size - 2)
    g_left, g_right = g[cell, left], g[cell, left + 1]
    brackets = (g_left > 0.0) & (g_right <= 0.0)
    est = env.secant(_GRID[left], np.where(brackets, g_left, 1.0), _GRID[left + 1], np.where(brackets, g_right, -1.0))
    roots = _slope_roots(
        env, np.maximum(0.0, best - _GRID_STEP), np.minimum(1.0, best + _GRID_STEP), np.where(brackets, est, np.nan)
    )
    q_root = env.cost_and_order(roots[:, None])[1][:, 0]
    for i, winner, alpha_grid, total_grid, profit_grid, alpha_root, total_root in zip(
        live, winners, best, q[cell, best_index], profits[cell, best_index], roots, q_root
    ):
        count = len(cells[i][1])
        try:
            at_grid = _order(float(alpha_grid), float(total_grid), winner, count)
            at_root = _order(float(alpha_root), float(total_root), winner, count)
            results[i] = _decide(*cells[i], at_grid, float(profit_grid), at_root)
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
    grid step of that argmax, to adjacent floats, by multisection aimed with
    a secant in t = alpha**(nu - 1) (about three slope evaluations per
    solve). The root is kept unless the grid point earns more by over
    _TIE_TOLERANCE relative profit. Raises SolverCheckError when the KKT
    max_residual of the result exceeds _KKT_TOLERANCE times
    max(price + penalty, a1 * Q*). The returned alpha is stored at full
    precision; display layers round it. This is the batch solve of scenario
    runs on a batch of one cell, so it agrees with any scenario cell bit for
    bit; its root-find takes the one-cell path of _slope_roots, which keeps
    the bookkeeping of each round in Python floats and gives the bits of the
    array path.
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

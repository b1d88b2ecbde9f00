"""Independent reference implementations used to check closed forms.

Everything here is deliberately brute force: composite Simpson quadrature,
plain Monte Carlo, finite differences, exhaustive grid argmax, and bisection
over whole solves. The point is to validate the analytic code paths against
slow routes that share no formulas with them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from procurekit.optimizer import optimize
from procurekit.profit import ProfitBreakdown


def simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int = 10_000) -> float:
    """Composite Simpson integral of f over [a, b] with an even panel count."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def moment(dist, power: int, about: float = 0.0, panels: int = 10_000) -> float:
    """E[(D - about)^power] by quadrature against dist.pdf."""
    return simpson(lambda x: (x - about) ** power * dist.pdf(x), dist.lower, dist.upper, panels)


def excess_by_quadrature(dist, q: float, panels: int = 10_000) -> float:
    """E[(D - q)^+] by quadrature."""
    return simpson(lambda x: np.maximum(x - q, 0.0) * dist.pdf(x), dist.lower, dist.upper, panels)


def central_difference(f: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def grid_argmax(f: Callable[[float], float], lo: float, hi: float, step: float) -> float:
    """Exhaustive argmax of f over an inclusive grid."""
    xs = np.arange(lo, hi + step / 2.0, step)
    vals = [f(float(x)) for x in xs]
    return float(xs[int(np.argmax(vals))])


def bisect_adoption_threshold(market, suppliers, demand, a3_low: float, a3_high: float, resolution: float) -> float:
    """Smallest a3 in [a3_low, a3_high], to within resolution, at which
    optimize reports alpha* below 0.005, found by bisection over whole solves.

    Assumes alpha* is nonincreasing in a3; raises ValueError when even a3_high
    leaves alpha* at or above the cutoff.
    """

    def reported_zero(a3: float) -> bool:
        return optimize(dataclasses.replace(market, a3=a3), suppliers, demand).alpha_star < 0.005

    if not reported_zero(a3_high):
        raise ValueError(f"alpha* still at or above 0.005 at a3={a3_high}")
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


def breakdown_by_numpy_reductions(market, suppliers, demand, decision, draws: np.ndarray) -> ProfitBreakdown:
    """Monte Carlo breakdown of a decision over draws, reduced by numpy's own
    .mean(), .std(ddof=1) and np.partition, term for term as
    profit.breakdown_from_draws defines it."""
    n = draws.size
    q_total = decision.total
    served = np.minimum(q_total, draws)
    leftover = q_total - served
    shortfall = draws - served
    procurement = float(
        sum(market.unit_cost(s, decision.alpha) * q for s, q in zip(suppliers, decision.quantities) if q > 0.0)
    )
    adoption = market.adoption_cost(decision.alpha)
    revenue = market.price * float(served.mean())
    salvage = market.salvage * float(leftover.mean())
    penalty = market.penalty * float(shortfall.mean())
    per_rep = market.price * served + market.salvage * leftover - market.penalty * shortfall - (procurement + adoption)
    fill_mean = cvar10 = math.nan
    if demand.lower > 0.0:
        fills = served / draws
        k = max(1, n // 10)
        fill_mean = float(fills.mean())
        cvar10 = float(np.partition(fills, k - 1)[:k].mean())
    return ProfitBreakdown(
        expected_revenue=revenue,
        expected_salvage=salvage,
        expected_penalty=penalty,
        procurement_cost=procurement,
        adoption_cost=adoption,
        expected_profit=revenue + salvage - penalty - procurement - adoption,
        fill_rate_mean=fill_mean,
        penalty_rate=float(shortfall.mean()) / float(draws.mean()),
        fill_rate_cvar10=cvar10,
        std_error=float(per_rep.std(ddof=1)) / math.sqrt(n),
    )

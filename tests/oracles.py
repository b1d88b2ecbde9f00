"""Independent reference implementations used to check closed forms.

Everything here is deliberately brute force: composite Simpson quadrature,
plain Monte Carlo, finite differences, exhaustive grid argmax, bisection
over whole solves, a 40-digit mpmath solve and a 40-digit negative-binomial
fit. The point is to validate the analytic code paths against slow routes
that share no formulas with them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import statistics
from typing import Callable, NamedTuple

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


REFERENCE_DIGITS = 40

# adoption_threshold's cutoff: alpha* below it displays as 0.00.
THRESHOLD_CUTOFF = 0.005


class Reference(NamedTuple):
    """The optimum of one problem to REFERENCE_DIGITS digits, as mpmath numbers."""

    alpha: object
    q: object
    profit: object
    threshold: object


def reference_solve(market, suppliers, demand) -> tuple:
    """alpha* and Q*(alpha*) of reference_optimum."""
    return reference_optimum(market, suppliers, demand)[:2]


@functools.cache
def reference_optimum(market, suppliers, demand) -> Reference:
    """alpha*, Q*(alpha*), the expected profit there and the adoption
    threshold a3*, to REFERENCE_DIGITS digits.

    Q*(alpha) is the demand quantile at the critical fractile of the cheapest
    supplier, found by Newton's method on mpmath's normal CDF (on the upper
    tail for a window right of mu). alpha* is the root of the envelope slope
    g(alpha) = a1 * Q*(alpha) - a3 * nu * alpha**(nu - 1) on [0, 1], found by
    a bracketing solve in t = alpha**(nu - 1), or 1 when g(1) >= 0. Assumes
    Q*(0) > 0 and a single sign change of g, as in a concave problem.

    The expected profit takes the shortfall mean by mpmath.quad against the
    truncated density, and the sales and leftover means from it and the
    closed-form mean. The threshold a3* = a1 * Q*(c) / (nu * c**(nu - 1)) at
    c = THRESHOLD_CUTOFF is the a3 at which the slope vanishes at c.
    """
    import mpmath

    with mpmath.workdps(REFERENCE_DIGITS):
        mpf = mpmath.mpf
        a1, a3, nu = mpf(market.a1), mpf(market.a3), mpf(market.nu)
        margin = mpf(market.price) + mpf(market.penalty)
        spread = margin - mpf(market.salvage)
        cost_at_zero = min(mpf(s.base_cost) - mpf(market.a2) * mpf(s.beta) for s in suppliers)
        mu, sigma = mpf(demand.mu), mpf(demand.sigma)
        sign = -1 if demand.lower > demand.mu else 1
        ends = [sign * (mpf(x) - mu) / sigma for x in (demand.lower, demand.upper)]
        cdf_lower, cdf_upper = (mpmath.ncdf(z) for z in ends)

        def quantity(alpha):
            fractile = (margin - (cost_at_zero - a1 * alpha)) / spread
            if fractile <= 0:
                return mpf(0)
            if fractile >= 1:
                return mpf(demand.upper)
            # Phi(z) = p in the frame where the window's mass is a difference of lower tails.
            p = cdf_lower + fractile * (cdf_upper - cdf_lower)
            z = mpf(statistics.NormalDist().inv_cdf(min(max(float(p), 1e-300), 1.0 - 1e-16)))
            for _ in range(100):
                step = (mpmath.ncdf(z) - p) / mpmath.npdf(z)
                z -= step
                if abs(step) <= mpf(10) ** (5 - REFERENCE_DIGITS) * max(1, abs(z)):
                    break
            return mu + sign * sigma * z

        def slope_in_t(t):
            return a1 * quantity(t ** (1 / (nu - 1))) - a3 * nu * t

        if slope_in_t(mpf(1)) >= 0:
            alpha = mpf(1)
        else:
            t = mpmath.findroot(slope_in_t, (mpf(0), mpf(1)), solver="anderson")
            alpha = t ** (1 / (nu - 1))
        q = quantity(alpha)

        lower, upper = mpf(demand.lower), mpf(demand.upper)
        mass = sign * (cdf_upper - cdf_lower)

        def density(x):
            return mpmath.npdf(x, mu, sigma) / mass

        # The textbook mean loses no digit that matters at this precision.
        mean = mu + sigma * (mpmath.npdf((lower - mu) / sigma) - mpmath.npdf((upper - mu) / sigma)) / mass
        shortfall = mpmath.quad(lambda x: (x - q) * density(x), [q, upper])
        sales = mean - shortfall
        cost = cost_at_zero - a1 * alpha
        profit = (
            mpf(market.price) * sales + mpf(market.salvage) * (q - sales) - mpf(market.penalty) * shortfall
            - cost * q - a3 * alpha**nu
        )
        cutoff = mpf(THRESHOLD_CUTOFF)
        threshold = a1 * quantity(cutoff) / (nu * cutoff ** (nu - 1))
        return Reference(alpha, q, profit, threshold)


def reference_negative_binomial_r(counts) -> float:
    """The dispersion r that maximizes the negative-binomial likelihood of
    ``counts`` with p profiled out, p = r / (r + mean), to REFERENCE_DIGITS
    digits, rounded to a float.

    That profile likelihood is fitting's, and its derivative in r is
    sum(digamma(k + r)) - n * digamma(r) + n * log(r / (r + mean)). The
    maximum is its root, found by bisection in log r on [1e-12, 1e12];
    assumes one sign change, as for overdispersed counts.
    """
    import mpmath

    with mpmath.workdps(REFERENCE_DIGITS):
        values = {}
        for k in counts:
            values[int(k)] = values.get(int(k), 0) + 1
        n = len(counts)
        mean = mpmath.mpf(sum(k * m for k, m in values.items())) / n

        def score(log_r):
            r = mpmath.exp(log_r)
            return (
                sum(m * mpmath.digamma(k + r) for k, m in values.items())
                - n * mpmath.digamma(r) + n * mpmath.log(r / (r + mean))
            )

        lo, hi = mpmath.log(mpmath.mpf("1e-12")), mpmath.log(mpmath.mpf("1e12"))
        for _ in range(4 * REFERENCE_DIGITS):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if score(mid) > 0 else (lo, mid)
        return float(mpmath.exp((lo + hi) / 2))


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

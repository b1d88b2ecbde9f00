"""optimize against an independent 40-digit mpmath solve (oracles.reference_solve).

The fixed set spans the baseline, 20 of the benchmark's generated problems
(2 to 6 suppliers, windows in both tails), and demand windows around mu,
left of it and right of it, from 1e-3 to 30 parent sigmas wide, at nu from
1.05 to 4, plus a problem whose optimum is the corner alpha = 1. Each test
prints how many ulps optimize's alpha* sits from the reference.
"""

from __future__ import annotations

import math

import mpmath
import pytest

from procurekit.optimizer import optimize

from helpers import baseline_demand, baseline_market, baseline_suppliers, perfbench_solve_problems
from oracles import reference_solve

TOLERANCE = 1e-12

NUS = (1.05, 1.5, 2.5, 4.0)
WIDTHS = (1e-3, 0.1, 3.0, 30.0)


def window(position: str, width: float):
    """A baseline demand window of the given width in parent sigmas: centred on
    mu, or ending (starting) two sigmas left (right) of it."""
    mu, sigma = 50.0, 8.0
    span = width * sigma
    lower = {"around": mu - span / 2.0, "left": mu - 2.0 * sigma - span, "right": mu + 2.0 * sigma}[position]
    return baseline_demand(lower=lower, upper=lower + span)


CASES = {
    "baseline": (baseline_market(), baseline_suppliers(), baseline_demand()),
    "corner-alpha-1": (baseline_market(a3=100.0), baseline_suppliers(), baseline_demand()),
    **{f"perfbench-7-{k}": problem for k, problem in enumerate(perfbench_solve_problems(7)) if k % 6 == 0},
    **{
        f"{position}-{width:g}-sigma-nu-{NUS[(p + w) % len(NUS)]}": (
            baseline_market(nu=NUS[(p + w) % len(NUS)]),
            baseline_suppliers(),
            window(position, width),
        )
        for p, position in enumerate(("around", "left", "right"))
        for w, width in enumerate(WIDTHS)
    },
}


@pytest.mark.parametrize("name", list(CASES))
def test_optimize_matches_the_reference(name):
    market, suppliers, demand = CASES[name]
    alpha, q = reference_solve(market, suppliers, demand)
    opt = optimize(market, suppliers, demand)
    with mpmath.workdps(40):
        ulps = abs(mpmath.mpf(opt.alpha_star) - alpha) / mpmath.mpf(math.ulp(float(alpha)))
        print(f"{name}: alpha* = {opt.alpha_star!r}, {float(ulps):.2f} ulps from the reference")
        assert abs(opt.alpha_star - alpha) <= TOLERANCE * alpha
        assert abs(opt.q_star - q) <= TOLERANCE * q

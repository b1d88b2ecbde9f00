"""optimize against an independent 40-digit mpmath solve (oracles.reference_solve).

The fixed set spans the baseline, 20 of the benchmark's generated problems
(2 to 6 suppliers, windows in both tails), and demand windows around mu,
left of it and right of it, from 1e-3 to 30 parent sigmas wide, at nu from
1.05 to 4, plus a problem whose optimum is the corner alpha = 1, one whose
a3 * nu overflows a float, and problems whose critical fractile lies within
1e-4 of 0 or of 1. Each test
prints how many ulps optimize's alpha* sits from the reference. The expected
profit at the optimum and adoption_threshold are held to the same reference.
A hypothesis property test draws alpha* and Q* problems over the same model
space, with a3 chosen to put alpha* inside (0, 1), near 0 or at 1.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procurekit.economics import SupplierProfile
from procurekit.errors import ThresholdNotFoundError
from procurekit.optimizer import adoption_threshold, optimal_quantity_given_alpha, optimize

from helpers import baseline_demand, baseline_market, baseline_suppliers, examples, perfbench_solve_problems
from oracles import reference_optimum, reference_solve

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


def at_fractile(fractile: float, nu: float, a1: float, a3: float, demand=None) -> tuple:
    """A baseline market with one supplier whose critical fractile at alpha = 0
    is ``fractile``. Near 1 a small a1 keeps the cost above salvage at
    alpha = 1, and a3 keeps alpha* inside (0, 1)."""
    market = baseline_market(a1=a1, a3=a3, nu=nu)
    margin = market.price + market.penalty
    supplier = SupplierProfile(id=1, base_cost=margin - fractile * (margin - market.salvage), beta=0.0)
    return market, (supplier,), demand or baseline_demand()


CASES = {
    "baseline": (baseline_market(), baseline_suppliers(), baseline_demand()),
    "corner-alpha-1": (baseline_market(a3=100.0), baseline_suppliers(), baseline_demand()),
    # alpha* about 1.2e-153 is a normal float, though a3 * nu overflows.
    "a3-6e307-nu-3": (baseline_market(a3=6e307, nu=3.0), baseline_suppliers(), baseline_demand()),
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
    "fractile-1e-4-nu-1.5": at_fractile(1e-4, 1.5, a1=5.0, a3=2000.0),
    "fractile-1e-4-nu-2.5": at_fractile(1e-4, 2.5, a1=5.0, a3=20000.0),
    "fractile-1-minus-1e-4-nu-1.5": at_fractile(1.0 - 1e-4, 1.5, a1=0.01, a3=1.0),
    "fractile-1-minus-1e-4-nu-2.5": at_fractile(1.0 - 1e-4, 2.5, a1=0.01, a3=1.0),
    "fractile-1-minus-1e-4-right-3-sigma": at_fractile(1.0 - 1e-4, 1.5, a1=0.01, a3=1.0, demand=window("right", 3.0)),
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


def with_a3_for(nu: float, demand, optimum: tuple) -> tuple:
    """A baseline problem whose a3 puts alpha* where ``optimum`` says:
    ("root", alpha) makes the envelope slope vanish at alpha, and
    ("corner", share) sets a3 = share * a1 * Q*(1) / nu, so the slope at
    alpha = 1 is nonnegative and alpha* = 1."""
    market, suppliers = baseline_market(nu=nu), baseline_suppliers()
    kind, value = optimum
    alpha = value if kind == "root" else 1.0
    scale = market.a1 * optimal_quantity_given_alpha(market, suppliers, demand, alpha).total / nu
    a3 = scale / alpha ** (nu - 1.0) if kind == "root" else value * scale
    return dataclasses.replace(market, a3=a3), suppliers, demand


OPTIMA = (
    st.tuples(st.just("root"), st.floats(0.01, 0.99) | st.floats(-9.0, -2.0).map(lambda e: 10.0**e))
    | st.tuples(st.just("corner"), st.floats(0.05, 1.0))
)


@settings(max_examples=examples(20), deadline=None)
@given(
    nu=st.floats(1.05, 4.0),
    position=st.sampled_from(("around", "left", "right")),
    width=st.floats(-3.0, math.log10(30.0)).map(lambda e: 10.0**e),
    optimum=OPTIMA,
)
def test_optimize_matches_the_reference_over_the_model_space(nu, position, width, optimum):
    market, suppliers, demand = with_a3_for(nu, window(position, width), optimum)
    alpha, q = reference_solve(market, suppliers, demand)
    opt = optimize(market, suppliers, demand)
    with mpmath.workdps(40):
        assert abs(opt.alpha_star - alpha) <= TOLERANCE * alpha
        assert abs(opt.q_star - q) <= TOLERANCE * q


@pytest.mark.parametrize("name", list(CASES))
def test_expected_profit_matches_the_reference(name):
    market, suppliers, demand = CASES[name]
    profit = reference_optimum(market, suppliers, demand).profit
    opt = optimize(market, suppliers, demand)
    with mpmath.workdps(40):
        assert abs(opt.breakdown.expected_profit - profit) <= TOLERANCE * abs(profit)


@pytest.mark.parametrize("name", list(CASES))
def test_adoption_threshold_matches_the_reference(name):
    """adoption_threshold(..., 1.0, 1e6) returns a3* within 1e-12, 1.0 when
    a3* <= 1, and raises ThresholdNotFoundError when a3* > 1e6."""
    market, suppliers, demand = CASES[name]
    a3 = reference_optimum(market, suppliers, demand).threshold
    with mpmath.workdps(40):
        if a3 > 1e6:
            with pytest.raises(ThresholdNotFoundError):
                adoption_threshold(market, suppliers, demand, 1.0, 1e6)
        elif a3 <= 1.0:
            assert adoption_threshold(market, suppliers, demand, 1.0, 1e6) == 1.0
        else:
            assert abs(adoption_threshold(market, suppliers, demand, 1.0, 1e6) - a3) <= TOLERANCE * a3

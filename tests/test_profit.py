from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from procurekit.errors import ValidationError
from procurekit.optimizer import optimize
from procurekit.profit import (
    Decision,
    _mean,
    _mean_inverse,
    _sample_std,
    breakdown_from_draws,
    expected_profit_closed_form,
    expected_profit_monte_carlo,
    fill_rate_distribution,
)

from helpers import baseline_demand, baseline_market, baseline_suppliers
from oracles import breakdown_by_numpy_reductions, simpson

MARKET = baseline_market()
SUPPLIERS = baseline_suppliers()
DEMAND = baseline_demand()


def profit_by_quadrature(market, suppliers, demand, decision):
    """Independent route: integrate the realized profit against the density."""
    q_total = decision.total

    def gross(x):
        served = np.minimum(q_total, x)
        return (
            market.price * served
            + market.salvage * (q_total - served)
            - market.penalty * (x - served)
        ) * demand.pdf(x)

    lo, hi = demand.lower, demand.upper
    if lo < q_total < hi:
        # Split at the kink so Simpson converges cleanly.
        value = simpson(gross, lo, q_total) + simpson(gross, q_total, hi)
    else:
        value = simpson(gross, lo, hi)
    costs = sum(
        market.unit_cost(sup, decision.alpha) * q
        for sup, q in zip(suppliers, decision.quantities)
        if q > 0
    )
    return value - costs - market.adoption_cost(decision.alpha)


DECISIONS = [
    Decision(alpha=0.0, quantities=(0.0, 0.0, 51.6)),
    Decision(alpha=0.3, quantities=(10.0, 5.0, 40.0)),
    Decision(alpha=1.0, quantities=(0.0, 60.0, 0.0)),
    Decision(alpha=0.15, quantities=(35.0, 0.0, 0.0)),
    Decision(alpha=0.5, quantities=(0.0, 0.0, 72.0)),  # ordering above the demand cap
]


class TestDecision:
    def test_total(self):
        assert Decision(alpha=0.2, quantities=(1.0, 2.0, 3.5)).total == 6.5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            Decision(alpha=1.2, quantities=(1.0,))

    def test_rejects_negative_quantity(self):
        with pytest.raises(ValidationError):
            Decision(alpha=0.2, quantities=(1.0, -0.5))

    def test_rejects_empty_quantities(self):
        with pytest.raises(ValidationError):
            Decision(alpha=0.2, quantities=())

    def test_supplier_count_must_match(self):
        with pytest.raises(ValidationError, match="quantities"):
            expected_profit_closed_form(
                MARKET, SUPPLIERS, DEMAND, Decision(alpha=0.0, quantities=(5.0,))
            )


class TestClosedForm:
    @pytest.mark.parametrize("decision", DECISIONS)
    def test_matches_quadrature(self, decision):
        cf = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, decision)
        oracle = profit_by_quadrature(MARKET, SUPPLIERS, DEMAND, decision)
        assert cf.expected_profit == pytest.approx(oracle, rel=1e-8, abs=1e-6)

    @pytest.mark.parametrize("decision", DECISIONS)
    def test_accounting_identity_exact(self, decision):
        b = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, decision)
        assert b.expected_profit == (
            b.expected_revenue
            + b.expected_salvage
            - b.expected_penalty
            - b.procurement_cost
            - b.adoption_cost
        )
        assert b.std_error == 0.0

    def test_frozen_reference_decision(self):
        # Order 51.6 from the cheapest supplier at alpha=0; value frozen from
        # the quadrature oracle during development.
        b = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, DECISIONS[0])
        assert b.expected_profit == pytest.approx(2363.9625707, abs=1e-5)

    def test_penalty_rate_is_normalized_excess(self):
        b = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, DECISIONS[0])
        assert b.penalty_rate == pytest.approx(
            DEMAND.expected_excess(51.6) / DEMAND.mean, abs=1e-15
        )

    def test_concave_in_total_quantity(self):
        qs = np.linspace(31.0, 69.0, 153)
        profits = [
            expected_profit_closed_form(
                MARKET, SUPPLIERS, DEMAND, Decision(alpha=0.2, quantities=(0.0, 0.0, float(q)))
            ).expected_profit
            for q in qs
        ]
        second = np.diff(profits, 2)
        assert float(second.max()) < 1e-9

    def test_fill_metrics_nan_when_support_touches_zero(self):
        demand = baseline_demand(mu=1.0, sigma=1.0, lower=-1.0, upper=3.0)
        b = expected_profit_closed_form(
            MARKET, SUPPLIERS, demand, Decision(alpha=0.0, quantities=(0.0, 0.0, 1.0))
        )
        assert math.isnan(b.fill_rate_mean)
        assert math.isfinite(b.expected_profit)

    def test_fill_metrics_of_a_window_reaching_past_40_sigma_are_those_of_the_window_within(self):
        # The density underflows to 0 past 40 sigmas; spread over the whole
        # window, the quadrature's nodes would miss the mass on either side.
        far = baseline_demand(mu=1e6, sigma=10.0, lower=1e-9, upper=2e6)
        near = baseline_demand(mu=1e6, sigma=10.0, lower=1e6 - 400.0, upper=1e6 + 400.0)
        for total in (1e6 - 5.0, 1e6 + 3.0):
            decision = Decision(alpha=0.0, quantities=(0.0, 0.0, total))
            fills = [
                (b.fill_rate_mean, b.fill_rate_cvar10)
                for b in (expected_profit_closed_form(MARKET, SUPPLIERS, d, decision) for d in (far, near))
            ]
            assert fills[0] == fills[1] and 0.9999 < fills[0][1] < fills[0][0] < 1.0

    @pytest.mark.parametrize("floats", [1, 16])
    def test_fill_metrics_of_a_window_a_few_floats_wide(self, floats):
        # Unclamped, the 1-float window read (1.0000007186, 0.0), the 90%
        # quantile rounding to upper, and the 16-float one a CVaR10 of 1.25.
        upper = 1e6
        for _ in range(floats):
            upper = math.nextafter(upper, math.inf)
        demand = baseline_demand(mu=1e6, sigma=1.0, lower=1e6, upper=upper)
        b = expected_profit_closed_form(
            MARKET, SUPPLIERS, demand, Decision(alpha=0.0, quantities=(0.0, 0.0, 1e6))
        )
        for fill in (b.fill_rate_mean, b.fill_rate_cvar10):
            assert 0.0 <= fill <= 1.0 and fill == pytest.approx(1.0, abs=1e-9)


class TestMonteCarlo:
    @pytest.mark.parametrize("decision", DECISIONS[:3])
    def test_within_three_standard_errors(self, decision):
        cf = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, decision)
        mc = expected_profit_monte_carlo(
            MARKET, SUPPLIERS, DEMAND, decision, 200_000, np.random.default_rng(17)
        )
        assert mc.std_error > 0.0
        assert abs(mc.expected_profit - cf.expected_profit) < 3.0 * mc.std_error

    def test_accounting_identity_exact(self):
        mc = expected_profit_monte_carlo(
            MARKET, SUPPLIERS, DEMAND, DECISIONS[1], 5_000, np.random.default_rng(3)
        )
        assert mc.expected_profit == (
            mc.expected_revenue
            + mc.expected_salvage
            - mc.expected_penalty
            - mc.procurement_cost
            - mc.adoption_cost
        )

    def test_fill_metrics_agree_with_closed_form(self):
        cf = expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, DECISIONS[0])
        mc = expected_profit_monte_carlo(
            MARKET, SUPPLIERS, DEMAND, DECISIONS[0], 400_000, np.random.default_rng(5)
        )
        assert mc.fill_rate_mean == pytest.approx(cf.fill_rate_mean, abs=5e-4)
        assert mc.fill_rate_cvar10 == pytest.approx(cf.fill_rate_cvar10, abs=2e-3)
        assert mc.penalty_rate == pytest.approx(cf.penalty_rate, abs=5e-4)

    def test_common_random_numbers_cancel_noise(self):
        d1 = Decision(alpha=0.2, quantities=(0.0, 0.0, 50.0))
        d2 = Decision(alpha=0.2, quantities=(0.0, 0.0, 52.0))
        cf_gap = (
            expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, d2).expected_profit
            - expected_profit_closed_form(MARKET, SUPPLIERS, DEMAND, d1).expected_profit
        )
        n = 20_000
        mc1 = expected_profit_monte_carlo(MARKET, SUPPLIERS, DEMAND, d1, n, np.random.default_rng(11))
        mc2 = expected_profit_monte_carlo(MARKET, SUPPLIERS, DEMAND, d2, n, np.random.default_rng(11))
        crn_gap = mc2.expected_profit - mc1.expected_profit
        # Independent streams would put sqrt(2)*std_error ~ 5.1 USD of noise on
        # the gap; the paired estimator's own noise is ~1.2 USD. Require the
        # clear win.
        assert abs(crn_gap - cf_gap) < 0.5 * math.sqrt(2.0) * mc1.std_error

    def test_draw_reuse_equals_fresh_generator(self):
        draws = DEMAND.sample(np.random.default_rng(23), 4_000)
        via_draws = breakdown_from_draws(MARKET, SUPPLIERS, DEMAND, DECISIONS[1], draws)
        via_rng = expected_profit_monte_carlo(
            MARKET, SUPPLIERS, DEMAND, DECISIONS[1], 4_000, np.random.default_rng(23)
        )
        assert via_draws == via_rng

    def test_rejects_a_bool_among_the_draws(self):
        draws = [True, *DEMAND.sample(np.random.default_rng(23), 10).tolist()]
        with pytest.raises(ValidationError, match=r"^draws must be a 1-D array of real numbers, got a bool"):
            breakdown_from_draws(MARKET, SUPPLIERS, DEMAND, DECISIONS[1], draws)

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValidationError, match="draws"):
            expected_profit_monte_carlo(
                MARKET, SUPPLIERS, DEMAND, DECISIONS[0], 1, np.random.default_rng(0)
            )


def bits(breakdown) -> list[str]:
    return [float(v).hex() for v in dataclasses.astuple(breakdown)]


class TestDrawReductions:
    # Sizes on both sides of numpy's 8-way unrolled and 128-element pairwise
    # summation blocks.
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 5000, 100001])
    def test_mean_and_sample_std_equal_numpy(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.normal(50.0, 8.0, n), rng.random(n) * 1e6 - 3e5, 1.0 + rng.random(n) * 1e-9):
            assert _mean(values) == float(values.mean())
            assert _sample_std(values) == float(values.std(ddof=1))

    @pytest.mark.parametrize(
        "demand", [DEMAND, baseline_demand(mu=1.0, sigma=1.0, lower=-1.0, upper=3.0)], ids=["positive", "from -1"]
    )
    @pytest.mark.parametrize("n", [2, 9, 129, 5000])
    def test_breakdown_equals_numpy_reductions(self, demand, n):
        draws = demand.sample(np.random.default_rng(n), n)
        kept = draws.copy()
        for decision in DECISIONS:
            got = breakdown_from_draws(MARKET, SUPPLIERS, demand, decision, draws)
            assert bits(got) == bits(breakdown_by_numpy_reductions(MARKET, SUPPLIERS, demand, decision, draws))
        assert np.array_equal(draws, kept)


class TestNonpositiveMeanDemand:
    # Symmetric about zero: the mean is exactly 0.0.
    DEMAND = baseline_demand(mu=0.0, sigma=1.0, lower=-1.0, upper=1.0)

    def test_closed_form_names_the_mean(self):
        with pytest.raises(ValidationError, match="positive mean demand, got mean 0.0"):
            expected_profit_closed_form(MARKET, SUPPLIERS, self.DEMAND, DECISIONS[0])

    def test_monte_carlo_names_the_mean(self):
        with pytest.raises(ValidationError, match="positive mean demand, got mean -"):
            expected_profit_monte_carlo(
                MARKET, SUPPLIERS, baseline_demand(mu=-0.5, sigma=1.0, lower=-1.0, upper=1.0),
                DECISIONS[0], 100, np.random.default_rng(0),
            )

    def test_optimize_raises_validation_error(self):
        with pytest.raises(ValidationError, match="mean 0.0"):
            optimize(MARKET, SUPPLIERS, self.DEMAND)


class TestPenaltyRateOverTheModelMean:
    # A support below zero with mean 0.0035: a draw set's own mean can be
    # negative, so a rate over it would swing by a factor of four or be refused.
    DEMAND = baseline_demand(mu=0.0, sigma=1.0, lower=-1.0, upper=1.01)

    @pytest.mark.parametrize("seed", range(4))
    def test_twin_rate_is_near_the_closed_form(self, seed):
        opt = optimize(MARKET, SUPPLIERS, self.DEMAND)
        assert opt.breakdown.penalty_rate == pytest.approx(48.7159, rel=1e-5)
        twin = expected_profit_monte_carlo(
            MARKET, SUPPLIERS, self.DEMAND, opt.decision, 5000, np.random.default_rng(seed)
        )
        assert twin.penalty_rate == pytest.approx(opt.breakdown.penalty_rate, rel=0.05)


class TestFillRateDistribution:
    def test_summary_shape(self):
        s = fill_rate_distribution(DEMAND, 51.6, 100_000, np.random.default_rng(2))
        assert 0.0 < s.cvar10 <= s.p10 <= s.p25 <= s.p50 <= s.p75 <= s.p90 <= 1.0
        assert 0.0 <= s.prob_fill_ge_090 <= 1.0
        assert s.cv == pytest.approx(s.std / s.mean)

    def test_prob_fill_matches_closed_form(self):
        q = 51.6
        s = fill_rate_distribution(DEMAND, q, 400_000, np.random.default_rng(29))
        # fill >= 0.9 iff demand <= q / 0.9
        assert s.prob_fill_ge_090 == pytest.approx(DEMAND.cdf(q / 0.9), abs=2e-3)

    def test_full_supply_fills_everything(self):
        s = fill_rate_distribution(DEMAND, 70.0, 1_000, np.random.default_rng(1))
        assert s.mean == 1.0
        assert s.cvar10 == 1.0

    def test_rejects_nonpositive_support(self):
        demand = baseline_demand(mu=1.0, sigma=1.0, lower=0.0, upper=3.0)
        with pytest.raises(ValidationError, match="positive demand support"):
            fill_rate_distribution(demand, 1.0, 1_000, np.random.default_rng(0))

    def test_rejects_negative_supply(self):
        with pytest.raises(ValidationError):
            fill_rate_distribution(DEMAND, -1.0, 1_000, np.random.default_rng(0))


def test_mean_inverse_of_an_empty_interval_is_zero():
    # _closed_form_fills meets [upper, upper] when the 90% quantile rounds to upper.
    assert _mean_inverse(DEMAND, 70.0, 70.0) == 0.0

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procurekit.economics import (
    DEFAULT_READINESS_WEIGHTS,
    MarketEconomics,
    ReadinessComponents,
    SupplierProfile,
    adoption_cost,
    adoption_cost_slope,
    cheapest_supplier,
    composite_beta,
    unit_cost,
)
from procurekit.errors import NegativeUnitCostError, ValidationError

from helpers import baseline_market, baseline_suppliers
from oracles import central_difference


class TestUnitCost:
    def test_reference_value_exact(self):
        assert unit_cost(100.0, alpha=0.5, beta=0.2, a1=5.0, a2=8.0) == 95.9

    def test_linear_decomposition(self):
        base = unit_cost(100.0, 0.0, 0.0, 5.0, 8.0)
        assert base == 100.0
        assert unit_cost(100.0, 1.0, 0.0, 5.0, 8.0) == base - 5.0
        assert unit_cost(100.0, 0.0, 1.0, 5.0, 8.0) == base - 8.0

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(NegativeUnitCostError):
            unit_cost(4.0, 1.0, 0.0, 5.0, 8.0)
        with pytest.raises(NegativeUnitCostError):
            unit_cost(13.0, 1.0, 1.0, 5.0, 8.0)  # exactly zero is also rejected

    def test_rejects_out_of_range_levers(self):
        with pytest.raises(ValidationError):
            unit_cost(100.0, 1.5, 0.2, 5.0, 8.0)
        with pytest.raises(ValidationError):
            unit_cost(100.0, 0.5, -0.1, 5.0, 8.0)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        delta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_alpha(self, alpha, delta):
        hi = min(1.0, alpha + delta)
        assert unit_cost(100.0, hi, 0.3, 5.0, 8.0) <= unit_cost(100.0, alpha, 0.3, 5.0, 8.0)


class TestCompositeBeta:
    def test_weights_reproduced_by_unit_components(self):
        for k, w in enumerate(DEFAULT_READINESS_WEIGHTS):
            components = [0.0] * 5
            components[k] = 1.0
            assert composite_beta(components) == w

    def test_default_weights_sum_to_one(self):
        assert sum(DEFAULT_READINESS_WEIGHTS) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_profile(self):
        value = composite_beta([0.5, 0.5, 0.5, 0.5, 0.5])
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            composite_beta([0.5] * 5, weights=(0.3, 0.3, 0.2, 0.15, 0.10))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            composite_beta([0.5] * 5, weights=(1.1, 0.1, -0.1, -0.05, -0.05))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="components"):
            composite_beta([0.5, 0.5])

    def test_rejects_component_out_of_range(self):
        with pytest.raises(ValidationError):
            composite_beta([0.5, 0.5, 1.2, 0.5, 0.5])

    def test_components_dataclass_round_trip(self):
        rc = ReadinessComponents(supply_chain=1.0, erp=0.0, cloud=0.0, hr=0.0, security=0.0)
        assert rc.composite() == DEFAULT_READINESS_WEIGHTS[0]
        sup = SupplierProfile.from_components(7, 100.0, rc)
        assert sup.beta == DEFAULT_READINESS_WEIGHTS[0]

    @given(x=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_composite_stays_in_unit_interval(self, x):
        assert 0.0 <= composite_beta(x) <= 1.0


class TestAdoptionCost:
    def test_endpoints(self):
        assert adoption_cost(0.0, 2000.0, 1.5) == 0.0
        assert adoption_cost(1.0, 2000.0, 1.5) == 2000.0

    def test_slope_zero_at_origin(self):
        assert adoption_cost_slope(0.0, 2000.0, 1.5) == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("nu", [1.2, 1.5, 2.0, 3.0])
    def test_slope_matches_finite_difference(self, alpha, nu):
        fd = central_difference(lambda a: adoption_cost(a, 2000.0, nu), alpha, h=1e-7)
        assert adoption_cost_slope(alpha, 2000.0, nu) == pytest.approx(fd, rel=1e-5)

    def test_slope_increasing(self):
        # Convexity: marginal cost rises with alpha.
        slopes = [adoption_cost_slope(a / 20.0, 2000.0, 1.5) for a in range(21)]
        assert all(lo < hi for lo, hi in zip(slopes, slopes[1:]))

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            adoption_cost(1.2, 2000.0, 1.5)


class TestMarketEconomics:
    def test_valid_baseline(self):
        m = baseline_market()
        assert m.price == 150.0
        assert m.unit_cost(baseline_suppliers()[0], 0.5) == 95.9

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(price=0.0), "price"),
            (dict(salvage=-1.0), "salvage"),
            (dict(salvage=150.0), "salvage"),
            (dict(penalty=-0.5), "penalty"),
            (dict(a1=-1.0), "a1"),
            (dict(a2=-2.0), "a2"),
            (dict(a3=-10.0), "a3"),
            (dict(nu=1.0), "nu"),
            (dict(price=math.nan), "price"),
            (dict(salvage=math.nan), "salvage"),
            (dict(penalty=math.nan), "penalty"),
            (dict(a1=math.nan), "a1"),
            (dict(a2=math.inf), "a2"),
            (dict(a3=math.nan), "a3"),
            (dict(a3=math.inf), "a3"),
            (dict(nu=math.inf), "nu"),
            (dict(nu=math.nan), "nu"),
            (dict(price=10**400), "price"),
            (dict(a3=-(10**400)), "a3"),
        ],
    )
    def test_rejects_invalid_fields(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            baseline_market(**overrides)

    def test_supplier_validation(self):
        with pytest.raises(ValidationError):
            SupplierProfile(id=1, base_cost=-3.0, beta=0.5)
        with pytest.raises(ValidationError):
            SupplierProfile(id=1, base_cost=100.0, beta=1.4)


class TestCheapestSupplier:
    def test_baseline_winner(self):
        # Readiness discounts dominate: 98 - 8*0.7 beats both rivals.
        idx, cost = cheapest_supplier(baseline_market(), baseline_suppliers(), alpha=0.0)
        assert idx == 2
        assert cost == pytest.approx(92.4, abs=1e-12)

    def test_alpha_shifts_all_equally(self):
        m = baseline_market()
        sup = baseline_suppliers()
        idx0, c0 = cheapest_supplier(m, sup, 0.0)
        idx1, c1 = cheapest_supplier(m, sup, 1.0)
        assert idx0 == idx1
        assert c1 == pytest.approx(c0 - m.a1, abs=1e-12)

    def test_tie_breaks_to_lowest_id(self):
        m = baseline_market()
        pair = (
            SupplierProfile(id=9, base_cost=100.0, beta=0.5),
            SupplierProfile(id=2, base_cost=100.0, beta=0.5),
        )
        idx, _ = cheapest_supplier(m, pair, 0.3)
        assert pair[idx].id == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            cheapest_supplier(baseline_market(), (), 0.0)

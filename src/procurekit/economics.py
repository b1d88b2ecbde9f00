"""Cost-side economics: supplier readiness, unit costs, and adoption spend.

A supplier's effective unit cost falls linearly in two levers: the buyer's
contract-automation intensity alpha (one dial for the whole panel) and the
supplier's own digital readiness beta. Readiness can be given directly or
aggregated by ``composite_beta`` from five audited components with fixed
weights. Pushing alpha up is not free: it carries a convex adoption cost
a3 * alpha**nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    NegativeUnitCostError, ValidationError, check_finite, check_unit_interval, is_int, real_array,
)

__all__ = [
    "DEFAULT_READINESS_WEIGHTS",
    "SupplierProfile",
    "MarketEconomics",
    "composite_beta",
    "unit_cost",
    "adoption_cost",
    "adoption_cost_slope",
    "cheapest_supplier",
]

# Component order: supply chain, ERP, cloud, HR, security.
DEFAULT_READINESS_WEIGHTS: tuple[float, ...] = (0.28, 0.27, 0.20, 0.15, 0.10)


def composite_beta(components: Sequence[float]) -> float:
    """Readiness score sum(w_k * x_k) under the fixed DEFAULT_READINESS_WEIGHTS.

    Parameters
    ----------
    components : sequence of float
        Five scores, each in [0, 1], in weight order: supply_chain, erp,
        cloud, hr, security.

    Returns
    -------
    float
        Composite readiness in [0, 1].
    """
    scores = real_array("components", components, (1,)).tolist()
    if len(scores) != len(DEFAULT_READINESS_WEIGHTS):
        raise ValidationError(
            f"got {len(scores)} components but {len(DEFAULT_READINESS_WEIGHTS)} weights"
        )
    scores = [check_unit_interval(f"components[{i}]", x) for i, x in enumerate(scores)]
    return math.fsum(w * x for w, x in zip(DEFAULT_READINESS_WEIGHTS, scores))


@dataclass(frozen=True)
class SupplierProfile:
    """One supplier: identifier, negotiated base unit cost, readiness beta."""

    id: int
    base_cost: float
    beta: float

    def __post_init__(self) -> None:
        if not is_int(self.id):
            raise ValidationError(f"id must be an integer, got {self.id!r}")
        object.__setattr__(self, "base_cost", check_finite("base_cost", self.base_cost))
        if self.base_cost <= 0.0:
            raise ValidationError(f"base_cost must be positive, got {self.base_cost!r}")
        object.__setattr__(self, "beta", check_unit_interval("beta", self.beta))


@dataclass(frozen=True)
class MarketEconomics:
    """Market-level prices and cost coefficients.

    price/salvage/penalty are per unit sold, left over, and short. a1 and a2
    scale the unit-cost reductions from alpha and beta; a3 and nu shape the
    convex adoption cost. nu > 1 keeps the adoption problem strictly convex.
    Every field must be finite.
    """

    price: float
    salvage: float
    penalty: float
    a1: float
    a2: float
    a3: float
    nu: float

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, so finiteness comes first.
        for name in ("price", "salvage", "penalty", "a1", "a2", "a3", "nu"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        if self.price <= 0.0:
            raise ValidationError(f"price must be positive, got {self.price!r}")
        if not 0.0 <= self.salvage < self.price:
            raise ValidationError(f"salvage must lie in [0, price), got {self.salvage!r} with price {self.price!r}")
        for name in ("penalty", "a1", "a2", "a3"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        _check_adoption_terms(self.a3, self.nu)

    def unit_cost(self, supplier: SupplierProfile, alpha: float) -> float:
        # The solver prices every supplier here, and the fields were checked
        # at construction, so this skips unit_cost's argument checks.
        return _unit_cost(supplier.base_cost, alpha, supplier.beta, self.a1, self.a2)

    def adoption_cost(self, alpha: float) -> float:
        return adoption_cost(alpha, self.a3, self.nu)

    def adoption_cost_slope(self, alpha: float) -> float:
        return adoption_cost_slope(alpha, self.a3, self.nu)


def unit_cost(base_cost: float, alpha: float, beta: float, a1: float, a2: float) -> float:
    """Effective unit cost base_cost - a1*alpha - a2*beta.

    Raises ValidationError naming an argument that is not a finite real
    number, or a lever alpha or beta outside [0, 1], and
    NegativeUnitCostError when the reductions drive the cost to zero or
    below, which would make the procurement problem unbounded.
    """
    base_cost, a1, a2 = check_finite("base_cost", base_cost), check_finite("a1", a1), check_finite("a2", a2)
    return _unit_cost(base_cost, alpha, beta, a1, a2)


def _unit_cost(base_cost: float, alpha: float, beta: float, a1: float, a2: float) -> float:
    alpha, beta = check_unit_interval("alpha", alpha), check_unit_interval("beta", beta)
    cost = base_cost - a1 * alpha - a2 * beta
    if cost <= 0.0:
        raise NegativeUnitCostError(
            f"unit cost {cost!r} <= 0 for base_cost={base_cost!r}, "
            f"alpha={alpha!r}, beta={beta!r}, a1={a1!r}, a2={a2!r}"
        )
    return cost


def _check_adoption_terms(a3: float, nu: float) -> tuple[float, float]:
    """a3 and nu as floats. Refuses by name an a3 that is not finite, or a nu
    that is not finite or not above 1, as MarketEconomics does."""
    a3, nu = check_finite("a3", a3), check_finite("nu", nu)
    if nu <= 1.0:
        raise ValidationError(f"nu must exceed 1, got {nu!r}")
    return a3, nu


def adoption_cost(alpha: float, a3: float, nu: float) -> float:
    """Convex adoption spend a3 * alpha**nu for alpha in [0, 1] and nu > 1."""
    a3, nu = _check_adoption_terms(a3, nu)
    return a3 * check_unit_interval("alpha", alpha) ** nu


def adoption_cost_slope(alpha: float, a3: float, nu: float) -> float:
    """Marginal adoption cost a3 * (nu * alpha**(nu-1)), zero at alpha=0 for nu>1.

    nu scales the power before a3 does, as in the solver's slope, so the
    product of a3 and nu, which can overflow, is never formed, and an
    underflowing power gives 0, never inf * 0 = NaN."""
    a3, nu = _check_adoption_terms(a3, nu)
    alpha = check_unit_interval("alpha", alpha)
    return a3 * (nu * alpha ** (nu - 1.0))


def cheapest_supplier(
    market: MarketEconomics, suppliers: Sequence[SupplierProfile], alpha: float
) -> tuple[int, float]:
    """Index (into the sequence) and unit cost of the cheapest supplier.

    Ties resolve to the lowest supplier id, then to the first listed, so
    allocations are reproducible.
    """
    if not suppliers:
        raise ValidationError("supplier list is empty")
    cost, _, idx = min((market.unit_cost(sup, alpha), sup.id, idx) for idx, sup in enumerate(suppliers))
    return idx, cost

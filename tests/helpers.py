"""Shared builders for the default parameterization used across tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from procurekit.demand import TruncatedNormal
from procurekit.economics import MarketEconomics, SupplierProfile, cheapest_supplier
from procurekit.errors import ValidationError


def examples(n: int) -> int:
    """A fuzz test's example budget: n under the tier1 hypothesis profile,
    scaled by the loaded profile's max_examples over hypothesis' default of
    100, so the wide profile (conftest.py) draws ten times as many."""
    return n * settings.default.max_examples // 100


def baseline_market(**overrides) -> MarketEconomics:
    params = dict(price=150.0, salvage=20.0, penalty=40.0, a1=5.0, a2=8.0, a3=2000.0, nu=1.5)
    params.update(overrides)
    return MarketEconomics(**params)


def baseline_suppliers() -> tuple[SupplierProfile, ...]:
    return (
        SupplierProfile(id=1, base_cost=100.0, beta=0.20),
        SupplierProfile(id=2, base_cost=102.0, beta=0.50),
        SupplierProfile(id=3, base_cost=98.0, beta=0.70),
    )


def baseline_demand(**overrides) -> TruncatedNormal:
    params = dict(mu=50.0, sigma=8.0, lower=30.0, upper=70.0)
    params.update(overrides)
    return TruncatedNormal(**params)


def random_problem(rng: np.random.Generator):
    """Draw a well-posed problem with an interior service-level regime.

    Rejection-samples until the cheapest unit cost clears salvage at every
    alpha and the critical fractile stays inside (0.05, 0.95), so optima are
    interior and KKT residual checks are meaningful.
    """
    from procurekit.optimizer import critical_fractile

    while True:
        price = float(rng.uniform(80.0, 200.0))
        try:
            market = MarketEconomics(
                price=price,
                salvage=float(rng.uniform(0.0, 0.3 * price)),
                penalty=float(rng.uniform(0.0, 60.0)),
                a1=float(rng.uniform(0.5, 8.0)),
                a2=float(rng.uniform(0.0, 10.0)),
                a3=float(rng.uniform(300.0, 6000.0)),
                nu=float(rng.uniform(1.2, 2.5)),
            )
            suppliers = tuple(
                SupplierProfile(
                    id=i + 1,
                    base_cost=float(rng.uniform(60.0, 140.0)),
                    beta=float(rng.uniform(0.0, 1.0)),
                )
                for i in range(int(rng.integers(2, 5)))
            )
            mu = float(rng.uniform(20.0, 80.0))
            sigma = float(rng.uniform(3.0, 15.0))
            lower = mu - float(rng.uniform(1.5, 3.0)) * sigma
            upper = mu + float(rng.uniform(1.5, 3.0)) * sigma
            if lower <= 1.0:
                continue
            demand = TruncatedNormal(mu=mu, sigma=sigma, lower=lower, upper=upper)
            _, cost_hi = cheapest_supplier(market, suppliers, 0.0)
            _, cost_lo = cheapest_supplier(market, suppliers, 1.0)
            if cost_lo <= market.salvage + 1.0:
                continue
            if not 0.05 < critical_fractile(market, cost_hi) < 0.95:
                continue
            if not 0.05 < critical_fractile(market, cost_lo) < 0.95:
                continue
        except ValidationError:
            continue
        return market, suppliers, demand


def cell_model(spec, coordinates):
    """The (market, suppliers, demand) of a scenario cell set by market.* and
    demand.* coordinates."""
    import dataclasses

    market, demand = spec.market, spec.demand
    for path, value in coordinates:
        scope, _, field = path.partition(".")
        if scope == "market":
            market = dataclasses.replace(market, **{field: float(value)})
        elif scope == "demand":
            demand = dataclasses.replace(demand, **{field: float(value)})
        else:
            raise ValueError(f"no model rebuild for {path!r}")
    return market, spec.suppliers, demand


def perfbench_solve_problems(seed: int):
    """The generated problems of the benchmark's solve workload."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules.setdefault(module_spec.name, importlib.util.module_from_spec(module_spec))
    module_spec.loader.exec_module(module)
    return [(p.market, p.suppliers, p.demand) for p in module.solve_problems(seed)]

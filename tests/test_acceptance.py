"""Acceptance gate: eleven end-to-end checks, one pass/fail line each.

Run with ``pytest -v`` so every criterion reports by test name; each test
also prints a ``criterion NN PASS/FAIL`` line naming any failed sub-check.

Criterion 8's parameter-ranking sub-check fails by design of the model: over
the shipped ranges the adoption cost scale swings the optimal adoption level
by a factor of about sixty while demand spread moves it a few percent, so
the cost scale dominates its variance and no decomposition can rank demand
spread first. The README documents this known red.
"""

import dataclasses
import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate

from helpers import random_problem

from procurekit.baseline import (
    BASELINE_DEMAND,
    BASELINE_MARKET,
    BASELINE_SUPPLIERS,
)
from procurekit.cli import main as cli_main
from procurekit.demand import TruncatedNormal
from procurekit.economics import (
    DEFAULT_READINESS_WEIGHTS,
    adoption_cost,
    composite_beta,
    unit_cost,
)
from procurekit.optimizer import optimal_quantity_given_alpha, optimize
from procurekit.profit import (
    Decision,
    expected_profit_closed_form,
    expected_profit_monte_carlo,
    fill_rate_distribution,
)
from procurekit.scenarios import (
    DynamicSpec,
    adaptive_alpha_update,
    latin_hypercube,
    preset,
    run,
    variance_decomposition,
)


def _verdict(number: int, label: str, checks: dict[str, bool]) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = f" [failed: {', '.join(failed)}]" if failed else ""
    print(f"criterion {number:02d} {status}: {label}{suffix}")
    assert not failed, f"criterion {number:02d} failed sub-checks: {failed}"


def _strictly_increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def test_criterion_01_exact_cost_and_readiness_arithmetic():
    """unit cost 100-5*0.5-8*0.2 = 95.9 exactly; weights recoverable."""
    checks = {
        "unit_cost_exact": unit_cost(100.0, alpha=0.5, beta=0.2, a1=5.0, a2=8.0) == 95.9,
    }
    for k, weight in enumerate(DEFAULT_READINESS_WEIGHTS):
        basis = tuple(1.0 if i == k else 0.0 for i in range(len(DEFAULT_READINESS_WEIGHTS)))
        checks[f"weight_{k}_recovered"] = composite_beta(basis) == weight
    _verdict(1, "exact cost and readiness arithmetic", checks)


def test_criterion_02_adaptive_rule_and_cost_schedule():
    """Rule steps 0.200 -> 0.234 -> 0.265 (3 decimals); schedule 3000..1200."""
    second = adaptive_alpha_update(0.2, 0.084, 0.05, 0.05)
    third = adaptive_alpha_update(second, 0.081, 0.05, 0.05)
    dyn = DynamicSpec(
        cycles=10,
        a3_decline=200.0,
        learning_rate=0.05,
        target_penalty=0.05,
        alpha_initial=0.2,
    )
    schedule = [dyn.a3_at(3000.0, t) for t in range(1, 11)]
    checks = {
        "second_level_0.234": round(second, 3) == 0.234,
        "third_level_0.265": round(third, 3) == 0.265,
        "cost_schedule_3000_to_1200": schedule == [3000.0 - 200.0 * t for t in range(10)],
    }
    _verdict(2, "adaptive rule and declining cost schedule", checks)


def test_criterion_03_distribution_moments_and_roundtrip():
    """Moments vs Simpson 1e-8 and MC 3 SE; quantile/cdf round trip 1e-9."""
    dist = TruncatedNormal(mu=50.0, sigma=8.0, lower=30.0, upper=70.0)
    xs = np.linspace(30.0, 70.0, 20001)
    pdf = dist.pdf(xs)
    mean_quad = float(integrate.simpson(xs * pdf, x=xs))
    var_quad = float(integrate.simpson((xs - mean_quad) ** 2 * pdf, x=xs))

    n = 1_000_000
    draws = dist.sample(np.random.default_rng(np.random.SeedSequence(2026)), n)
    se_mean = float(draws.std(ddof=1)) / math.sqrt(n)
    centered_sq = (draws - draws.mean()) ** 2
    se_var = float(centered_sq.std(ddof=1)) / math.sqrt(n)

    ps = np.linspace(0.0, 1.0, 1001)
    roundtrip = float(np.max(np.abs(dist.cdf(dist.quantile(ps)) - ps)))

    checks = {
        "mean_vs_simpson_1e-8": abs(dist.mean - mean_quad) <= 1e-8,
        "variance_vs_simpson_1e-8": abs(dist.variance - var_quad) <= 1e-8,
        "mean_vs_mc_3se": abs(dist.mean - float(draws.mean())) <= 3.0 * se_mean,
        "variance_vs_mc_3se": abs(dist.variance - float(draws.var(ddof=1))) <= 3.0 * se_var,
        "quantile_cdf_roundtrip_1e-9": roundtrip <= 1e-9,
    }
    _verdict(3, "truncated normal moments and quantile round trip", checks)


def _quadrature_profit(market, suppliers, demand, decision) -> float:
    total = decision.total

    def integrand(d: float) -> float:
        served = min(total, d)
        leftover = max(total - d, 0.0)
        shortfall = max(d - total, 0.0)
        return (
            market.price * served
            + market.salvage * leftover
            - market.penalty * shortfall
        ) * float(demand.pdf(d))

    stochastic, _ = integrate.quad(
        integrand, demand.lower, demand.upper, points=[total], limit=200
    )
    procurement = sum(
        market.unit_cost(s, decision.alpha) * q
        for s, q in zip(suppliers, decision.quantities)
    )
    return stochastic - procurement - adoption_cost(decision.alpha, market.a3, market.nu)


def test_criterion_04_profit_equivalence_at_random_decisions():
    """Closed form vs 1e6-draw MC within 3 SE and quadrature within 1e-6 rel."""
    market, suppliers, demand = BASELINE_MARKET, BASELINE_SUPPLIERS, BASELINE_DEMAND
    rng = np.random.default_rng(11)
    checks = {}
    for case in range(20):
        decision = Decision(
            alpha=float(rng.uniform(0.0, 1.0)),
            quantities=tuple(float(q) for q in rng.uniform(0.0, 80.0, size=3)),
        )
        closed = expected_profit_closed_form(market, suppliers, demand, decision)
        mc = expected_profit_monte_carlo(
            market,
            suppliers,
            demand,
            decision,
            1_000_000,
            np.random.default_rng(np.random.SeedSequence(500, spawn_key=(case,))),
        )
        oracle = _quadrature_profit(market, suppliers, demand, decision)
        mc_gap = abs(closed.expected_profit - mc.expected_profit)
        quad_gap = abs(closed.expected_profit - oracle)
        checks[f"case_{case}_mc_3se"] = mc_gap <= 3.0 * mc.std_error
        checks[f"case_{case}_quad_1e-6rel"] = quad_gap <= 1e-6 * max(1.0, abs(oracle))
    _verdict(4, "closed-form profit matches Monte Carlo and quadrature", checks)


def test_criterion_05_kkt_and_grid_argmax_agreement():
    """KKT residuals <= 1e-4, slackness <= 1e-6; grid argmax within one step."""
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
    kkt_ok, slack_ok, grid_ok, interior = True, True, True, 0
    for seed in range(50):
        market, suppliers, demand = random_problem(np.random.default_rng(1000 + seed))
        optimum = optimize(market, suppliers, demand)
        if 0.0 < optimum.alpha_star < 1.0:
            interior += 1
            kkt_ok = kkt_ok and optimum.kkt.max_residual <= 1e-4
            slack_ok = slack_ok and optimum.kkt.complementary_slackness <= 1e-6

        def profile(alpha: float) -> float:
            decision = optimal_quantity_given_alpha(market, suppliers, demand, alpha)
            return expected_profit_closed_form(
                market, suppliers, demand, decision
            ).expected_profit

        best = max(grid, key=profile)
        grid_ok = grid_ok and abs(optimum.alpha_star - best) <= 0.01 + 1e-9
    checks = {
        "kkt_residuals_1e-4": kkt_ok,
        "complementary_slackness_1e-6": slack_ok,
        "grid_argmax_within_one_step": grid_ok,
        "interior_cases_present": interior >= 5,
    }
    _verdict(5, f"optimality on 50 random problems ({interior} interior)", checks)


def test_criterion_06_comparative_statics_trends():
    """Directional responses to spread, bound, and cost scales at 5000 reps."""
    s1 = run(preset("s1"), jobs=2)
    s5 = run(preset("s5"), jobs=2)
    s6 = run(preset("s6"), jobs=2)
    s7 = run(preset("s7"), jobs=2)

    # upper-bound sweep: assert on exact closed-form fill, free of MC noise
    fills_by_bound = []
    for bound in (65.0, 70.0, 75.0, 80.0):
        demand = dataclasses.replace(BASELINE_DEMAND, upper=bound)
        optimum = optimize(BASELINE_MARKET, BASELINE_SUPPLIERS, demand)
        fills_by_bound.append(optimum.breakdown.fill_rate_mean)

    def grouped(rows, outer: str, inner: str, metric):
        groups: dict = {}
        for row in rows:
            coords = dict(row.coordinates)
            groups.setdefault(coords[outer], []).append((coords[inner], metric(row)))
        return [
            [value for _, value in sorted(pairs)] for _, pairs in sorted(groups.items())
        ]

    checks = {
        "quantity_increasing_in_sigma": _strictly_increasing([r.q_star for r in s1]),
        "profit_decreasing_in_sigma": _strictly_decreasing(
            [r.expected_profit for r in s1]
        ),
        "fill_decreasing_in_sigma": _strictly_decreasing([r.fill_rate for r in s1]),
        "fill_decreasing_in_upper_bound": _strictly_decreasing(fills_by_bound),
        "adoption_nonincreasing_in_a3": all(
            b <= a
            for a, b in zip(
                [r.alpha_star for r in s5], [r.alpha_star for r in s5][1:]
            )
        ),
        "adoption_nondecreasing_in_a1_at_each_a3": all(
            all(b >= a for a, b in zip(series, series[1:]))
            for series in grouped(s6, "market.a3", "market.a1", lambda r: r.alpha_star)
        ),
        "profit_decreasing_in_sigma_at_each_a3": all(
            _strictly_decreasing(series)
            for series in grouped(
                s7, "market.a3", "demand.sigma", lambda r: r.expected_profit
            )
        ),
    }
    _verdict(6, "comparative statics trends", checks)


def test_criterion_07_adoption_threshold_tail():
    """alpha* > 0 at cost scale 4000; ~0 with flat profit on the 10k-80k tail."""
    market_4000 = dataclasses.replace(BASELINE_MARKET, a3=4000.0)
    at_4000 = optimize(market_4000, BASELINE_SUPPLIERS, BASELINE_DEMAND).alpha_star

    rows = run(preset("s8"), jobs=2)
    profits = [r.expected_profit for r in rows]
    spread = max(profits) - min(profits)
    allowance = 2.0 * max(r.std_error for r in rows)
    checks = {
        "positive_adoption_at_4000": at_4000 > 0.0,
        "adoption_below_0.005_on_tail": all(r.alpha_star < 0.005 for r in rows),
        "profit_constant_within_2se": spread <= allowance,
    }
    _verdict(7, f"adoption threshold tail (alpha* at 4000 = {at_4000:.6f})", checks)


def test_criterion_08_lhs_variance_decomposition():
    """Shares sum to 100; ranking sub-check is a documented model-level red."""
    rows = run(preset("s9"), jobs=2)
    paths = ("demand.sigma", "demand.upper", "market.a3")
    samples = np.array(
        [[dict(r.coordinates)[p] for p in paths] for r in rows if r.status == "ok"]
    )
    response = np.array([r.alpha_star for r in rows if r.status == "ok"])
    shares = variance_decomposition(samples, response)
    sigma_share, upper_share, a3_share = shares

    design = latin_hypercube([(0.0, 1.0), (0.0, 1.0)], 100, np.random.default_rng(77))
    standardized = (design - design.mean(axis=0)) / design.std(axis=0)
    linear_rng = np.random.default_rng(78)
    linear_response = (
        standardized[:, 0] + standardized[:, 1] + linear_rng.normal(0.0, 0.05, 100)
    )
    recovered = variance_decomposition(design, linear_response)

    checks = {
        "all_cells_solved": len(response) == 100,
        "shares_sum_to_100": abs(float(shares.sum()) - 100.0) <= 1e-6,
        "sigma_largest_and_a3_smallest": sigma_share
        == max(shares)
        and a3_share == min(shares),
        "linear_recovery_50_50_pm_5": all(abs(w - 50.0) <= 5.0 for w in recovered),
    }
    _verdict(
        8,
        "variance decomposition "
        f"(sigma {sigma_share:.1f} / upper {upper_share:.1f} / a3 {a3_share:.1f})",
        checks,
    )


def test_criterion_09_dynamic_trajectories_monotone():
    """Ten cycles: adoption never falls, penalty rate never rises."""
    rows = run(preset("s11"))
    alphas = [r.alpha_star for r in rows]
    penalties = [r.penalty_rate for r in rows]
    checks = {
        "ten_cycles": len(rows) == 10,
        "adoption_nondecreasing": all(b >= a for a, b in zip(alphas, alphas[1:])),
        "penalty_nonincreasing": all(b <= a for a, b in zip(penalties, penalties[1:])),
    }
    _verdict(9, "dynamic adoption and penalty trajectories", checks)


def test_criterion_10_fill_rate_suite_monotone():
    """Mean fill, P(fill >= 0.9), and CVaR10 all rise across adoption-indexed Q."""
    market, suppliers, demand = BASELINE_MARKET, BASELINE_SUPPLIERS, BASELINE_DEMAND
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    quantities, summaries = [], []
    for alpha in levels:
        decision = optimal_quantity_given_alpha(market, suppliers, demand, alpha)
        quantities.append(decision.total)
        summaries.append(
            fill_rate_distribution(
                demand,
                decision.total,
                5000,
                np.random.default_rng(np.random.SeedSequence(910)),
            )
        )
    checks = {
        "quantity_increasing_in_adoption": _strictly_increasing(quantities),
        "mean_fill_increasing": _strictly_increasing([s.mean for s in summaries]),
        "prob_fill_ge_090_increasing": _strictly_increasing(
            [s.prob_fill_ge_090 for s in summaries]
        ),
        "cvar10_increasing": _strictly_increasing([s.cvar10 for s in summaries]),
    }
    _verdict(10, "fill-rate suite monotone across supply levels", checks)


def test_criterion_11_byte_identical_outputs(tmp_path):
    """Same seed, any --jobs: byte-identical CSVs for grid, LHS, and dynamic."""
    runner = CliRunner()

    def scenario(target, out, *extra):
        result = runner.invoke(
            cli_main,
            ["scenario", str(target), "--replications", "1000", "--out", str(out), *extra],
        )
        assert result.exit_code == 0, result.output

    lhs_spec = tmp_path / "lhs.yaml"
    lhs_spec.write_text(
        "scenario:\n"
        "  id: robustness\n"
        "  sampler: latin-hypercube\n"
        "  lhs_samples: 20\n"
        "  axes:\n"
        "    - path: demand.sigma\n"
        "      values: [5.0, 15.0]\n"
        "    - path: market.a3\n"
        "      values: [500.0, 4000.0]\n"
    )

    scenario("s1", tmp_path / "grid_a", "--jobs", "1")
    scenario("s1", tmp_path / "grid_b", "--jobs", "3")
    scenario("s1", tmp_path / "grid_c", "--jobs", "1")
    scenario(lhs_spec, tmp_path / "lhs_a", "--jobs", "1")
    scenario(lhs_spec, tmp_path / "lhs_b", "--jobs", "4")
    scenario("s11", tmp_path / "dyn_a")
    scenario("s11", tmp_path / "dyn_b")

    def same(a, b, name):
        return (tmp_path / a / name).read_bytes() == (tmp_path / b / name).read_bytes()

    checks = {
        "grid_jobs_1_vs_3": same("grid_a", "grid_b", "results.csv"),
        "grid_rerun_same_seed": same("grid_a", "grid_c", "results.csv"),
        "lhs_jobs_1_vs_4": same("lhs_a", "lhs_b", "results.csv"),
        "dynamic_rerun": same("dyn_a", "dyn_b", "trajectory.csv"),
    }
    _verdict(11, "byte-identical CSVs across reruns and job counts", checks)

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from procurekit import optimizer
from procurekit.cli import main
from procurekit.demand import TruncatedNormal
from procurekit.economics import MarketEconomics, SupplierProfile, cheapest_supplier
from procurekit.errors import (
    DegenerateEconomicsError,
    NegativeUnitCostError,
    ProcureKitError,
    SolverCheckError,
    ThresholdNotFoundError,
    ValidationError,
)
from procurekit.optimizer import (
    _solve_batch,
    adoption_threshold,
    critical_fractile,
    kkt_residuals,
    optimal_quantity_given_alpha,
    optimize,
)
from procurekit.profit import Decision, expected_profit_value

from procurekit.scenarios import DynamicSpec, _cell_coordinates, preset, run

from helpers import (
    baseline_demand,
    baseline_market,
    baseline_suppliers,
    cell_model,
    examples,
    perfbench_solve_problems,
    random_problem,
)
from oracles import bisect_adoption_threshold, central_difference, grid_argmax

MARKET = baseline_market()
SUPPLIERS = baseline_suppliers()
DEMAND = baseline_demand()


def envelope(alpha: float) -> float:
    dec = optimal_quantity_given_alpha(MARKET, SUPPLIERS, DEMAND, alpha)
    return expected_profit_value(MARKET, SUPPLIERS, DEMAND, dec)


class TestInnerSolve:
    def test_baseline_fractile_and_quantity(self):
        # Cheapest cost at alpha=0 is 98 - 8*0.7 = 92.4.
        assert critical_fractile(MARKET, 92.4) == pytest.approx(97.6 / 170.0, abs=1e-15)
        dec = optimal_quantity_given_alpha(MARKET, SUPPLIERS, DEMAND, 0.0)
        assert dec.total == pytest.approx(51.4761584680, abs=1e-8)

    def test_matches_quantity_grid_oracle(self):
        dec = optimal_quantity_given_alpha(MARKET, SUPPLIERS, DEMAND, 0.2)
        best_q = grid_argmax(
            lambda q: expected_profit_value(
                MARKET, SUPPLIERS, DEMAND, Decision(alpha=0.2, quantities=(0.0, 0.0, q))
            ),
            DEMAND.lower,
            DEMAND.upper,
            0.01,
        )
        assert abs(dec.total - best_q) <= 0.01 + 1e-9

    def test_allocation_goes_to_cheapest(self):
        dec = optimal_quantity_given_alpha(MARKET, SUPPLIERS, DEMAND, 0.0)
        assert dec.quantities[0] == 0.0
        assert dec.quantities[1] == 0.0
        assert dec.quantities[2] > 0.0

    def test_tie_breaks_to_lowest_id(self):
        twins = (
            SupplierProfile(id=5, base_cost=95.0, beta=0.4),
            SupplierProfile(id=4, base_cost=95.0, beta=0.4),
        )
        dec = optimal_quantity_given_alpha(MARKET, twins, DEMAND, 0.1)
        assert dec.quantities[1] > 0.0 and dec.quantities[0] == 0.0

    def test_nonpositive_fractile_orders_nothing(self):
        # every unit costs more than it can earn (price + penalty = 190)
        dear = (SupplierProfile(id=1, base_cost=250.0, beta=0.0),)
        dec = optimal_quantity_given_alpha(MARKET, dear, DEMAND, 0.0)
        assert dec.total == 0.0
        at_margin = (SupplierProfile(id=1, base_cost=190.0, beta=0.0),)
        assert optimal_quantity_given_alpha(MARKET, at_margin, DEMAND, 0.0).total == 0.0

    def test_cost_equal_to_salvage_orders_the_cap(self):
        cheap = (SupplierProfile(id=1, base_cost=20.0, beta=0.0),)
        dec = optimal_quantity_given_alpha(MARKET, cheap, DEMAND, 0.0)
        assert dec.total == DEMAND.upper

    def test_cost_below_salvage_is_degenerate(self):
        give_away = (SupplierProfile(id=1, base_cost=15.0, beta=0.0),)
        with pytest.raises(DegenerateEconomicsError, match="unbounded"):
            optimal_quantity_given_alpha(MARKET, give_away, DEMAND, 0.0)


class TestOptimize:
    def test_baseline_frozen_solution(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        assert opt.alpha_star == pytest.approx(0.0073617888, abs=1e-8)
        assert opt.q_star == pytest.approx(51.4805203322, abs=1e-6)
        assert opt.breakdown.expected_profit == pytest.approx(2364.6587905647, abs=1e-6)

    def test_interior_fixed_point_identity(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        fixed_point = (MARKET.a1 * opt.q_star / (MARKET.a3 * MARKET.nu)) ** (
            1.0 / (MARKET.nu - 1.0)
        )
        assert opt.alpha_star == pytest.approx(fixed_point, abs=1e-9)

    def test_kkt_clean_at_optimum(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        assert opt.kkt.max_residual <= 1e-4
        assert opt.kkt.complementary_slackness <= 1e-6

    def test_beats_neighbors(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        star = envelope(opt.alpha_star)
        assert star >= envelope(min(1.0, opt.alpha_star + 0.01)) - 1e-12
        assert star >= envelope(max(0.0, opt.alpha_star - 0.01)) - 1e-12

    def test_no_paying_unit_orders_nothing_and_closes_kkt(self, tmp_path):
        dear = (SupplierProfile(id=1, base_cost=250.0, beta=0.0),)
        opt = optimize(MARKET, dear, DEMAND)
        assert opt.alpha_star == 0.0 and opt.q_star == 0.0
        assert opt.decision == optimal_quantity_given_alpha(MARKET, dear, DEMAND, 0.0)
        assert opt.breakdown.expected_profit == pytest.approx(-MARKET.penalty * DEMAND.mean)
        assert opt.kkt.max_residual == 0.0
        config = tmp_path / "dear.yaml"
        config.write_text("suppliers:\n  - id: 1\n    base_cost: 250.0\n    beta: 0.0\n")
        args = ["optimize", "--config", str(config), "--out", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "alpha_star=0.000000 q_star=0.0000 expected_profit_usd=-2000.00" in result.output

    def test_agrees_with_alpha_grid_oracle(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        best = grid_argmax(envelope, 0.0, 1.0, 0.01)
        assert abs(opt.alpha_star - best) <= 0.01 + 1e-9

    def test_monetary_rescaling_leaves_decision_alone(self):
        k = 3.7
        market = dataclasses.replace(
            MARKET,
            price=k * MARKET.price,
            salvage=k * MARKET.salvage,
            penalty=k * MARKET.penalty,
            a1=k * MARKET.a1,
            a2=k * MARKET.a2,
            a3=k * MARKET.a3,
        )
        suppliers = tuple(
            dataclasses.replace(s, base_cost=k * s.base_cost) for s in SUPPLIERS
        )
        base = optimize(MARKET, SUPPLIERS, DEMAND)
        scaled = optimize(market, suppliers, DEMAND)
        assert scaled.alpha_star == pytest.approx(base.alpha_star, abs=1e-9)
        assert scaled.q_star == pytest.approx(base.q_star, abs=1e-9)
        assert scaled.breakdown.expected_profit == pytest.approx(
            k * base.breakdown.expected_profit, rel=1e-9
        )

    def test_alpha_star_nonincreasing_in_a3(self):
        alphas = [
            optimize(dataclasses.replace(MARKET, a3=a3), SUPPLIERS, DEMAND).alpha_star
            for a3 in (500.0, 1000.0, 2000.0, 3000.0, 4000.0)
        ]
        assert all(hi >= lo for hi, lo in zip(alphas, alphas[1:]))

    def test_alpha_star_nondecreasing_in_a1(self):
        alphas = [
            optimize(dataclasses.replace(MARKET, a1=a1), SUPPLIERS, DEMAND).alpha_star
            for a1 in (2.0, 3.5, 5.0, 8.0)
        ]
        assert all(lo <= hi for lo, hi in zip(alphas, alphas[1:]))

    def test_random_problems_interior_kkt_and_grid_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            market, suppliers, demand = random_problem(rng)
            opt = optimize(market, suppliers, demand)
            assert opt.kkt.max_residual <= 1e-4
            assert opt.kkt.complementary_slackness <= 1e-6
            best = grid_argmax(
                lambda a: expected_profit_value(
                    market,
                    suppliers,
                    demand,
                    optimal_quantity_given_alpha(market, suppliers, demand, a),
                ),
                0.0,
                1.0,
                0.01,
            )
            assert abs(opt.alpha_star - best) <= 0.01 + 1e-9

    def test_never_below_scalar_envelope_grid(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            market, suppliers, demand = random_problem(rng)
            opt = optimize(market, suppliers, demand)
            best = max(
                expected_profit_value(
                    market, suppliers, demand, optimal_quantity_given_alpha(market, suppliers, demand, float(a))
                )
                for a in np.linspace(0.0, 1.0, 101)
            )
            assert opt.breakdown.expected_profit >= best - 1e-9 * abs(best)

    def test_root_near_zero_alpha_closes_kkt(self):
        # nu near 1 puts the stationary alpha so close to 0 that its profit
        # ties with alpha = 0 in floating point; the root must still win.
        market = MarketEconomics(
            price=134.41766394177483,
            salvage=15.637033911949509,
            penalty=34.0195580097613,
            a1=9.548844373424885,
            a2=9.517898681530808,
            a3=10170.077959332555,
            nu=1.103946878551205,
        )
        suppliers = (
            SupplierProfile(id=2, base_cost=111.01900758582704, beta=0.5190742475922417),
            SupplierProfile(id=1, base_cost=97.26994640448578, beta=0.9436402415556489),
        )
        demand = TruncatedNormal(mu=70.70238244603455, sigma=20.470415102073908, lower=1.0, upper=33.061060918808)
        opt = optimize(market, suppliers, demand)
        at_zero = optimal_quantity_given_alpha(market, suppliers, demand, 0.0)
        assert opt.kkt.max_residual <= 1e-4
        assert opt.breakdown.expected_profit >= expected_profit_value(market, suppliers, demand, at_zero)

    def test_near_tie_goes_to_the_root(self):
        # The slope root sits at about 1.8e-14: its profit and alpha = 0's
        # differ only by rounding, so the root, whose KKT audit closes, wins.
        market = MarketEconomics(
            price=138.42552999334464,
            salvage=49.164,
            penalty=53.585481033512984,
            a1=4.102850697658757,
            a2=5.921867806096658,
            a3=8844.806,
            nu=1.1145208059416503,
        )
        suppliers = (
            SupplierProfile(id=3, base_cost=94.16365559646174, beta=0.36586580609132946),
            SupplierProfile(id=2, base_cost=111.02681491648407, beta=0.7636625566324998),
            SupplierProfile(id=1, base_cost=94.94304510870296, beta=0.268160600814476),
        )
        demand = TruncatedNormal(
            mu=61.83484628014254, sigma=8.886360157760103, lower=40.10989667920212, upper=70.75193667646182
        )
        opt = optimize(market, suppliers, demand)
        assert 0.0 < opt.alpha_star < 1e-13
        assert opt.kkt.max_residual <= 1e-9

    def test_right_tail_demand_closes_kkt(self):
        # Demand 7 to 8 parent sigmas right of mu: the fractile quantile and
        # the KKT probabilities both come from the upper-tail frame.
        opt = optimize(MARKET, SUPPLIERS, TruncatedNormal(mu=50.0, sigma=2.0, lower=64.0, upper=66.0))
        assert opt.kkt.max_residual <= 1e-9


def first_scan_error(market, suppliers, demand) -> ProcureKitError | None:
    """The error a point-by-point scan of the 0.01 alpha grid meets first."""
    for alpha in np.linspace(0.0, 1.0, 101):
        try:
            optimal_quantity_given_alpha(market, suppliers, demand, float(alpha))
        except ProcureKitError as exc:
            return exc
    return None


class TestOptimizeErrors:
    @pytest.mark.parametrize(
        "market, suppliers, demand, error",
        [
            # Cheapest cost runs from 92.4 at alpha = 0 to 87.4 at alpha = 1.
            (baseline_market(salvage=90.0), SUPPLIERS, DEMAND, DegenerateEconomicsError),
            # Every cost is negative at alpha = 0.01; the scan names the first
            # supplier in sequence order, not the cheapest.
            (baseline_market(salvage=0.0, a1=10_000.0), SUPPLIERS, DEMAND, NegativeUnitCostError),
            (baseline_market(salvage=0.0, a1=100.0), SUPPLIERS, DEMAND, NegativeUnitCostError),
            # A low fractile on a support reaching below zero orders a negative
            # total at alpha = 0, though not at the grid's best alpha.
            (
                baseline_market(salvage=0.0, a1=100.0, a3=10.0),
                (SupplierProfile(id=1, base_cost=140.0, beta=0.0),),
                TruncatedNormal(mu=0.0, sigma=1.0, lower=-1.0, upper=3.0),
                ValidationError,
            ),
            # price + penalty overflows to inf, so the fractile is NaN at every alpha.
            (baseline_market(price=1.7e308, penalty=1.7e308), SUPPLIERS, DEMAND, DegenerateEconomicsError),
        ],
    )
    def test_raises_what_a_point_by_point_scan_meets_first(self, market, suppliers, demand, error):
        expected = first_scan_error(market, suppliers, demand)
        assert type(expected) is error
        with pytest.raises(error) as info:
            optimize(market, suppliers, demand)
        assert str(info.value) == str(expected)


def preset_cells(preset_id: str, nu: float) -> list:
    spec = preset(preset_id)
    spec = dataclasses.replace(spec, market=dataclasses.replace(spec.market, nu=nu))
    return [cell_model(spec, coords) for coords in _cell_coordinates(spec)]


def outcome(result) -> tuple:
    """A solve result in exactly comparable form: the float bits of its
    decision and KKT max_residual, or the error."""
    if isinstance(result, ProcureKitError):
        return (type(result).__name__, str(result))
    decision, kkt = result
    return tuple(x.hex() for x in (decision.alpha, *decision.quantities, kkt.max_residual))


class TestSolveBatch:
    # s3, s9 and s10 at nu = 1.5 (baseline), 2.0 and 3.0, whose adoption-cost
    # powers 0.5, 1, 2 and 1.5, 2, 3 include numpy's sqrt/square shortcuts;
    # the benchmark's generated problems; and cells that fail.
    CELLS = (
        [cell for pid in ("s3", "s9", "s10") for nu in (1.5, 2.0, 3.0) for cell in preset_cells(pid, nu)]
        + perfbench_solve_problems(7)
        + [
            (baseline_market(salvage=90.0), SUPPLIERS, DEMAND),
            (baseline_market(salvage=0.0, a1=100.0), SUPPLIERS, DEMAND),
            (MARKET, (), DEMAND),
            (baseline_market(price=1.7e308, penalty=1.7e308), SUPPLIERS, DEMAND),
        ]
    )

    def test_result_does_not_depend_on_batch(self):
        alone = [outcome(_solve_batch([cell])[0]) for cell in self.CELLS]
        together = [outcome(r) for r in _solve_batch(self.CELLS)]
        assert together == alone
        reversed_batch = [outcome(r) for r in _solve_batch(self.CELLS[::-1])]
        assert reversed_batch[::-1] == alone
        blocks = [outcome(r) for start in range(0, len(self.CELLS), 7) for r in _solve_batch(self.CELLS[start : start + 7])]
        assert blocks == alone

    def test_optimize_is_a_batch_of_one(self):
        for cell in self.CELLS[::5]:
            try:
                opt = optimize(*cell)
                solved = opt.decision, opt.kkt
            except ProcureKitError as exc:
                solved = exc
            assert outcome(solved) == outcome(_solve_batch([cell])[0])

    def test_errors_stay_with_their_cells(self):
        results = _solve_batch(self.CELLS)
        assert [type(r).__name__ for r in results[-4:]] == [
            "DegenerateEconomicsError",
            "NegativeUnitCostError",
            "ValidationError",
            "DegenerateEconomicsError",
        ]
        assert str(results[-1]) == "price + penalty overflows a float: 1.7e+308 + 1.7e+308"
        assert not any(isinstance(r, ProcureKitError) for r in results[:-4])

    def test_error_entries_come_back_in_place(self):
        # An entry that is already an error keeps its place and its identity,
        # and its row of NaN moves no other cell's bits.
        built = ValidationError("a cell that did not build")
        cells = [built, *self.CELLS[:5], built, *self.CELLS[-4:], built]
        results = _solve_batch(cells)
        assert [i for i, r in enumerate(results) if r is built] == [0, 6, len(cells) - 1]
        alone = [cell if cell is built else _solve_batch([cell])[0] for cell in cells]
        assert [outcome(r) for r in results] == [outcome(r) for r in alone]
        assert _solve_batch([built, built]) == [built, built]

    def test_empty_batch(self):
        assert _solve_batch([]) == []

    def test_grid_profit_is_the_scalar_profit(self):
        # The tie-break compares the root's expected_profit_value with the
        # batch's profit at the grid argmax; that profit is expected_profit_value
        # at the grid point's order, bit for bit.
        cells = perfbench_solve_problems(7) + preset_cells("s9", 1.5)
        winners = [cheapest_supplier(market, suppliers, 0.0)[0] for market, suppliers, _ in cells]
        env = optimizer._Envelope(
            np.array([optimizer._Envelope.row(m, s[w], d) for (m, s, d), w in zip(cells, winners)])
        )
        with np.errstate(**SOLVER_ERRSTATE):
            cost, q = env.cost_and_order(optimizer._GRID)
            profits = env.profit(optimizer._GRID, cost, q)
        for i, ((market, suppliers, demand), winner, best) in enumerate(zip(cells, winners, np.argmax(profits, axis=1))):
            at_grid = optimizer._order(float(optimizer._GRID[best]), float(q[i, best]), winner, len(suppliers))
            scalar = expected_profit_value(market, suppliers, demand, at_grid)
            assert float(profits[i, best]).hex() == scalar.hex()

    def test_solve_keeps_the_root(self, monkeypatch):
        # The tie-break never picks the grid point on these cells: every
        # returned alpha is the root _fixed_point reported or, where it stopped
        # at an end of its bracket in t, that end of the alpha bracket exactly.
        stops = []
        fixed_point = optimizer._fixed_point

        def recording(env, t_lo, t_hi, start):
            t, alpha = fixed_point(env, t_lo, t_hi, start)
            stops.append((env.nu_less_one[:, 0], t_lo, t_hi, t, alpha))
            return t, alpha

        monkeypatch.setattr(optimizer, "_fixed_point", recording)
        cells = perfbench_solve_problems(7) + preset_cells("s9", 1.5)
        results = _solve_batch(cells)
        ((nu_less_one, t_lo, t_hi, t, alpha),) = stops
        ends = set(np.maximum(0.0, optimizer._GRID - optimizer._GRID_STEP)) | set(
            np.minimum(1.0, optimizer._GRID + optimizer._GRID_STEP)
        )
        at_ends = 0
        for (decision, _), power, lo, hi, stop, root in zip(results, nu_less_one, t_lo, t_hi, t, alpha):
            if stop in (lo, hi):
                at_ends += 1
                assert decision.alpha in ends
                assert optimizer._power(np.array([[decision.alpha]]), power, (1, 1))[0, 0] == stop
            else:
                assert decision.alpha == root
        assert len(results) == len(cells) and 0 < at_ends < len(cells)


def count_steps(monkeypatch) -> list:
    """Patch _Envelope.step to record the cells of each lock-step fixed-point step;
    each call sees the whole batch, stopped cells included."""
    calls = []
    step = optimizer._Envelope.step

    def counted(self, t, t_lo, t_hi):
        calls.append(len(t))
        return step(self, t, t_lo, t_hi)

    monkeypatch.setattr(optimizer._Envelope, "step", counted)
    return calls


def market_with_root_at(alpha: float, nu: float, demand: TruncatedNormal = DEMAND, **overrides) -> MarketEconomics:
    """A baseline-like market whose envelope slope vanishes at alpha."""
    market = baseline_market(nu=nu, **overrides)
    q = optimal_quantity_given_alpha(market, SUPPLIERS, demand, alpha).total
    return dataclasses.replace(market, a3=market.a1 * q / (nu * alpha ** (nu - 1.0)))


# Demand windows around mu, right of it (upper tails) and left of it.
WINDOWS = (DEMAND, baseline_demand(lower=60.0, upper=90.0), baseline_demand(lower=5.0, upper=30.0))

# _solve_batch calls _fixed_point under this numpy error state.
SOLVER_ERRSTATE = dict(divide="ignore", invalid="ignore", over="ignore")

fixed_point_cells = st.lists(
    st.tuples(
        # nu - 1 or 1 / (nu - 1) of 0.5 or 2 is where numpy takes sqrt or square.
        st.sampled_from([1.5, 2.0, 3.0]) | st.floats(min_value=1.05, max_value=3.0),
        st.floats(min_value=-15.0, max_value=-0.5),
        st.sampled_from(range(len(WINDOWS))),
        # a3 off the designed root pushes the root out past an end of the
        # bracket; a1 = 0 makes T vanish, and a3 = 0 makes it infinite.
        st.sampled_from([1.0, 1e-6, 1e6, "a1 = 0", "a3 = 0"]),
        # A side of inf reaches alpha = 0 or 1.
        st.floats(min_value=-18.0, max_value=-1.7) | st.just(math.inf),
        st.floats(min_value=-18.0, max_value=-1.7) | st.just(math.inf),
        # Where the start lies, as a share of [t_lo, t_hi]; it may lie outside.
        st.floats(min_value=-0.5, max_value=1.5),
    ),
    min_size=2,
    max_size=5,
)


def fixed_point_inputs(cells) -> tuple:
    """The envelope of drawn cells and their brackets and starts in t."""
    rows, t_lo, t_hi, starts = [], [], [], []
    for nu, log_alpha, window, scale, log_left, log_right, where in cells:
        alpha, demand = 10.0**log_alpha, WINDOWS[window]
        if scale == "a1 = 0":
            market = baseline_market(nu=nu, a1=0.0)
        elif scale == "a3 = 0":
            market = baseline_market(nu=nu, a3=0.0)
        else:
            market = market_with_root_at(alpha, nu, demand)
            market = dataclasses.replace(market, a3=scale * market.a3)
        rows.append(optimizer._Envelope.row(market, SUPPLIERS[2], demand))
        t_lo.append(max(0.0, alpha - 10.0**log_left) ** (nu - 1.0))
        t_hi.append(min(1.0, alpha + 10.0**log_right) ** (nu - 1.0))
        starts.append(max(0.0, t_lo[-1] + where * (t_hi[-1] - t_lo[-1])))
    return optimizer._Envelope(np.array(rows)), np.array(t_lo), np.array(t_hi), np.array(starts)


def recorded_fixed_point(env, t_lo, t_hi, starts) -> tuple:
    """_fixed_point's (t, alpha) and, cell by cell, the iterates it evaluated."""
    iterates = [[] for _ in starts]
    step = optimizer._Envelope.step

    def recording(self, t, lo, hi):
        assert len(t) == len(iterates)  # the whole batch at every step
        for points, x in zip(iterates, t[:, 0].tolist()):
            points.append(x)
        return step(self, t, lo, hi)

    with pytest.MonkeyPatch.context() as patch, np.errstate(**SOLVER_ERRSTATE):
        patch.setattr(optimizer._Envelope, "step", recording)
        return optimizer._fixed_point(env, t_lo, t_hi, starts), iterates


def alone(env, t_lo, t_hi, starts, k: int) -> tuple:
    """recorded_fixed_point of cell k in a batch of one."""
    one = slice(k, k + 1)
    return recorded_fixed_point(optimizer._Envelope(env.table[[k]]), t_lo[one], t_hi[one], starts[one])


# Cells that take 1, 2, 3, 5 and 7 fixed-point steps.
STEPPED_CELLS = [
    (2.0, -2.0, 0, 1.0, -2.0, -2.0, 0.5),
    (3.0, -1.0, 0, "a3 = 0", -2.0, -2.0, 0.0),
    (1.2, -8.0, 0, 1.0, -1.7, -1.7, -0.5),
    (1.5, -3.0, 0, 1.0, -1.7, -1.7, 1.0),
    (2.5, -0.5, 1, 1.0, -1.7, -1.7, 1.5),
]


class TestFixedPoint:
    def test_few_steps_per_solve(self, monkeypatch):
        calls = count_steps(monkeypatch)
        counts = []
        for cell in perfbench_solve_problems(7):
            calls.clear()
            optimize(*cell)
            counts.append(len(calls))
        # About four: the grid secant starts close, and each step gains digits.
        assert np.mean(counts) <= 4.5 and max(counts) <= 10

    def test_s9_takes_few_lock_step_steps(self, monkeypatch):
        calls = count_steps(monkeypatch)
        run(preset("s9"))
        assert len(calls) <= 6 and calls[0] == 100

    @pytest.mark.parametrize("alpha", [1e-14, 1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("nu", [1.06, 1.15, 1.25, 1.39])
    def test_near_zero_roots_close_kkt_in_few_steps(self, monkeypatch, nu, alpha):
        # Here alpha**(nu - 1) bends sharply, while t = alpha**(nu - 1) stays linear.
        market = market_with_root_at(alpha, nu)
        calls = count_steps(monkeypatch)
        opt = optimize(market, SUPPLIERS, DEMAND)
        assert opt.kkt.max_residual <= 1e-9
        assert len(calls) <= 5
        assert opt.alpha_star == pytest.approx(alpha, rel=1e-6)

    @pytest.mark.parametrize("a1, a3, alpha", [(0.0, 0.0, 0.0), (5.0, 0.0, 1.0), (0.0, 2000.0, 0.0)])
    def test_degenerate_maps_reach_an_end(self, a1, a3, alpha):
        # No saving and no adoption cost make T = 0/0, a NaN that projects to
        # t_lo, the end that a slope which is not positive keeps; a3 = 0 makes
        # T infinite, which projects to t_hi.
        assert optimize(baseline_market(a1=a1, a3=a3), SUPPLIERS, DEMAND).alpha_star == alpha

    @given(cells=fixed_point_cells)
    @settings(max_examples=examples(100), deadline=None)
    def test_every_root_is_justified(self, cells):
        # In its bracket; at an end only when P maps that end to itself, so T
        # reaches or passes it; and the next step moves no further in the
        # direction of the first.
        env, t_lo, t_hi, starts = fixed_point_inputs(cells)
        with np.errstate(**SOLVER_ERRSTATE):
            roots, alphas = optimizer._fixed_point(env, t_lo, t_hi, starts)
        for k, (t, alpha) in enumerate(zip(roots, alphas)):
            cell = optimizer._Envelope(env.table[[k]])

            def step(x: float) -> tuple[float, float]:
                with np.errstate(**SOLVER_ERRSTATE):
                    at, mapped = cell.step(np.array([[x]]), t_lo[k : k + 1, None], t_hi[k : k + 1, None])
                return at[0, 0], mapped[0, 0]

            assert t_lo[k] <= t <= t_hi[k], cells[k]
            assert step(t)[0].hex() == alpha.hex()
            if t == t_lo[k] or t == t_hi[k]:
                assert step(t)[1] == t, cells[k]
            direction = np.sign(step(starts[k])[1] - starts[k])
            assert not (step(t)[1] - t) * direction > 0.0, cells[k]

    @given(cells=fixed_point_cells)
    @settings(max_examples=examples(100), deadline=None)
    def test_batch_of_one_takes_the_steps_of_the_batch(self, cells):
        # A cell's iterates in the batch are its iterates alone, then repeats of
        # its last one while other cells move; so the same root, bit for bit.
        env, t_lo, t_hi, starts = fixed_point_inputs(cells)
        together, in_batch = recorded_fixed_point(env, t_lo, t_hi, starts)
        for k in range(len(cells)):
            root, (iterates,) = alone(env, t_lo, t_hi, starts, k)
            assert in_batch[k] == iterates + iterates[-1:] * (len(in_batch[k]) - len(iterates)), cells[k]
            assert [x[0].hex() for x in root] == [x[k].hex() for x in together], cells[k]

    def test_a_stopped_cell_holds_its_iterate(self, monkeypatch):
        # Both cells climb by 1 from 0; the first turns back at 3, the second
        # never does. The first stops at 3, the step that would move it back,
        # and holds 3 while the second climbs on to the cap.
        class Climb:
            turn = np.array([[3.0], [math.inf]])

            def step(self, t, t_lo, t_hi):
                return -t, np.where(t < self.turn, t + 1.0, t - 0.5)

        monkeypatch.setattr(optimizer, "_MAX_STEPS", 8)
        t, alpha = optimizer._fixed_point(Climb(), np.zeros(2), np.full(2, 10.0), np.zeros(2))
        assert t.tolist() == [3.0, 7.0] and alpha.tolist() == [-3.0, -7.0]

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_max_steps_cuts_off_at_the_last_evaluated_iterate(self, monkeypatch, cap):
        # Under the cap some cells stop on their own and others are cut off; each
        # reports the bits of its batch-of-one run under the same cap, and a
        # cut-off cell reports the iterate of its last step.
        env, t_lo, t_hi, starts = fixed_point_inputs(STEPPED_CELLS)
        free = [alone(env, t_lo, t_hi, starts, k) for k in range(len(STEPPED_CELLS))]
        steps = [len(iterates) for _, (iterates,) in free]
        assert min(steps) < cap < max(steps)
        monkeypatch.setattr(optimizer, "_MAX_STEPS", cap)
        together, _ = recorded_fixed_point(env, t_lo, t_hi, starts)
        for k, ((free_t, free_alpha), (free_iterates,)) in enumerate(free):
            (t, alpha), (iterates,) = alone(env, t_lo, t_hi, starts, k)
            assert [t[0].hex(), alpha[0].hex()] == [together[0][k].hex(), together[1][k].hex()]
            assert iterates == free_iterates[:cap] and t[0] == iterates[-1]
            if len(free_iterates) <= cap:
                assert [t[0].hex(), alpha[0].hex()] == [free_t[0].hex(), free_alpha[0].hex()]


@pytest.fixture
def unpolished(monkeypatch):
    # A fixed point that stops at the middle of its bracket in t, near the grid argmax.
    def midpoint(env, t_lo, t_hi, start):
        t = 0.5 * (t_lo + t_hi)
        return t, env.step(t[:, None], t_lo[:, None], t_hi[:, None])[0][:, 0]

    monkeypatch.setattr(optimizer, "_fixed_point", midpoint)


class TestSolverPostcondition:
    def test_optimize_exits_2_with_one_error_line(self, unpolished, tmp_path):
        result = CliRunner().invoke(main, ["optimize", "--out", str(tmp_path)])
        assert result.exit_code == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith('error: {"kind": "runtime", "message": "KKT max_residual ')
        assert not (tmp_path / "optimum.json").exists()
        with pytest.raises(SolverCheckError, match="exceeds 1e-06 x"):
            optimize(MARKET, SUPPLIERS, DEMAND)

    def test_scenario_cells_become_failed_rows(self, unpolished):
        rows = run(preset("s1"))
        assert rows and all(row.status.startswith("SolverCheckError: KKT max_residual ") for row in rows)
        assert all(math.isnan(row.alpha_star) for row in rows)

    def test_passes_at_the_optimum(self):
        # Residuals at the solver's own answers sit far inside the bound.
        for cell in perfbench_solve_problems(7)[:40]:
            market, _, _ = cell
            opt = optimize(*cell)
            assert opt.kkt.max_residual <= 1e-9 * max(market.price + market.penalty, market.a1 * opt.q_star)


class TestKKTReport:
    def test_multipliers_price_out_losing_suppliers(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        kkt = opt.kkt
        # Losers carry multipliers equal to their cost disadvantage.
        assert kkt.multipliers_q[0] == pytest.approx(6.0, abs=1e-6)
        assert kkt.multipliers_q[1] == pytest.approx(5.6, abs=1e-6)
        assert kkt.multipliers_q[2] == 0.0

    def test_gradients_match_finite_differences(self):
        dec = Decision(alpha=0.3, quantities=(8.0, 6.0, 40.0))
        kkt = kkt_residuals(MARKET, SUPPLIERS, DEMAND, dec)
        for i in range(3):
            def profit_in_qi(v, i=i):
                qs = list(dec.quantities)
                qs[i] = v
                return expected_profit_value(
                    MARKET, SUPPLIERS, DEMAND, Decision(alpha=dec.alpha, quantities=tuple(qs))
                )

            fd = central_difference(profit_in_qi, dec.quantities[i], h=1e-5)
            assert kkt.stationarity_q[i] == pytest.approx(fd, abs=1e-5)

        fd_alpha = central_difference(
            lambda a: expected_profit_value(
                MARKET, SUPPLIERS, DEMAND, Decision(alpha=a, quantities=dec.quantities)
            ),
            dec.alpha,
            h=1e-6,
        )
        assert kkt.stationarity_alpha == pytest.approx(fd_alpha, abs=1e-4)

    def test_zero_alpha_is_never_stationary(self):
        # Marginal adoption cost vanishes at zero while savings do not, so the
        # alpha gradient at zero is strictly positive and no multiplier fixes it.
        dec = optimal_quantity_given_alpha(MARKET, SUPPLIERS, DEMAND, 0.0)
        kkt = kkt_residuals(MARKET, SUPPLIERS, DEMAND, dec)
        assert kkt.stationarity_alpha > 0.0
        assert kkt.multiplier_alpha_lower == 0.0

    def test_complementary_slackness_zero_at_optimum(self):
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        assert opt.kkt.complementary_slackness == 0.0

    def test_supplier_count_mismatch(self):
        with pytest.raises(ValidationError, match="quantities"):
            kkt_residuals(MARKET, SUPPLIERS, DEMAND, Decision(alpha=0.1, quantities=(5.0,)))


class TestAdoptionThreshold:
    def test_baseline_threshold_location(self):
        thr = adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 10_000.0)
        assert 2425.0 < thr < 2429.0
        # Just at the threshold alpha* displays as zero; well below it does not.
        at = optimize(dataclasses.replace(MARKET, a3=thr), SUPPLIERS, DEMAND).alpha_star
        below = optimize(dataclasses.replace(MARKET, a3=thr - 50.0), SUPPLIERS, DEMAND).alpha_star
        assert at < 0.005 <= below

    def test_threshold_rises_with_a1(self):
        base = adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 20_000.0)
        doubled = adoption_threshold(
            dataclasses.replace(MARKET, a1=2.0 * MARKET.a1), SUPPLIERS, DEMAND, 500.0, 20_000.0
        )
        assert doubled >= base

    def test_range_without_threshold_errors(self):
        with pytest.raises(ThresholdNotFoundError, match="widen"):
            adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 1_000.0)

    def test_range_entirely_above_threshold_returns_low_edge(self):
        assert adoption_threshold(MARKET, SUPPLIERS, DEMAND, 5_000.0, 9_000.0) == 5_000.0

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            adoption_threshold(MARKET, SUPPLIERS, DEMAND, 4_000.0, 400.0)

    @pytest.mark.parametrize("a3_high", [math.inf, 10**400])
    def test_rejects_an_end_beyond_the_floats(self, a3_high):
        # The end is refused as a range, before it is solved as a market's a3.
        with pytest.raises(ValidationError, match="need finite 0 < a3_low < a3_high"):
            adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, a3_high)

    @pytest.mark.parametrize("nu", [142.0, 400.0])
    def test_cutoff_power_underflow(self, nu):
        # 0.005 ** (nu - 1) underflows to 0: a3* is then beyond every float,
        # or 0 when alpha lowers no cost.
        market = baseline_market(nu=nu)
        with pytest.raises(ThresholdNotFoundError, match="widen"):
            adoption_threshold(market, SUPPLIERS, DEMAND, 1.0, 1e8)
        assert adoption_threshold(dataclasses.replace(market, a1=0.0), SUPPLIERS, DEMAND, 1.0, 1e8) == 1.0

    def test_threshold_where_the_slope_is_not_single_crossing(self):
        # Near nu = 1 the envelope slope is not single-crossing: at the old
        # closed form a3* = 257.506 it falls through zero at the cutoff and
        # rises through it again near alpha = 0.015, and alpha* = 1 earns more.
        # alpha* still does not increase with a3, so the bisection finds the
        # drop; far above it alpha* underflows and the audit fails at alpha = 0.
        market = baseline_market(nu=1.0001)
        thr = adoption_threshold(market, SUPPLIERS, DEMAND, 1.0, 1e300)
        assert 257.76 <= thr <= 260.08
        below = optimize(dataclasses.replace(market, a3=math.nextafter(thr, 0.0)), SUPPLIERS, DEMAND).alpha_star
        at = optimize(dataclasses.replace(market, a3=thr), SUPPLIERS, DEMAND).alpha_star
        assert at < 0.005 <= below

    def test_the_float_below_the_result_reports_at_or_above_the_cutoff(self):
        thr = adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 10_000.0)
        below = optimize(dataclasses.replace(MARKET, a3=math.nextafter(thr, 0.0)), SUPPLIERS, DEMAND).alpha_star
        assert below >= 0.005

    @pytest.mark.parametrize("nu, a3, reported", [(1.0001, 1e4, "zero"), (1.01, 4.2e5, "subnormal")])
    def test_an_underflowed_alpha_star_counts_as_below_the_cutoff(self, nu, a3, reported):
        # alpha* = (a1 * Q* / (a3 * nu))**(1 / (nu - 1)) lies below the smallest
        # normal double, so the audit fails at a reported alpha of 0, where the
        # slope is a1 * Q* > 0, or at a subnormal one, which keeps too few bits.
        # The threshold reads either as alpha* < 0.005.
        market = baseline_market(nu=nu, a3=a3)
        (entry,) = _solve_batch([(market, SUPPLIERS, DEMAND)])
        assert isinstance(entry, SolverCheckError) and entry.alpha < np.finfo(float).tiny
        assert (entry.alpha == 0.0) == (reported == "zero")
        assert adoption_threshold(market, SUPPLIERS, DEMAND, a3, 10.0 * a3) == a3

    def test_other_solver_check_errors_propagate(self, unpolished):
        # An unpolished root fails the audit at alpha > 0, which says nothing about alpha*.
        with pytest.raises(SolverCheckError, match="exceeds 1e-06 x") as raised:
            adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 10_000.0)
        assert raised.value.alpha > 0.0

    @given(
        nu=st.sampled_from([1.0001, 1.001, 1.5, 2.0]) | st.floats(min_value=1.01, max_value=4.0),
        a1=st.floats(min_value=0.0, max_value=9.0),
        window=st.sampled_from(range(len(WINDOWS))),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_alpha_star_does_not_increase_with_a3(self, nu, a1, window):
        # The bisection's premise: V(alpha; a3) = W(alpha) - a3 * alpha**nu has
        # decreasing differences, so the maximiser does not increase with a3
        # (Topkis 1978). An underflowed alpha* (a failed audit below the smallest
        # normal double) reads as 0.
        market = baseline_market(nu=nu, a1=a1)
        a3s = np.geomspace(1e-2, 1e7, 64)
        solved = _solve_batch([(dataclasses.replace(market, a3=a3), SUPPLIERS, WINDOWS[window]) for a3 in a3s])
        alphas = []
        for entry in solved:
            if isinstance(entry, SolverCheckError) and entry.alpha < np.finfo(float).tiny:
                alphas.append(0.0)
            else:
                assert not isinstance(entry, ProcureKitError), entry
                alphas.append(entry[0].alpha)
        assert all(later <= earlier for earlier, later in zip(alphas, alphas[1:])), alphas

    def test_readme_digits(self):
        # The baseline numbers as README.md prints them.
        opt = optimize(MARKET, SUPPLIERS, DEMAND)
        thr = adoption_threshold(MARKET, SUPPLIERS, DEMAND, 500.0, 10_000.0)
        printed = (
            f"{opt.alpha_star:.6f}",
            f"{opt.q_star:.2f}",
            f"{opt.breakdown.expected_profit:.2f}",
            f"{thr:.0f}",
        )
        assert printed == ("0.007362", "51.48", "2364.66", "2427")

    @pytest.mark.parametrize(
        "nu, sigma, a1", list(itertools.product((1.2, 1.5, 2.0, 3.0), (4.0, 8.0, 15.0), (2.0, 5.0, 9.0)))
    )
    def test_closed_form_matches_bisection(self, nu, sigma, a1):
        market = baseline_market(nu=nu, a1=a1)
        demand = baseline_demand(sigma=sigma)
        thr = adoption_threshold(market, SUPPLIERS, demand, 1.0, 1e8)
        assert abs(thr - bisect_adoption_threshold(market, SUPPLIERS, demand, 1.0, 1e8, 1e-3)) <= 1e-3
        at = optimize(dataclasses.replace(market, a3=thr), SUPPLIERS, demand).alpha_star
        just_below = optimize(dataclasses.replace(market, a3=0.999999 * thr), SUPPLIERS, demand).alpha_star
        assert at < 0.005 <= just_below


def _cast_fields(model, cast, keep=("id",)):
    """The model with every field not in ``keep`` passed through ``cast``."""
    return dataclasses.replace(
        model, **{f.name: cast(getattr(model, f.name)) for f in dataclasses.fields(model) if f.name not in keep}
    )


class TestFloatFields:
    """Models store their checked float fields as Python floats, whatever real number type they were given."""

    def test_numpy_scalars_are_stored_as_floats_and_integers_stay_integers(self):
        models = [
            _cast_fields(baseline_market(), np.float32),
            _cast_fields(baseline_demand(), np.float32),
            SupplierProfile(id=np.int64(4), base_cost=np.float32(100.0), beta=np.float64(0.25)),
            DynamicSpec(cycles=np.int64(3), a3_initial=np.float32(3000.0), a3_decline=200,
                        learning_rate=np.float32(0.05), target_penalty=0.05, alpha_initial=np.float32(0.2)),
            Decision(alpha=np.float32(0.5), quantities=(np.float32(1.5), 0, np.float64(2.0))),
        ]
        integer_fields = {"id", "cycles"}
        for model in models:
            for field in dataclasses.fields(model):
                value = getattr(model, field.name)
                if field.name in integer_fields:
                    assert isinstance(value, (int, np.integer)) and not isinstance(value, float)
                elif field.name == "quantities":
                    assert [type(q) for q in value] == [float] * 3
                else:
                    assert type(value) is float, (model, field.name)

    def test_float32_models_solve_like_models_of_their_float_values(self):
        models = (baseline_market(), baseline_suppliers(), baseline_demand())

        def solved(cast):
            market, suppliers, demand = models
            return optimize(
                _cast_fields(market, cast), tuple(_cast_fields(s, cast) for s in suppliers), _cast_fields(demand, cast)
            )

        narrow, wide = solved(np.float32), solved(lambda v: float(np.float32(v)))
        assert type(narrow.breakdown.expected_profit) is float
        assert repr(narrow) == repr(wide)

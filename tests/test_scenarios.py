"""Tests for the scenario engine: specs, sampling, runs, and decomposition."""

import dataclasses
import math

import numpy as np
import pytest

from procurekit.baseline import (
    BASELINE_DEMAND,
    BASELINE_MARKET,
    BASELINE_SUPPLIERS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
)
from procurekit.errors import ProcureKitError, RankDeficientDesignError, ValidationError
from procurekit.optimizer import optimize
from procurekit.demand import TruncatedNormal
from procurekit.scenarios import (
    _NS_BUILD,
    PRESET_IDS,
    DynamicSpec,
    ScenarioResult,
    ScenarioSpec,
    _build_cell,
    _cell_coordinates,
    adaptive_alpha_update,
    latin_hypercube,
    preset,
    run,
    run_dynamic,
    variance_decomposition,
)

from helpers import cell_model

# alpha* of the unmodified baseline problem, frozen in the optimizer tests
BASELINE_ALPHA_STAR = 0.0073617888157626234


def small_spec(**overrides) -> ScenarioSpec:
    settings = dict(
        id="test",
        market=BASELINE_MARKET,
        suppliers=BASELINE_SUPPLIERS,
        demand=BASELINE_DEMAND,
        axes=(("demand.sigma", (8.0, 12.0)),),
        replications=400,
        seed=7,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestDynamicSpec:
    def test_a3_schedule(self):
        dyn = DynamicSpec(
            cycles=10,
            a3_initial=3000.0,
            a3_decline=200.0,
            learning_rate=0.05,
            target_penalty=0.05,
            alpha_initial=0.2,
        )
        assert dyn.a3_at(1) == 3000.0
        assert dyn.a3_at(2) == 2800.0
        assert dyn.a3_at(10) == 1200.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cycles", 0),
            ("a3_initial", 0.0),
            ("learning_rate", 0.0),
            ("target_penalty", 0.0),
            ("alpha_initial", 1.2),
            ("alpha_initial", -0.1),
            ("a3_initial", math.nan),
            ("a3_initial", math.inf),
            ("a3_decline", math.nan),
            ("a3_decline", -math.inf),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("target_penalty", math.nan),
            ("target_penalty", math.inf),
            ("alpha_initial", math.nan),
            ("cycles", True),
            ("cycles", 10.0),
            ("a3_initial", True),
            ("learning_rate", "0.05"),
            ("target_penalty", None),
        ],
    )
    def test_rejects_bad_settings(self, field, value):
        settings = dict(
            cycles=10,
            a3_initial=3000.0,
            a3_decline=200.0,
            learning_rate=0.05,
            target_penalty=0.05,
            alpha_initial=0.2,
        )
        settings[field] = value
        with pytest.raises(ValidationError):
            DynamicSpec(**settings)

    def test_rejects_schedule_reaching_zero(self):
        # cycle 16 would hit 3000 - 200 * 15 = 0
        with pytest.raises(ValidationError, match="positive"):
            DynamicSpec(
                cycles=16,
                a3_initial=3000.0,
                a3_decline=200.0,
                learning_rate=0.05,
                target_penalty=0.05,
                alpha_initial=0.2,
            )


class TestScenarioSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", 2.5),
            ("replications", True),
            ("lhs_samples", 5.5),
            ("seed", True),
            ("seed", 7.0),
        ],
    )
    def test_rejects_mistyped_counts(self, field, value):
        lhs = dict(sampler="latin-hypercube", lhs_samples=5, axes=(("demand.sigma", (5.0, 15.0)),))
        with pytest.raises(ValidationError, match=field):
            small_spec(**{**lhs, field: value})

    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError, match="id"):
            small_spec(id="")

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValidationError, match="sampler"):
            small_spec(sampler="sobol")

    def test_rejects_single_replication(self):
        with pytest.raises(ValidationError, match="replications"):
            small_spec(replications=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            small_spec(seed=-1)

    def test_rejects_grid_without_axes(self):
        with pytest.raises(ValidationError, match="axis"):
            small_spec(axes=())

    def test_rejects_empty_axis_values(self):
        with pytest.raises(ValidationError, match="no values"):
            small_spec(axes=(("demand.sigma", ()),))

    @pytest.mark.parametrize(
        "path",
        ["demand.width", "market.margin", "suppliers.beta", "sigma", "demand.sigma.extra"],
    )
    def test_rejects_unknown_parameter_path(self, path):
        with pytest.raises(ValidationError, match="path"):
            small_spec(axes=((path, (1.0,)),))

    @pytest.mark.parametrize(
        "path, values",
        [
            ("suppliers.beta_range", (0.3, 0.7)),
            ("suppliers.beta_range", ((0.1, 0.5, 0.9),)),
            ("suppliers.beta_range", ("ab",)),
            ("market.a3", ((500.0, 1000.0), (2000.0, 4000.0))),
            ("demand.sigma", ("8",)),
            ("demand.sigma", (True,)),
        ],
    )
    def test_rejects_misshapen_axis_values(self, path, values):
        with pytest.raises(ValidationError, match="values must be"):
            small_spec(axes=((path, values),))

    @pytest.mark.parametrize("sampler", ["grid", "latin-hypercube"])
    def test_rejects_repeated_axis_path(self, sampler):
        # two axes on one parameter would collapse into one results column
        axes = (("market.nu", (1.5, 2.0)), ("market.nu", (2.0, 3.0)))
        with pytest.raises(ValidationError, match="axis paths must be distinct"):
            small_spec(sampler=sampler, lhs_samples=4, axes=axes)

    def test_rejects_lhs_over_beta_range(self):
        with pytest.raises(ValidationError, match="latin-hypercube cannot sample"):
            small_spec(sampler="latin-hypercube", lhs_samples=10, axes=(("suppliers.beta_range", (0.1, 0.9)),))

    def test_rejects_lhs_range_of_pairs(self):
        with pytest.raises(ValidationError, match="real numbers"):
            small_spec(
                sampler="latin-hypercube",
                lhs_samples=10,
                axes=(("market.a3", ((500.0, 1000.0), (2000.0, 4000.0))),),
            )

    def test_rejects_lhs_with_too_few_samples(self):
        with pytest.raises(ValidationError, match="lhs_samples"):
            small_spec(sampler="latin-hypercube", lhs_samples=1)

    def test_rejects_lhs_axis_without_range(self):
        with pytest.raises(ValidationError, match="range"):
            small_spec(
                sampler="latin-hypercube",
                lhs_samples=10,
                axes=(("demand.sigma", (5.0, 8.0, 12.0)),),
            )

    def test_rejects_lhs_axis_with_inverted_range(self):
        with pytest.raises(ValidationError, match="range"):
            small_spec(
                sampler="latin-hypercube",
                lhs_samples=10,
                axes=(("demand.sigma", (15.0, 5.0)),),
            )

    # The last has finite ends, but high - low is inf, and so would every sample be.
    @pytest.mark.parametrize("values", [(500.0, math.inf), (-math.inf, 5.0), (5.0, math.nan), (-1e308, 1e308)])
    def test_rejects_lhs_axis_with_non_finite_end(self, values):
        # At construction, not later in latin_hypercube, so a config error names its file and line.
        with pytest.raises(ValidationError, match=r"needs a finite \(low, high\) range"):
            small_spec(sampler="latin-hypercube", lhs_samples=10, axes=(("market.a3", values),))

    def test_rejects_dynamic_with_axes(self):
        dyn = DynamicSpec(
            cycles=2,
            a3_initial=3000.0,
            a3_decline=200.0,
            learning_rate=0.05,
            target_penalty=0.05,
            alpha_initial=0.2,
        )
        with pytest.raises(ValidationError, match="dynamic"):
            small_spec(dynamic=dyn)


class TestAdaptiveUpdate:
    def test_exact_step(self):
        # 0.2 + 0.05 * (0.084 - 0.05) / 0.05 = 0.234
        assert adaptive_alpha_update(0.2, 0.084, 0.05, 0.05) == pytest.approx(0.234, abs=5e-13)

    def test_chained_steps(self):
        second = adaptive_alpha_update(0.2, 0.084, 0.05, 0.05)
        third = adaptive_alpha_update(second, 0.081, 0.05, 0.05)
        assert third == pytest.approx(0.265, abs=5e-13)

    def test_on_target_is_fixed_point(self):
        assert adaptive_alpha_update(0.4, 0.05, 0.05, 0.05) == 0.4

    def test_clamps_to_unit_interval(self):
        assert adaptive_alpha_update(0.99, 0.5, 0.5, 0.05) == 1.0
        assert adaptive_alpha_update(0.01, 0.0, 0.5, 0.05) == 0.0


class TestGridRun:
    def test_cells_follow_product_order(self):
        spec = small_spec(
            axes=(("demand.sigma", (8.0, 12.0)), ("market.a3", (1000.0, 2000.0))),
        )
        rows = run(spec)
        coords = [r.coordinates for r in rows]
        assert coords == [
            (("demand.sigma", 8.0), ("market.a3", 1000.0)),
            (("demand.sigma", 8.0), ("market.a3", 2000.0)),
            (("demand.sigma", 12.0), ("market.a3", 1000.0)),
            (("demand.sigma", 12.0), ("market.a3", 2000.0)),
        ]
        assert [r.cell_index for r in rows] == [0, 1, 2, 3]
        assert all(r.scenario_id == "test" for r in rows)

    def test_identity_cell_reproduces_baseline_optimum(self):
        # setting sigma to its baseline value leaves the problem unchanged
        rows = run(small_spec(axes=(("demand.sigma", (8.0,)),)))
        assert rows[0].alpha_star == pytest.approx(BASELINE_ALPHA_STAR, rel=1e-12)
        assert rows[0].status == "ok"
        assert rows[0].kkt_max_residual < 1e-4
        assert rows[0].std_error > 0.0

    def test_failed_cell_reports_status_and_run_continues(self):
        rows = run(small_spec(axes=(("demand.sigma", (8.0, -3.0)),)))
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("InvalidDistributionError")
        assert math.isnan(rows[1].alpha_star)
        assert math.isnan(rows[1].expected_profit)
        assert len(rows) == 2

    def test_beta_range_redraw_is_seeded_per_cell(self):
        spec = small_spec(axes=(("suppliers.beta_range", ((0.3, 0.7), (0.3, 0.7))),))
        rows = run(spec)
        again = run(spec)
        assert rows == again
        # same range in two cells still differs: cell index keys the redraw
        assert rows[0].q_star != rows[1].q_star

    def test_beta_range_draws_the_cells_build_stream(self):
        spec = preset("s4")
        for index, coords in enumerate(_cell_coordinates(spec)):
            ((_, (lo, hi)),) = coords
            stream = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(_NS_BUILD, index)))
            expected = [float(stream.uniform(lo, hi)) for _ in spec.suppliers]
            assert [s.beta for s in _build_cell(spec, index, coords)[1]] == expected

    @pytest.mark.parametrize("preset_id, cells", [("s1", 0), ("s9", 0), ("s4", 3)])
    def test_build_stream_only_for_beta_range_cells(self, monkeypatch, preset_id, cells):
        keys = []
        seed_sequence = np.random.SeedSequence

        def recording(*args, **kwargs):
            keys.append(kwargs.get("spawn_key"))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        run(preset(preset_id, replications=50))
        assert [key for key in keys if key[0] == _NS_BUILD] == [(_NS_BUILD, i) for i in range(cells)]

    def test_nonpositive_mean_demand_becomes_error_row(self):
        demand = TruncatedNormal(mu=0.5, sigma=1.0, lower=-1.0, upper=1.0)
        rows = run(small_spec(demand=demand, axes=(("demand.mu", (0.5, 0.0)),)))
        assert rows[0].status == "ok"
        assert rows[1].status == "ValidationError: penalty rate needs a positive mean demand, got mean 0.0"
        assert math.isnan(rows[1].penalty_rate)

    def test_bad_beta_range_becomes_error_row(self):
        rows = run(small_spec(axes=(("suppliers.beta_range", ((0.9, 0.1),)),)))
        assert rows[0].status.startswith("ValidationError")

    def test_nonfinite_market_value_becomes_error_row(self):
        rows = run(small_spec(axes=(("market.a3", (2000.0, math.nan, math.inf)),)))
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("ValidationError: a3 must be finite")
        assert rows[2].status.startswith("ValidationError: a3 must be finite")

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValidationError, match="jobs"):
            run(small_spec(), jobs=0)


class TestFailedRows:
    """A failed cell keeps its identity and status; every other field is NaN."""

    METRICS = [
        f.name
        for f in dataclasses.fields(ScenarioResult)
        if f.name not in ("scenario_id", "cell_index", "coordinates", "status")
    ]

    def assert_failed(self, row, error):
        assert row.status.startswith(f"{error}: ")
        assert all(math.isnan(getattr(row, name)) for name in self.METRICS), row

    def test_build_error(self):
        rows = run(small_spec(axes=(("demand.sigma", (8.0, -3.0)),)))
        self.assert_failed(rows[1], "InvalidDistributionError")
        assert (rows[1].scenario_id, rows[1].cell_index, rows[1].coordinates) == ("test", 1, (("demand.sigma", -3.0),))

    def test_solve_errors(self):
        spec = small_spec(axes=(("market.salvage", (0.0, 95.0)), ("market.a1", (5.0, 100.0))))
        rows = run(spec)
        assert rows[0].status == "ok"
        self.assert_failed(rows[1], "NegativeUnitCostError")
        self.assert_failed(rows[2], "DegenerateEconomicsError")
        self.assert_failed(rows[3], "DegenerateEconomicsError")

    def test_monte_carlo_overflow_fails_the_row(self):
        # The per-draw profits overflow at a price near float range: the row
        # fails where ProfitBreakdown refuses them, with no RuntimeWarning.
        rows = run(small_spec(axes=(("market.price", (150.0, 1.7e308)),)))
        assert rows[0].status == "ok"
        self.assert_failed(rows[1], "DegenerateEconomicsError")
        assert "the money terms overflow a float" in rows[1].status

    def test_error_after_the_solve(self):
        demand = TruncatedNormal(mu=0.5, sigma=1.0, lower=-1.0, upper=1.0)
        rows = run(small_spec(demand=demand, axes=(("demand.mu", (0.5, 0.0)),)))
        self.assert_failed(rows[1], "ValidationError")

    # numpy refuses these counts before anything is allocated: 2**62 doubles
    # exceed its largest array size (ValueError), and 2**57 doubles (1 EiB)
    # exceed any 64-bit address space (MemoryError).
    @pytest.mark.parametrize("n", [2**62, 2**57])
    def test_replications_numpy_cannot_allocate_fail_each_row_by_name(self, n):
        for row in run(small_spec(replications=n)):
            self.assert_failed(row, "ValidationError")
            assert f"sample size {n} is too large to allocate" in row.status

    @pytest.mark.parametrize("n", [2**62, 2**57])
    def test_counts_numpy_cannot_allocate_stop_lhs_and_dynamic_runs_by_name(self, n):
        lhs = small_spec(axes=(("market.a3", (500.0, 4000.0)),), sampler="latin-hypercube", lhs_samples=n)
        with pytest.raises(ValidationError, match=f"latin hypercube n={n} is too large to allocate"):
            run(lhs)
        dynamic = preset("s11", replications=n)
        with pytest.raises(ValidationError, match=f"sample size {n} is too large to allocate"):
            run(dynamic)

    def test_cycle_rows_leave_only_the_kkt_audit_nan(self):
        for row in run(preset("s11", replications=200)):
            metrics = {name: getattr(row, name) for name in self.METRICS}
            assert math.isnan(metrics.pop("kkt_max_residual"))
            assert all(math.isfinite(v) for v in metrics.values()), metrics


class TestCellBuiltOnce:
    """A cell's models are built once from all of its coordinates, so the
    order of its axes never decides whether it solves."""

    BOUNDS = (("demand.lower", (75.0,)), ("demand.upper", (90.0,)))

    @pytest.mark.parametrize("axes", [BOUNDS, BOUNDS[::-1]], ids=["lower-first", "upper-first"])
    def test_bounds_past_the_base_upper_solve_in_either_order(self, axes):
        (row,) = run(small_spec(axes=axes))
        opt = optimize(
            BASELINE_MARKET,
            BASELINE_SUPPLIERS,
            dataclasses.replace(BASELINE_DEMAND, lower=75.0, upper=90.0),
        )
        assert row.status == "ok"
        assert (row.alpha_star, row.q_star) == (opt.alpha_star, opt.q_star)
        assert row.alpha_star == 0.01644605340336963

    def test_lhs_over_both_bounds_solves_every_cell(self):
        spec = small_spec(
            axes=(("demand.lower", (72.0, 80.0)), ("demand.upper", (85.0, 95.0))),
            sampler="latin-hypercube",
            lhs_samples=5,
        )
        assert [row.status for row in run(spec)] == ["ok"] * 5

    def test_untouched_models_are_the_specs_own(self):
        spec = small_spec()
        market, suppliers, demand = _build_cell(spec, 0, (("demand.sigma", 12.0),))
        assert market is spec.market and suppliers is spec.suppliers
        assert demand == dataclasses.replace(spec.demand, sigma=12.0)

    @pytest.mark.parametrize(
        "axes, error",
        [
            ((("demand.sigma", (-1.0,)), ("market.salvage", (150.0,))), "ValidationError: salvage"),
            ((("market.salvage", (150.0,)), ("demand.sigma", (-1.0,))), "ValidationError: salvage"),
            (
                (
                    ("demand.sigma", (-1.0,)),
                    ("market.salvage", (150.0,)),
                    ("suppliers.beta_range", ((0.9, 0.1),)),
                ),
                "ValidationError: beta_range",
            ),
            ((("market.a3", (10**400,)),), "ValidationError: a3 must be finite"),
            ((("demand.sigma", (10**400,)), ("market.salvage", (150.0,))), "ValidationError: salvage"),
        ],
        ids=["demand-first", "market-first", "with-beta-range", "beyond-float-range", "beyond-float-range-demand"],
    )
    def test_broken_models_report_beta_range_then_market_then_demand(self, axes, error):
        (row,) = run(small_spec(axes=axes))
        assert row.status.startswith(error)


class TestParallelDeterminism:
    def test_process_pool_matches_serial_run(self):
        spec = small_spec(
            axes=(("demand.sigma", (5.0, 8.0, 12.0)), ("market.a3", (1000.0, 3000.0))),
            replications=300,
        )
        assert run(spec, jobs=1) == run(spec, jobs=2)

    def test_lhs_run_matches_across_job_counts(self):
        spec = small_spec(
            sampler="latin-hypercube",
            lhs_samples=6,
            axes=(("demand.sigma", (5.0, 15.0)), ("market.a3", (500.0, 4000.0))),
            replications=300,
        )
        assert run(spec, jobs=1) == run(spec, jobs=3)


class TestRowsMatchOptimize:
    """A scenario cell is solved in one batch with its neighbours; its row must
    carry exactly what optimize gives for the same model alone."""

    @pytest.mark.parametrize(
        "spec",
        [
            preset("s3"),
            preset("s9"),
            preset("s10"),
            small_spec(axes=(("market.nu", (1.5, 2.0, 3.0)), ("market.a3", (500.0, 2000.0)))),
            small_spec(axes=(("market.salvage", (0.0, 95.0)), ("market.a1", (5.0, 100.0)))),
        ],
        ids=["s3", "s9", "s10", "nu", "failures"],
    )
    def test_row_equals_optimize(self, spec):
        for row in run(spec):
            try:
                opt = optimize(*cell_model(spec, row.coordinates))
            except ProcureKitError as exc:
                assert row.status == f"{type(exc).__name__}: {exc}"
                continue
            assert row.status == "ok"
            assert (row.alpha_star, row.q_star, row.kkt_max_residual) == (
                opt.alpha_star,
                opt.q_star,
                opt.kkt.max_residual,
            )


class TestLatinHypercube:
    def test_exact_stratification(self):
        rng = np.random.default_rng(3)
        design = latin_hypercube([(0.0, 1.0), (10.0, 30.0)], 8, rng)
        assert design.shape == (8, 2)
        for j, (lo, hi) in enumerate([(0.0, 1.0), (10.0, 30.0)]):
            strata = np.floor((design[:, j] - lo) / (hi - lo) * 8).astype(int)
            assert sorted(strata) == list(range(8))

    def test_points_stay_inside_ranges(self):
        rng = np.random.default_rng(4)
        design = latin_hypercube([(-2.0, 5.0)], 50, rng)
        assert np.all(design >= -2.0) and np.all(design <= 5.0)

    def test_same_seed_reproduces_design(self):
        a = latin_hypercube([(0.0, 1.0), (0.0, 1.0)], 20, np.random.default_rng(9))
        b = latin_hypercube([(0.0, 1.0), (0.0, 1.0)], 20, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            latin_hypercube([(0.0, 1.0)], 1, np.random.default_rng(0))

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValidationError, match="dimension"):
            latin_hypercube([], 10, np.random.default_rng(0))

    def test_rejects_inverted_range(self):
        with pytest.raises(ValidationError, match="low < high"):
            latin_hypercube([(5.0, 5.0)], 10, np.random.default_rng(0))

    def test_rejects_range_whose_width_overflows(self):
        with pytest.raises(ValidationError, match="finite width"):
            latin_hypercube([(0.0, 1.0), (-1e308, 1e308)], 10, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2**62, 2**57])
    def test_refuses_a_count_numpy_cannot_allocate(self, n):
        with pytest.raises(ValidationError, match=f"latin hypercube n={n} is too large to allocate"):
            latin_hypercube([(0.0, 1.0), (10.0, 30.0)], n, np.random.default_rng(0))

    def test_widest_finite_range_samples_inside_it(self):
        design = latin_hypercube([(-8e307, 8e307)], 10, np.random.default_rng(0))
        assert np.all(np.isfinite(design)) and np.all(np.abs(design) <= 8e307)


class TestVarianceDecomposition:
    def test_single_parameter_gets_everything(self):
        rng = np.random.default_rng(5)
        x = rng.random(30)
        shares = variance_decomposition(x, 4.0 * x + 1.0)
        assert shares == pytest.approx([100.0])

    def test_equal_standardized_slopes_split_evenly(self):
        rng = np.random.default_rng(6)
        x = rng.random((200, 2)) * [3.0, 40.0]
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        shares = variance_decomposition(x, z[:, 0] + z[:, 1])
        assert shares == pytest.approx([50.0, 50.0], abs=1e-9)

    def test_known_slope_ratio(self):
        rng = np.random.default_rng(7)
        x = rng.random((300, 2))
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        shares = variance_decomposition(x, 2.0 * z[:, 0] + 1.0 * z[:, 1])
        assert shares == pytest.approx([80.0, 20.0], abs=1e-9)

    def test_shares_sum_to_hundred(self):
        rng = np.random.default_rng(8)
        x = rng.random((60, 3))
        y = x @ [1.0, -2.0, 0.5] + rng.normal(0, 0.1, 60)
        shares = variance_decomposition(x, y)
        assert shares.sum() == pytest.approx(100.0, abs=1e-9)
        assert np.all(shares >= 0.0)

    def test_rejects_collinear_parameters(self):
        rng = np.random.default_rng(9)
        x1 = rng.random(40)
        x = np.column_stack([x1, 2.0 * x1 + 3.0])
        with pytest.raises(RankDeficientDesignError, match="rank|collinear"):
            variance_decomposition(x, x1)

    def test_rejects_constant_parameter_column(self):
        rng = np.random.default_rng(10)
        x = np.column_stack([rng.random(40), np.full(40, 2.5)])
        with pytest.raises(RankDeficientDesignError, match="constant"):
            variance_decomposition(x, x[:, 0])

    def test_rejects_too_few_samples(self):
        x = np.arange(9.0)
        with pytest.raises(ValidationError, match="10 samples"):
            variance_decomposition(x, x)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError, match="responses"):
            variance_decomposition(np.arange(12.0), np.arange(11.0))

    def test_rejects_flat_response(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValidationError, match="vary"):
            variance_decomposition(rng.random(20), np.full(20, 3.0))

    def test_rejects_a_response_no_parameter_explains(self):
        # y is symmetric about the middle of x, so the fitted slope is exactly 0.
        x = np.arange(1.0, 11.0)
        with pytest.raises(ValidationError, match="vary"):
            variance_decomposition(x, np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("column", [[1.0] * 8 + [1e308] * 2, [1.0] * 8 + [0.0, 1e308]])
    def test_rejects_samples_whose_spread_overflows(self, column):
        x = np.column_stack([np.arange(10.0), column])
        with pytest.raises(ValidationError, match="overflows a float"):
            variance_decomposition(x, np.arange(10.0))

    def test_rejects_nonfinite_input(self):
        x = np.arange(12.0)
        y = x.copy()
        y[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            variance_decomposition(x, y)


class TestPresets:
    def test_every_preset_constructs(self):
        for pid in PRESET_IDS:
            spec = preset(pid)
            assert spec.id == pid
            assert spec.seed == DEFAULT_SEED
            assert spec.replications == DEFAULT_REPLICATIONS

    def test_preset_ids_in_order(self):
        assert PRESET_IDS == tuple(f"s{i}" for i in range(1, 12))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="preset"):
            preset("s99")

    def test_sigma_sweep_values(self):
        spec = preset("s1")
        assert spec.axes == (("demand.sigma", (5.0, 8.0, 12.0, 15.0)),)

    def test_adoption_cost_tail_values(self):
        spec = preset("s8")
        assert spec.axes == (
            ("market.a3", (10_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0)),
        )

    def test_lhs_preset_settings(self):
        spec = preset("s9")
        assert spec.sampler == "latin-hypercube"
        assert spec.lhs_samples == 100
        assert [path for path, _ in spec.axes] == [
            "demand.sigma",
            "demand.upper",
            "market.a3",
        ]

    def test_heatmap_preset_is_square_grid(self):
        spec = preset("s10")
        assert len(spec.axes) == 2
        assert len(spec.axes[0][1]) == 5 and len(spec.axes[1][1]) == 5

    def test_dynamic_preset_settings(self):
        spec = preset("s11")
        dyn = spec.dynamic
        assert dyn is not None
        assert dyn.cycles == 10
        assert dyn.a3_initial == 3000.0 and dyn.a3_decline == 200.0
        assert dyn.learning_rate == 0.05 and dyn.target_penalty == 0.05
        assert dyn.alpha_initial == 0.2
        # wider demand spread than baseline keeps the penalty signal active
        assert spec.demand.sigma == 12.0

    def test_seed_and_replications_pass_through(self):
        spec = preset("s1", seed=123, replications=777)
        assert spec.seed == 123 and spec.replications == 777


@pytest.fixture(scope="module")
def trajectory():
    return run(preset("s11", replications=2000))


class TestDynamicRun:
    def test_one_row_per_cycle(self, trajectory):
        assert len(trajectory) == 10
        assert [dict(r.coordinates)["cycle"] for r in trajectory] == list(range(1, 11))

    def test_adoption_cost_declines_to_schedule_end(self, trajectory):
        a3s = [dict(r.coordinates)["market.a3"] for r in trajectory]
        assert a3s == [3000.0 - 200.0 * t for t in range(10)]

    def test_alpha_starts_at_initial_and_never_decreases(self, trajectory):
        alphas = [r.alpha_star for r in trajectory]
        assert alphas[0] == 0.2
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_penalty_never_increases(self, trajectory):
        penalties = [r.penalty_rate for r in trajectory]
        assert all(b <= a for a, b in zip(penalties, penalties[1:]))

    def test_kkt_residual_not_reported_for_cycles(self, trajectory):
        assert all(math.isnan(r.kkt_max_residual) for r in trajectory)

    def test_run_dynamic_requires_dynamic_settings(self):
        with pytest.raises(ValidationError, match="dynamic"):
            run_dynamic(small_spec())

    def test_same_seed_reproduces_trajectory(self):
        spec = preset("s11", replications=500)
        assert run_dynamic(spec) == run_dynamic(spec)


class TestTrends:
    def test_quantity_rises_with_demand_spread(self):
        rows = run(preset("s1", replications=300))
        qs = [r.q_star for r in rows]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_adoption_falls_with_adoption_cost(self):
        rows = run(preset("s5", replications=300))
        alphas = [r.alpha_star for r in rows]
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))

    def test_lhs_preset_covers_every_stratum(self):
        spec = dataclasses.replace(preset("s9", replications=300), lhs_samples=20)
        rows = run(spec, jobs=2)
        assert all(r.status == "ok" for r in rows)
        sigmas = np.array([dict(r.coordinates)["demand.sigma"] for r in rows])
        strata = np.floor((sigmas - 5.0) / 10.0 * 20).astype(int)
        assert sorted(strata) == list(range(20))

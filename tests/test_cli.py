"""End-to-end CLI tests: files written, exit codes, determinism."""

import csv
import dataclasses
import json
import math

import pytest
from click.testing import CliRunner

from procurekit import cli
from procurekit.cli import main
from procurekit.config import load_config
from procurekit.scenarios import preset, run

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestOptimize:
    def test_writes_optimum_json_with_small_kkt_residual(self, tmp_path):
        result = invoke("optimize", "--out", tmp_path, "--replications", 500)
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "optimum.json").read_text())
        assert payload["kkt"]["max_residual"] <= 1e-4
        assert payload["alpha_star"] == pytest.approx(0.0073617888, abs=1e-6)
        assert len(payload["allocation"]) == 3
        assert payload["monte_carlo"]["replications"] == 500
        assert "expected_profit_usd" in payload["closed_form"]
        assert "alpha_star=" in result.output

    def test_same_seed_is_byte_identical(self, tmp_path):
        invoke("optimize", "--out", tmp_path / "a", "--seed", 5, "--replications", 300)
        invoke("optimize", "--out", tmp_path / "b", "--seed", 5, "--replications", 300)
        assert (tmp_path / "a/optimum.json").read_bytes() == (
            tmp_path / "b/optimum.json"
        ).read_bytes()

    def test_invalid_config_names_field_and_exits_1(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("demand:\n  sigma: -1.0\n")
        result = invoke("optimize", "--config", config, "--out", tmp_path)
        assert result.exit_code == 1
        assert "sigma" in result.stderr
        assert not (tmp_path / "optimum.json").exists()


    def test_zero_mean_demand_is_one_error_line(self, tmp_path):
        config = tmp_path / "zero-mean.yaml"
        config.write_text("demand:\n  mu: 0.0\n  sigma: 1.0\n  lower: -1.0\n  upper: 1.0\n")
        result = invoke("optimize", "--config", config, "--out", tmp_path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "positive mean demand, got mean 0.0" in line
        assert not (tmp_path / "optimum.json").exists()

    def test_alpha_below_the_smallest_double_exits_2(self, tmp_path):
        # alpha* = (a1 * Q* / (a3 * nu))**(1 / (nu - 1)) is about 1e-474 here:
        # it rounds to 0, where the slope a1 * Q* = 2.57 is far from 0, so the
        # KKT audit refuses the answer rather than report alpha* = 0.
        config = tmp_path / "nu-near-one.yaml"
        config.write_text("market:\n  nu: 1.005\n  a1: 0.05\n  a3: 600.0\n")
        result = invoke("optimize", "--config", config, "--out", tmp_path)
        assert result.exit_code == 2
        [line] = result.stderr.splitlines()
        assert line.startswith('error: {"kind": "runtime", "message": "KKT max_residual 2.57')
        assert "at alpha=0.0," in line
        assert not (tmp_path / "optimum.json").exists()


class TestScenario:
    def test_adoption_cost_tail_preset(self, tmp_path):
        result = invoke("scenario", "s8", "--replications", 300, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "results.csv")
        assert len(rows) == 5
        assert all(float(r["alpha_star"]) < 0.005 for r in rows)

    def test_dynamic_preset_writes_trajectory(self, tmp_path):
        result = invoke("scenario", "s11", "--replications", 300, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "trajectory.csv")
        assert [float(r["a3_usd"]) for r in rows] == [
            3000.0 - 200.0 * t for t in range(10)
        ]
        alphas = [float(r["alpha"]) for r in rows]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_two_axis_grid_emits_heatmap(self, tmp_path):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "replications: 200\n"
            "scenario:\n"
            "  id: mini\n"
            "  axes:\n"
            "    - path: demand.sigma\n"
            "      values: [6.0, 10.0]\n"
            "    - path: market.a3\n"
            "      values: [1000.0, 2000.0]\n"
        )
        result = invoke("scenario", spec, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        heatmap = read_rows(tmp_path / "heatmap.csv")
        assert list(heatmap[0].keys()) == ["x", "y", "value"]
        assert len(heatmap) == 4
        svg = (tmp_path / "heatmap.svg").read_text()
        assert svg.startswith("<svg") and "alpha_star" in svg
        results = read_rows(tmp_path / "results.csv")
        assert {r["demand.sigma"] for r in results} == {"6.0", "10.0"}

    @pytest.mark.parametrize(
        "x_axis",
        [
            "{path: market.a3, values: [1000.0, 1000.0]}",
            "{path: suppliers.beta_range, values: [[0.3, 0.7], [0.3, 0.7]]}",
        ],
        ids=["a3", "beta_range"],
    )
    def test_heatmap_places_repeated_axis_values_by_position(self, tmp_path, x_axis):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "replications: 200\n"
            "scenario:\n"
            "  id: repeat\n"
            "  axes:\n"
            f"    - {x_axis}\n"
            "    - {path: demand.sigma, values: [8.0, 12.0]}\n"
        )
        result = invoke("scenario", spec, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        alphas = [float(r["alpha_star"]) for r in read_rows(tmp_path / "results.csv")]
        assert [float(r["value"]) for r in read_rows(tmp_path / "heatmap.csv")] == alphas
        spec_obj = load_config(spec).scenario
        svg = cli.render_heatmap_svg(
            spec_obj.axes[0][1],
            spec_obj.axes[1][1],
            [alphas[:2], alphas[2:]],
            x_label=spec_obj.axes[0][0],
            y_label="demand.sigma",
            title="repeat: alpha_star",
        )
        assert (tmp_path / "heatmap.svg").read_text() == svg
        assert "#cccccc" not in svg

    def test_results_are_byte_identical_across_jobs(self, tmp_path):
        for jobs, name in ((1, "a"), (3, "b")):
            result = invoke(
                "scenario", "s1", "--replications", 250,
                "--jobs", jobs, "--out", tmp_path / name,
            )
            assert result.exit_code == 0, result.output
        assert (tmp_path / "a/results.csv").read_bytes() == (
            tmp_path / "b/results.csv"
        ).read_bytes()

    def test_json_format(self, tmp_path):
        result = invoke(
            "scenario", "s5", "--replications", 200, "--out", tmp_path,
            "--format", "json",
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "results.json").read_text())
        assert len(payload) == 5
        assert payload[0]["scenario_id"] == "s5"
        assert isinstance(payload[0]["alpha_star"], float)

    def test_unknown_preset_lists_options(self, tmp_path):
        result = invoke("scenario", "s99", "--out", tmp_path)
        assert result.exit_code == 1
        assert "s11" in result.stderr

    def test_malformed_spec_leaves_no_partial_output(self, tmp_path):
        spec = tmp_path / "broken.yaml"
        spec.write_text("scenario:\n  id: x\n  axes: [\n")
        out = tmp_path / "out"
        result = invoke("scenario", spec, "--out", out)
        assert result.exit_code == 1
        assert not out.exists()

    def test_config_without_scenario_section_is_rejected(self, tmp_path):
        spec = tmp_path / "plain.yaml"
        spec.write_text("seed: 3\n")
        result = invoke("scenario", spec, "--out", tmp_path)
        assert result.exit_code == 1
        assert "scenario section" in result.stderr

    def test_rejects_unknown_format(self, tmp_path):
        result = invoke("scenario", "s1", "--format", "xml", "--out", tmp_path)
        assert result.exit_code == 1

    @pytest.mark.parametrize("target", ["preset", "spec file"])
    def test_seed_and_replications_override_the_spec(self, tmp_path, target):
        if target == "preset":
            arg, spec = "s1", preset("s1")
        else:
            arg = tmp_path / "spec.yaml"
            arg.write_text(
                "scenario:\n  id: mini\n  seed: 3\n  replications: 150\n"
                "  axes:\n    - {path: market.a3, values: [1000.0, 3000.0]}\n"
            )
            spec = load_config(arg).scenario
        result = invoke("scenario", arg, "--seed", 17, "--replications", 120, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        overridden = dataclasses.replace(spec, seed=17, replications=120)
        paths = tuple(path for path, _ in spec.axes)
        expected = [cli._result_row(r, paths) for r in run(overridden)]
        assert (tmp_path / "results.csv").read_text() == cli._table("results", expected, "csv")[1]
        as_given = [cli._result_row(r, paths) for r in run(spec)]
        assert as_given != expected


def header_line(path):
    with open(path) as handle:
        return handle.readline().rstrip("\n")


class TestHeaders:
    """Columns never reorder; new ones are only appended (docs/formats.md)."""

    METRICS = (
        "alpha_star,q_star,expected_profit_usd,fill_rate,penalty_rate,std_error,"
        "kkt_max_residual,status"
    )

    def test_results_and_heatmap(self, tmp_path):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "scenario:\n  id: mini\n  replications: 100\n  axes:\n"
            "    - {path: market.a3, values: [1000.0, 2000.0]}\n"
            "    - {path: demand.sigma, values: [6.0, 10.0]}\n"
        )
        assert invoke("scenario", spec, "--out", tmp_path).exit_code == 0
        assert header_line(tmp_path / "results.csv") == (
            "scenario_id,cell_index,market.a3,demand.sigma," + self.METRICS
        )
        assert header_line(tmp_path / "heatmap.csv") == "x,y,value"

    def test_trajectory(self, tmp_path):
        assert invoke("scenario", "s11", "--replications", 100, "--out", tmp_path).exit_code == 0
        assert header_line(tmp_path / "trajectory.csv") == (
            "scenario_id,cycle,a3_usd,alpha,q,expected_profit_usd,fill_rate,penalty_rate,"
            "std_error,status"
        )

    def test_fits_and_histogram(self, tmp_path):
        assert invoke("sample", "--n", 1000, "--seed", 5, "--out", tmp_path).exit_code == 0
        assert header_line(tmp_path / "histogram.csv") == "bin_left,bin_right,density"
        assert invoke("fit", tmp_path / "samples.csv", "--out", tmp_path).exit_code == 0
        assert header_line(tmp_path / "fits.csv") == (
            "rank,family,params,n_free_params,log_likelihood,aic,bic,ks_statistic,rmse,"
            "sample_size,notes"
        )


def csv_cell(value):
    """The CSV text of one JSON table value; null stands for nan."""
    if value is None:
        return "nan"
    return repr(value) if isinstance(value, float) else str(value)


def assert_json_matches_csv(tmp_path, args, stem):
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    assert invoke(*args, "--out", csv_dir).exit_code == 0
    assert invoke(*args, "--out", json_dir, "--format", "json").exit_code == 0
    csv_rows = read_rows(csv_dir / f"{stem}.csv")
    json_rows = json.loads((json_dir / f"{stem}.json").read_text())
    assert [list(row) for row in json_rows] == [list(row) for row in csv_rows]
    assert [{k: csv_cell(v) for k, v in row.items()} for row in json_rows] == csv_rows
    return json_rows


class TestTableFormats:
    def test_results_rows_with_pairs_and_a_failed_cell(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            "scenario:\n  id: pairs\n  replications: 200\n  axes:\n"
            "    - {path: suppliers.beta_range, values: [[0.4, 0.6], [0.3, 0.7]]}\n"
            "    - {path: demand.sigma, values: [8.0, -1.0]}\n"
        )
        rows = assert_json_matches_csv(tmp_path, ("scenario", spec), "results")
        assert [r["suppliers.beta_range"] for r in rows] == ["0.4:0.6"] * 2 + ["0.3:0.7"] * 2
        assert [r["status"] == "ok" for r in rows] == [True, False, True, False]
        assert rows[1]["alpha_star"] is None

    def test_s4_results(self, tmp_path):
        args = ("scenario", "s4", "--replications", 200)
        rows = assert_json_matches_csv(tmp_path, args, "results")
        assert all(":" in r["suppliers.beta_range"] for r in rows)

    def test_s11_trajectory(self, tmp_path):
        args = ("scenario", "s11", "--replications", 200)
        rows = assert_json_matches_csv(tmp_path, args, "trajectory")
        assert [r["cycle"] for r in rows] == list(range(1, len(rows) + 1))

    def test_fits(self, tmp_path):
        invoke("sample", "--n", 2000, "--seed", 5, "--out", tmp_path)
        rows = assert_json_matches_csv(tmp_path, ("fit", tmp_path / "samples.csv"), "fits")
        assert [r["rank"] for r in rows] == [1, 2, 3]


class TestSample:
    def test_draws_stay_inside_bounds_and_histogram_normalizes(self, tmp_path):
        result = invoke("sample", "--n", 20000, "--seed", 3, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        with open(tmp_path / "samples.csv") as handle:
            header = handle.readline().strip()
            values = [float(line) for line in handle]
        assert header == "demand"
        assert len(values) == 20000
        assert all(30.0 <= v <= 70.0 for v in values)
        mass = sum(
            float(r["density"]) * (float(r["bin_right"]) - float(r["bin_left"]))
            for r in read_rows(tmp_path / "histogram.csv")
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_seed_reproducibility(self, tmp_path):
        invoke("sample", "--n", 500, "--seed", 9, "--out", tmp_path / "a")
        invoke("sample", "--n", 500, "--seed", 9, "--out", tmp_path / "b")
        assert (tmp_path / "a/samples.csv").read_bytes() == (
            tmp_path / "b/samples.csv"
        ).read_bytes()

    def test_parameter_overrides_apply(self, tmp_path):
        result = invoke(
            "sample", "--n", 200, "--lower", 45.0, "--upper", 55.0, "--out", tmp_path
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "samples.csv") as handle:
            handle.readline()
            values = [float(line) for line in handle]
        assert all(45.0 <= v <= 55.0 for v in values)

    def test_invalid_distribution_rejected(self, tmp_path):
        result = invoke("sample", "--sigma", -4.0, "--out", tmp_path)
        assert result.exit_code == 1
        assert "sigma" in result.stderr

    def test_rejects_nonpositive_sample_count(self, tmp_path):
        result = invoke("sample", "--n", 0, "--out", tmp_path)
        assert result.exit_code == 1


class TestFit:
    @pytest.fixture()
    def demand_file(self, tmp_path):
        invoke("sample", "--n", 3000, "--seed", 21, "--out", tmp_path)
        return tmp_path / "samples.csv"

    def test_recovers_generating_family_first(self, tmp_path, demand_file):
        result = invoke("fit", demand_file, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "fits.csv")
        assert rows[0]["family"] == "truncated-normal"
        assert rows[0]["rank"] == "1"
        aics = [float(r["aic"]) for r in rows]
        assert aics == sorted(aics)
        assert "truncated-normal" in result.output

    def test_family_subset_and_json_format(self, tmp_path, demand_file):
        result = invoke(
            "fit", demand_file, "--families", "pareto", "--out", tmp_path,
            "--format", "json",
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "fits.json").read_text())
        assert [r["family"] for r in payload] == ["pareto"]

    def test_unknown_family_lists_valid_names(self, tmp_path, demand_file):
        result = invoke("fit", demand_file, "--families", "weibull", "--out", tmp_path)
        assert result.exit_code == 1
        assert "truncated-normal" in result.stderr

    def test_empty_data_file_is_validation_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("demand\n")
        result = invoke("fit", empty, "--out", tmp_path)
        assert result.exit_code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        result = invoke("fit", tmp_path / "absent.csv", "--out", tmp_path)
        assert result.exit_code == 3

    def test_unknown_format_is_validation_error(self, tmp_path, demand_file):
        result = invoke("fit", demand_file, "--format", "xml", "--out", tmp_path)
        assert result.exit_code == 1
        assert "format must be 'csv' or 'json', got 'xml'" in result.stderr

    @pytest.fixture()
    def with_zero(self, tmp_path):
        # pareto needs strictly positive data; a truncated normal fits it
        path = tmp_path / "with_zero.csv"
        path.write_text("demand\n0\n3\n5\n8\n13\n21\n34\n")
        return path

    def test_a_family_that_cannot_fit_is_a_warning(self, tmp_path, with_zero):
        result = invoke("fit", with_zero, "--families", "pareto,truncated-normal", "--out", tmp_path)
        assert result.exit_code == 0, result.output
        assert "warning: pareto: pareto requires strictly positive data" in result.stderr
        assert [r["family"] for r in read_rows(tmp_path / "fits.csv")] == ["truncated-normal"]

    def test_no_usable_fit_is_validation_error(self, tmp_path, with_zero):
        result = invoke("fit", with_zero, "--families", "pareto", "--out", tmp_path)
        assert result.exit_code == 1
        assert "no family produced a usable fit" in result.stderr
        assert not (tmp_path / "fits.csv").exists()

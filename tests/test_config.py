"""Tests for YAML config parsing, validation context, and overrides."""

import re
import textwrap

import pytest
from click.testing import CliRunner

from procurekit.baseline import (
    BASELINE_DEMAND,
    BASELINE_MARKET,
    BASELINE_SUPPLIERS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
)
from procurekit.cli import main
from procurekit.config import RunConfig, apply_overrides, baseline_config, load_config, parse_config
from procurekit.demand import TruncatedNormal
from procurekit.economics import MarketEconomics, SupplierProfile
from procurekit.errors import ValidationError
from procurekit.scenarios import DynamicSpec

FULL_CONFIG = textwrap.dedent(
    """
    market:
      price: 160.0
      salvage: 25.0
      penalty: 35.0
      a1: 4.0
      a2: 7.0
      a3: 1500.0
      nu: 2.0
    suppliers:
      - id: 1
        base_cost: 90.0
        beta: 0.1
      - id: 2
        base_cost: 95.0
        beta: 0.9
    demand:
      mu: 55.0
      sigma: 6.0
      lower: 40.0
      upper: 72.0
    seed: 11
    replications: 250
    """
)

# Every dynamic field but cycles: the section is complete, so the model checks the cycles value.
DYNAMIC_REST = "a3_initial: 3000.0, a3_decline: 200.0, learning_rate: 0.05, target_penalty: 0.05, alpha_initial: 0.2"


class TestParseConfig:
    def test_full_document(self):
        cfg = parse_config(FULL_CONFIG)
        assert cfg.market.price == 160.0 and cfg.market.nu == 2.0
        assert [s.id for s in cfg.suppliers] == [1, 2]
        assert cfg.suppliers[1].beta == 0.9
        assert cfg.demand.mu == 55.0 and cfg.demand.upper == 72.0
        assert cfg.seed == 11 and cfg.replications == 250
        assert cfg.scenario is None

    def test_empty_document_is_baseline(self):
        cfg = parse_config("")
        assert cfg == baseline_config()
        assert cfg.market == BASELINE_MARKET
        assert cfg.suppliers == BASELINE_SUPPLIERS
        assert cfg.demand == BASELINE_DEMAND
        assert cfg.seed == DEFAULT_SEED
        assert cfg.replications == DEFAULT_REPLICATIONS

    def test_partial_section_keeps_other_defaults(self):
        cfg = parse_config("market:\n  price: 200.0\n")
        assert cfg.market.price == 200.0
        assert cfg.market.salvage == BASELINE_MARKET.salvage
        assert cfg.demand == BASELINE_DEMAND

    def test_rejects_unknown_section_key(self):
        with pytest.raises(ValidationError, match="unknown keys.*sigmaa"):
            parse_config("demand:\n  sigmaa: 9.0\n")

    def test_invalid_field_reports_file_and_line(self):
        # the reported line is where the demand mapping's content starts
        text = "market:\n  price: 100.0\ndemand:\n  sigma: -2.0\n"
        with pytest.raises(ValidationError, match=r"runs\.yaml:4: config\.demand: sigma"):
            parse_config(text, source="runs.yaml")

    def test_yaml_syntax_error_reports_line(self):
        with pytest.raises(ValidationError, match=r"cfg\.yaml:3: invalid YAML"):
            parse_config("market:\n  price: [\n", source="cfg.yaml")

    def test_yaml_reader_error_has_no_line(self):
        # The reader refuses a control character before any token has a mark.
        with pytest.raises(ValidationError, match=r"^<config>: invalid YAML: unacceptable character #x0007"):
            parse_config("market: \x07\n")

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ValidationError, match="mapping"):
            parse_config("- 1\n- 2\n")

    def test_rejects_wrong_scalar_types(self):
        with pytest.raises(ValidationError, match="must be a real number"):
            parse_config("market:\n  price: high\n")
        with pytest.raises(ValidationError, match="must be an integer"):
            parse_config("seed: 4.5\n")
        with pytest.raises(ValidationError, match="must be a real number"):
            parse_config("demand:\n  sigma: true\n")

    def test_exponent_without_decimal_point_is_a_float(self):
        # YAML 1.1 alone reads 1e3 as the string '1e3'.
        assert parse_config("market: {a3: 1e3}\n").market.a3 == 1000.0
        assert parse_config("demand: {mu: -5E+1, lower: -1_0e0}\n").demand.lower == -10.0
        with pytest.raises(ValidationError, match="a3 must be finite, got inf"):
            parse_config("market: {a3: 1e309}\n")

    def test_exponent_with_unsigned_exponent_is_a_float(self):
        # YAML 1.1 alone reads 2.5e3 and .5e3 as strings; it needs 2.5e+3.
        assert parse_config("market: {a3: 2.5e3}\n").market.a3 == 2500.0
        assert parse_config("market: {a3: .5e3, a1: 2.E1}\n").market.a3 == 500.0
        assert parse_config("demand: {mu: -5.0e1, lower: -1_0.5e0}\n").demand.lower == -10.5
        with pytest.raises(ValidationError, match="a3 must be a real number, got '2.5e3e3'"):
            parse_config("market: {a3: 2.5e3e3}\n")

    def test_integer_beyond_float_range_is_a_validation_error(self):
        huge = "1" + "0" * 400
        message = r"<config>:1: config.market: a3 must be finite, got an integer beyond float range"
        with pytest.raises(ValidationError, match=message):
            parse_config(f"market: {{a3: {huge}}}\n")
        with pytest.raises(ValidationError, match=r"axis 'market.a3' value must be a number within float range"):
            parse_config(f"scenario:\n  id: x\n  axes:\n    - path: market.a3\n      values: [1, {huge}]\n")
        with pytest.raises(ValidationError, match="<config>: invalid YAML: Exceeds the limit"):
            parse_config("market: {a3: 1" + "0" * 5000 + "}\n")

    def test_every_model_field_round_trips(self):
        # every field differs from the baseline and from its neighbours, so a
        # key read into the wrong field or left at its default shows
        text = textwrap.dedent(
            """
            market: {price: 161.0, salvage: 21.5, penalty: 33.0, a1: 4.5, a2: 6.5, a3: 1750.0, nu: 1.75}
            suppliers:
              - {id: 7, base_cost: 91.0, beta: 0.15}
              - {id: 4, base_cost: 97.5, beta: 0.85}
            demand: {mu: 52.0, sigma: 6.5, lower: 35.0, upper: 71.0}
            scenario:
              id: cycles
              dynamic:
                cycles: 6
                a3_initial: 2800.0
                a3_decline: 150.0
                learning_rate: 0.07
                target_penalty: 0.04
                alpha_initial: 0.3
            """
        )
        cfg = parse_config(text)
        assert cfg.market == MarketEconomics(
            price=161.0, salvage=21.5, penalty=33.0, a1=4.5, a2=6.5, a3=1750.0, nu=1.75
        )
        assert cfg.suppliers == (
            SupplierProfile(id=7, base_cost=91.0, beta=0.15),
            SupplierProfile(id=4, base_cost=97.5, beta=0.85),
        )
        assert cfg.demand == TruncatedNormal(mu=52.0, sigma=6.5, lower=35.0, upper=71.0)
        assert cfg.scenario.dynamic == DynamicSpec(
            cycles=6,
            a3_initial=2800.0,
            a3_decline=150.0,
            learning_rate=0.07,
            target_penalty=0.04,
            alpha_initial=0.3,
        )
        assert type(cfg.suppliers[0].id) is int and type(cfg.market.price) is float

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                f"scenario:\n  id: x\n  dynamic: {{cycles: 10.0, {DYNAMIC_REST}}}\n",
                "cycles must be an integer from 1 to 10000, got 10.0",
            ),
            (
                f"scenario:\n  id: x\n  dynamic: {{cycles: true, {DYNAMIC_REST}}}\n",
                "cycles must be an integer from 1 to 10000, got True",
            ),
            ("suppliers:\n  - {id: 1.5, base_cost: 90.0, beta: 0.2}\n", "id must be an integer, got 1.5"),
            ('demand:\n  sigma: "8"\n', "sigma must be a real number, got '8'"),
            ("market:\n  nu: 2\n", None),
        ],
    )
    def test_field_types_follow_the_model_annotations(self, text, message):
        if message is None:
            # an integer is a number
            assert parse_config(text).market.nu == 2.0
            return
        with pytest.raises(ValidationError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("replications: {}\n", "replications must be an integer, got {}"),
            ("market:\n  price: {a: 1}\n", "price must be a real number, got {'a': 1}"),
            ("market:\n  price: [{a: {b: 1}}]\n", "price must be a real number, got [{'a': {'b': 1}}]"),
            (
                "scenario:\n  id: x\n  axes:\n    - path: suppliers.beta_range\n      values: [{low: 0.2}]\n",
                "values must be (low, high) pairs, got {'low': 0.2}",
            ),
        ],
    )
    def test_error_text_echoes_values_without_line_stamps(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert str(exc.value).endswith(message)
        assert "__line__" not in str(exc.value)

    def test_unknown_key_message_lists_fields_in_declaration_order(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("scenario:\n  id: x\n  dynamic:\n    cycle: 3\n")
        assert str(exc.value).endswith(
            "unknown keys ['cycle']; expected a subset of ['cycles', 'a3_initial', "
            "'a3_decline', 'learning_rate', 'target_penalty', 'alpha_initial']"
        )

    def test_rejects_empty_supplier_list(self):
        with pytest.raises(ValidationError, match="nonempty list"):
            parse_config("suppliers: []\n")

    def test_supplier_errors_name_the_entry(self):
        text = "suppliers:\n  - id: 1\n    base_cost: 90.0\n    beta: 1.5\n"
        with pytest.raises(ValidationError, match=r"suppliers\[0\].*beta"):
            parse_config(text)

    def test_missing_required_supplier_key(self):
        with pytest.raises(ValidationError, match="missing required key 'beta'"):
            parse_config("suppliers:\n  - id: 1\n    base_cost: 90.0\n")


class TestScenarioSection:
    def test_axes_must_be_a_list(self):
        with pytest.raises(ValidationError, match=r"^run\.yaml:2: config\.scenario: axes must be a list"):
            parse_config("scenario:\n  id: x\n  axes: 5\n", source="run.yaml")

    def test_grid_scenario(self):
        text = textwrap.dedent(
            """
            seed: 3
            replications: 400
            scenario:
              id: sweep
              axes:
                - path: demand.sigma
                  values: [5.0, 8.0]
                - path: market.a3
                  values: [1000, 2000]
            """
        )
        spec = parse_config(text).scenario
        assert spec is not None
        assert spec.id == "sweep"
        assert spec.axes == (
            ("demand.sigma", (5.0, 8.0)),
            ("market.a3", (1000.0, 2000.0)),
        )
        # seed and replications inherit from the top level
        assert spec.seed == 3 and spec.replications == 400

    def test_scenario_own_seed_wins(self):
        text = "seed: 3\nscenario:\n  id: x\n  seed: 9\n  axes:\n    - path: demand.sigma\n      values: [8.0]\n"
        assert parse_config(text).scenario.seed == 9

    def test_beta_range_axis_values_become_pairs(self):
        text = textwrap.dedent(
            """
            scenario:
              id: spread
              axes:
                - path: suppliers.beta_range
                  values: [[0.4, 0.6], [0.1, 0.9]]
            """
        )
        spec = parse_config(text).scenario
        assert spec.axes == (("suppliers.beta_range", ((0.4, 0.6), (0.1, 0.9))),)

    def test_lhs_scenario(self):
        text = textwrap.dedent(
            """
            scenario:
              id: lhs
              sampler: latin-hypercube
              lhs_samples: 20
              axes:
                - path: demand.sigma
                  values: [5.0, 15.0]
            """
        )
        spec = parse_config(text).scenario
        assert spec.sampler == "latin-hypercube" and spec.lhs_samples == 20

    def test_dynamic_scenario(self):
        text = textwrap.dedent(
            """
            scenario:
              id: cycles
              dynamic:
                cycles: 10
                a3_initial: 3000.0
                a3_decline: 200.0
                learning_rate: 0.05
                target_penalty: 0.05
                alpha_initial: 0.2
            """
        )
        spec = parse_config(text).scenario
        assert spec.dynamic is not None and spec.dynamic.cycles == 10

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", ".nan"), ("learning_rate", ".inf"), ("target_penalty", ".inf"), ("a3_decline", ".nan")],
    )
    def test_non_finite_dynamic_setting_is_named_and_exits_1(self, tmp_path, field, value):
        settings = dict(
            cycles=10,
            a3_initial=3000.0,
            a3_decline=200.0,
            learning_rate=0.05,
            target_penalty=0.05,
            alpha_initial=0.2,
        )
        settings[field] = value
        config = tmp_path / "cycles.yaml"
        config.write_text(
            "scenario:\n  id: cycles\n  dynamic:\n" + "".join(f"    {k}: {v}\n" for k, v in settings.items())
        )
        result = CliRunner().invoke(main, ["scenario", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and f"dynamic: {field} must be finite" in line
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_axis_value_with_exponent_is_a_float(self):
        text = "scenario:\n  id: x\n  axes:\n    - path: market.a3\n      values: [1e308, 2e3]\n"
        assert parse_config(text).scenario.axes == (("market.a3", (1e308, 2000.0)),)

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "optimize",
                "market:\n  a3: 1" + "0" * 400 + "\n",
                ":2: config.market: a3 must be finite, got an integer beyond float range",
            ),
            (
                "scenario",
                "scenario:\n  id: x\n  axes:\n    - path: market.a3\n      values: [1" + "0" * 400 + "]\n",
                ":4: config.scenario.axes[0]: axis 'market.a3' value must be a number within float range",
            ),
            (
                "scenario",
                "scenario:\n  id: lhs\n  sampler: latin-hypercube\n  lhs_samples: 3\n"
                "  axes:\n    - path: market.a3\n      values: [-1e+308, 1e+308]\n",
                ":2: config.scenario: latin-hypercube axis 'market.a3' needs a finite (low, high) range of finite width",
            ),
        ],
        ids=["market-integer", "axis-integer", "lhs-width"],
    )
    def test_out_of_range_numbers_name_file_and_line(self, tmp_path, command, text, message):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        args = ["optimize", "--config", str(config)] if command == "optimize" else ["scenario", str(config)]
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and f"{config}{message}" in line
        assert not (tmp_path / "out").exists()

    def test_non_finite_lhs_range_names_file_and_line(self, tmp_path):
        config = tmp_path / "lhs.yaml"
        config.write_text(
            "scenario:\n  id: lhs\n  sampler: latin-hypercube\n  lhs_samples: 5\n"
            "  axes:\n    - path: market.a3\n      values: [500, .inf]\n"
        )
        result = CliRunner().invoke(main, ["scenario", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert f"{config}:2: config.scenario: latin-hypercube axis 'market.a3' needs a finite (low, high) range" in line

    def test_scenario_id_required(self):
        with pytest.raises(ValidationError, match="missing required key 'id'"):
            parse_config("scenario:\n  axes:\n    - path: demand.sigma\n      values: [8.0]\n")

    def test_axis_entries_validated(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_config(
                "scenario:\n  id: x\n  axes:\n    - path: demand.sigma\n      value: [8.0]\n"
            )

    @pytest.mark.parametrize("values", ['["a"]', '[[0.2, "b"]]', "[[0.2, true]]", "[{low: 0.2}]"])
    def test_axis_values_must_be_numbers_or_lists_of_numbers(self, values):
        with pytest.raises(ValidationError, match=r"values must be \(low, high\) pairs"):
            parse_config(
                f"scenario:\n  id: x\n  axes:\n    - path: suppliers.beta_range\n      values: {values}\n"
            )

    def test_unknown_axis_path_rejected_at_parse(self):
        with pytest.raises(ValidationError, match="path"):
            parse_config(
                "scenario:\n  id: x\n  axes:\n    - path: demand.volatility\n      values: [8.0]\n"
            )


class TestLoadAndOverrides:
    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(FULL_CONFIG)
        assert load_config(path) == parse_config(FULL_CONFIG, source=str(path))

    def test_shipped_baseline_file_matches_builtin(self):
        cfg = load_config("configs/baseline.yaml")
        assert cfg == baseline_config()

    def test_overrides_replace_seed_and_replications(self):
        cfg = apply_overrides(baseline_config(), seed=9, replications=333)
        assert cfg.seed == 9 and cfg.replications == 333

    def test_overrides_propagate_into_scenario(self):
        text = "scenario:\n  id: x\n  axes:\n    - path: demand.sigma\n      values: [8.0]\n"
        cfg = apply_overrides(parse_config(text), seed=5, replications=100)
        assert cfg.scenario.seed == 5 and cfg.scenario.replications == 100

    def test_no_overrides_returns_config_unchanged(self):
        cfg = baseline_config()
        assert apply_overrides(cfg) is cfg

    def test_rejects_bad_override_values(self):
        with pytest.raises(ValidationError, match="seed"):
            apply_overrides(baseline_config(), seed=-1)
        with pytest.raises(ValidationError, match="replications"):
            apply_overrides(baseline_config(), replications=1)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(replications=10**400), "replications must be finite, got an integer beyond float range"),
        ],
        ids=["bool-seed", "float-seed", "huge-replications"],
    )
    @pytest.mark.parametrize("scenario", [False, True], ids=["plain", "with-scenario"])
    def test_overrides_are_checked_by_the_rebuilt_records(self, overrides, message, scenario):
        text = "scenario:\n  id: x\n  axes:\n    - path: demand.sigma\n      values: [8.0]\n" if scenario else ""
        with pytest.raises(ValidationError, match=f"^{message}$"):
            apply_overrides(parse_config(text), **overrides)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(market="x"), "market must be a MarketEconomics, got 'x'"),
            (dict(suppliers=()), "suppliers must be a nonempty tuple of SupplierProfile, got ()"),
            (dict(demand=None), "demand must be a TruncatedNormal, got None"),
            (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
            (dict(replications=1), "replications must be at least 2, got 1"),
            (dict(scenario="s1"), "scenario must be a ScenarioSpec or None, got 's1'"),
        ],
    )
    def test_run_config_checks_its_own_fields(self, fields, message):
        base = dict(market=BASELINE_MARKET, suppliers=BASELINE_SUPPLIERS, demand=BASELINE_DEMAND)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RunConfig(**{**base, **fields})

    def test_top_level_seed_error_names_the_file(self):
        # the scenario would inherit the bad seed; the error names the top level
        message = r"^run\.yaml:1: config: seed must be a nonnegative integer, got -1$"
        with pytest.raises(ValidationError, match=message):
            parse_config("seed: -1\nscenario:\n  id: x\n", source="run.yaml")

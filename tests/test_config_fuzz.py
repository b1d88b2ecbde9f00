"""Property test: any YAML config ends in checked output or one error line.

Documents mix plausible values with NaN, infinities, strings, bools, lists
and missing or unknown keys. Each is run through ``optimize`` and
``scenario`` in process. A run either exits 0 with non-finite numbers only
where docs/formats.md allows them (failed-row metrics, and fill metrics
when the demand support reaches zero), or exits 1, 2 or 3 with exactly one
``error: {...}`` line and no traceback. Sizes stay small: at most 50
replications, 10 Latin hypercube samples, 4 cycles and 3 axes of 3 values.

Config passes each value to the model that owns it, so a study read from
YAML and the same study built as a ``ScenarioSpec`` in Python are one spec,
with one ``results.csv``.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from procurekit.baseline import BASELINE_DEMAND, BASELINE_MARKET, BASELINE_SUPPLIERS
from procurekit.cli import _result_row, _table, main
from procurekit.config import load_config, parse_config
from procurekit.errors import ValidationError
from procurekit.scenarios import ScenarioSpec, run

from helpers import examples

# builds() makes a fresh empty container per draw, so edits never share one
JUNK = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None]),
    st.builds(list),
    st.builds(dict),
    st.text(max_size=4),
    st.booleans(),
    st.integers(-5, 5),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=2),
)

# Plausible values per key; a few ranges cross their domain on purpose.
RANGES = {
    "market.price": (100.0, 200.0),
    "market.salvage": (0.0, 40.0),
    "market.penalty": (0.0, 80.0),
    "market.a1": (0.0, 10.0),
    "market.a2": (0.0, 12.0),
    "market.a3": (0.0, 5000.0),
    "market.nu": (0.9, 3.0),
    "demand.mu": (20.0, 80.0),
    "demand.sigma": (0.5, 20.0),
    "demand.lower": (-5.0, 40.0),
    "demand.upper": (60.0, 100.0),
}
AXIS_PATHS = ["market.a3", "market.nu", "demand.sigma", "demand.lower", "demand.mu"]


def section(prefix: str) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {},
        optional={
            key.split(".")[1]: st.floats(*bounds)
            for key, bounds in RANGES.items()
            if key.startswith(prefix)
        },
    )


SUPPLIER = st.fixed_dictionaries(
    {"id": st.integers(1, 3), "base_cost": st.floats(80.0, 120.0), "beta": st.floats(0.0, 1.0)}
)
PAIR = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted)


@st.composite
def axis(draw, latin: bool) -> dict:
    path = draw(st.sampled_from(AXIS_PATHS + ["suppliers.beta_range"] * (not latin)))
    one = PAIR if path == "suppliers.beta_range" else st.floats(*RANGES[path])
    if latin:
        return {"path": path, "values": sorted(draw(st.lists(one, min_size=2, max_size=2)))}
    return {"path": path, "values": draw(st.lists(one, min_size=1, max_size=3))}


@st.composite
def scenario(draw) -> dict:
    kind = draw(st.sampled_from(["grid", "latin-hypercube", "dynamic"]))
    doc = {"id": "fuzz"}
    if kind == "dynamic":
        doc["dynamic"] = {
            "cycles": draw(st.integers(1, 4)),
            "a3_initial": draw(st.floats(500.0, 5000.0)),
            "a3_decline": draw(st.floats(0.0, 500.0)),
            "learning_rate": draw(st.floats(0.01, 0.2)),
            "target_penalty": draw(st.floats(0.01, 0.2)),
            "alpha_initial": draw(st.floats(0.0, 1.0)),
        }
    else:
        latin = kind == "latin-hypercube"
        doc["axes"] = draw(st.lists(axis(latin), min_size=1, max_size=3))
        if latin:
            doc["sampler"] = kind
            doc["lhs_samples"] = draw(st.integers(2, 10))
    if draw(st.booleans()):
        doc["replications"] = draw(st.integers(2, 50))
    return doc


PLAUSIBLE = st.fixed_dictionaries(
    {"replications": st.integers(2, 50)},
    optional={
        "market": section("market."),
        "suppliers": st.lists(SUPPLIER, min_size=1, max_size=3),
        "demand": section("demand."),
        "seed": st.integers(0, 10),
        "scenario": scenario(),
    },
)


def slots(node: object) -> list[tuple]:
    """Every (container, key) pair in a document, depth first."""
    pairs = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        pairs.append((node, key))
        if isinstance(child, (dict, list)):
            pairs.extend(slots(child))
    return pairs


@st.composite
def documents(draw) -> dict:
    """A plausible document with up to three edits: junk, deletion, unknown key."""
    doc = draw(PLAUSIBLE)
    for _ in range(draw(st.integers(0, 3))):
        if not doc:
            break
        container, key = draw(st.sampled_from(slots(doc)))
        edit = draw(st.sampled_from(["junk", "delete", "unknown"]))
        if edit == "junk":
            container[key] = draw(JUNK)
        elif edit == "delete" and isinstance(container, dict):
            del container[key]
        elif isinstance(container, dict):
            container["bogus"] = draw(JUNK)
    return doc


def non_finite(cell: object) -> bool:
    if cell is None:
        return True
    if isinstance(cell, str):
        return cell in ("nan", "inf", "-inf")
    return isinstance(cell, float) and not math.isfinite(cell)


def check_error(result) -> None:
    assert result.exit_code in (1, 2, 3), result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert set(json.loads(lines[0][len("error: "):])) == {"kind", "message"}


def check_optimum(path: Path, config_path: Path) -> None:
    lower = load_config(config_path).demand.lower

    def walk(node: object, key: str = "") -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif non_finite(node):
            assert key in ("fill_rate_mean", "fill_rate_cvar10") and lower <= 0.0, key

    walk(json.loads(path.read_text()))


def table_rows(path: Path) -> list[dict]:
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_scenario(out: Path, config_path: Path) -> None:
    spec = load_config(config_path).scenario
    [table] = [p for p in out.iterdir() if p.stem in ("results", "trajectory")]
    failed = set()
    for row in table_rows(table):
        ok = row["status"] == "ok"
        if not ok:
            failed.add(tuple(str(row[path]) for path, _ in spec.axes))
        for key, cell in row.items():
            if non_finite(cell) and key not in ("status", "scenario_id"):
                lower = float(row.get("demand.lower", spec.demand.lower))
                assert not ok or (key == "fill_rate" and lower <= 0.0), (key, row)
    heatmap = out / "heatmap.csv"
    if heatmap.exists():
        for row in table_rows(heatmap):
            if non_finite(row["value"]):
                assert (row["x"], row["y"]) in failed, row


@settings(
    max_examples=examples(100),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(document=documents(), fmt=st.sampled_from(["csv", "json"]))
def test_every_config_ends_in_checked_output_or_one_error_line(document, fmt):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = tmp / "config.yaml"
        config_path.write_text(yaml.safe_dump(document, sort_keys=False))

        out = tmp / "optimize"
        result = runner.invoke(main, ["optimize", "--config", str(config_path), "--out", str(out)])
        if result.exit_code == 0:
            check_optimum(out / "optimum.json", config_path)
        else:
            check_error(result)

        out = tmp / "scenario"
        result = runner.invoke(
            main, ["scenario", str(config_path), "--format", fmt, "--out", str(out)]
        )
        if result.exit_code == 0:
            check_scenario(out, config_path)
        else:
            check_error(result)


STUDY = textwrap.dedent(
    """\
    seed: 5
    replications: 50
    scenario:
      id: study
      axes:
        - path: market.a3
          values: [500, 1000]
        - path: suppliers.beta_range
          values: [[0.2, 0.4]]
    """
)


def study_spec(**fields) -> ScenarioSpec:
    """STUDY built in Python, with int values and a list pair unless ``fields`` say otherwise."""
    settings_ = dict(
        id="study",
        market=BASELINE_MARKET,
        suppliers=BASELINE_SUPPLIERS,
        demand=BASELINE_DEMAND,
        axes=(("market.a3", (500, 1000)), ("suppliers.beta_range", ([0.2, 0.4],))),
        replications=50,
        seed=5,
    )
    return ScenarioSpec(**{**settings_, **fields})


def test_a_study_built_in_python_is_the_study_read_from_yaml(tmp_path):
    config_path = tmp_path / "study.yaml"
    config_path.write_text(STUDY)
    spec, from_yaml = study_spec(), parse_config(STUDY).scenario
    assert spec == from_yaml
    rows = run(spec)
    assert rows == run(from_yaml)

    result = CliRunner().invoke(main, ["scenario", str(config_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    paths = tuple(path for path, _ in spec.axes)
    _, text = _table("results", [_result_row(row, paths) for row in rows], "csv")
    assert (tmp_path / "out" / "results.csv").read_bytes() == text.encode()
    assert text.splitlines()[1].startswith("study,0,500.0,0.2:0.4,")


@pytest.mark.parametrize(
    "fields",
    [dict(id=5), dict(id=["x"]), dict(axes=(("market.a3", (10**400,)),))],
    ids=["int-id", "list-id", "axis-beyond-float-range"],
)
def test_a_spec_built_in_python_refuses_what_yaml_refuses(fields):
    with pytest.raises(ValidationError):
        study_spec(**fields)

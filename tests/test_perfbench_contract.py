"""The benchmark's traced segments still find every span they summarise.

perfbench/tracing.py takes medians over the spans of named procurekit
functions; a change that stops calling one of them makes the traced run die
on an empty median. One round of each segment shows that early.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = ("tracing", "inputs", "workloads")


@pytest.fixture
def tracing(monkeypatch):
    # perfbench/ is read, never written: no bytecode cache lands there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracing")
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("segment", ["solve_segment", "sweep_segment"])
def test_one_traced_round_reports_finite_metrics(tracing, segment):
    metrics, side = getattr(tracing, segment)(tracing.Tracer(), 7, 0.01)
    assert side["failed"] == 0 and side["errors"] == []
    assert metrics and all(math.isfinite(value) for value in metrics.values()), metrics

"""The test and benchmark tools outside the package: the line tracer's
line table, the benchmark record's pytest summary reader and the named
mutants' source patches."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

import pytest

from line_reach import _code_lines

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_record():
    return _tool("bench_record")


def test_code_lines_cover_nested_code_objects():
    source = textwrap.dedent(
        """\
        def outer(x):
            def inner(y):
                return y + 1
            return inner(x)


        class Holder:
            value = [n * n for n in range(3)]
        """
    )
    assert _code_lines(compile(source, "<snippet>", "exec")) == {1, 2, 3, 4, 7, 8}


def test_pytest_counts_reads_the_summary_line():
    module = _bench_record()
    assert module.pytest_counts("1 failed, 880 passed in 17.07s") == {"failed": 1, "passed": 880}
    assert module.pytest_counts("886 passed, 1 deselected in 17.58s") == {"passed": 886}
    assert module.pytest_counts("2 passed, 3 skipped, 1 error in 0.5s") == {"passed": 2, "skipped": 3, "error": 1}


def test_every_mutant_patches_one_place_and_a_missing_target_is_refused():
    module = _tool("mutants")
    for mutant in module.MUTANTS:
        source = (ROOT / "src" / "procurekit" / mutant.module).read_text(encoding="utf-8")
        assert module.patched(source, mutant) != source, mutant.name
    mutant = module.MUTANTS[0]
    for source in ("", mutant.target * 2):
        with pytest.raises(ValueError, match="not once"):
            module.patched(source, mutant)

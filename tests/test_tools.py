"""The test and benchmark tools outside the package: the line tracer's
line table and the benchmark record's pytest summary reader."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

from line_reach import _code_lines

ROOT = Path(__file__).resolve().parents[1]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

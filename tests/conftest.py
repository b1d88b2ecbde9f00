"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, sets derandomize=True: every property test
draws the same examples on every run, so a tier-1 result repeats. ``wide``
draws fresh random examples, and the fuzz tests, which size their budgets
through helpers.examples, draw ten times as many:

    pytest tests/test_api_fuzz.py tests/test_config_fuzz.py --hypothesis-profile=wide
    pytest tests/test_optimizer.py -k TestFixedPoint --hypothesis-profile=wide

``--line-reach=PATH`` runs the suite under the line tracer of line_reach.py.
"""

from pathlib import Path

from hypothesis import settings
from line_reach import LineReach

settings.register_profile("tier1", derandomize=True)
settings.register_profile("wide", derandomize=False, max_examples=1000)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--line-reach",
        metavar="PATH",
        help="trace the run and write the lines of src/procurekit that no test executed to PATH (line_reach.py)",
    )


def pytest_configure(config):
    report = config.getoption("--line-reach")
    if report:
        plugin = LineReach(Path(report))
        config.pluginmanager.register(plugin, "line-reach")
        plugin.start()

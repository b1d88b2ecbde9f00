"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, sets derandomize=True: every property test
draws the same examples on every run, so a tier-1 result repeats. ``wide``
draws fresh random examples, and the fuzz tests, which size their budgets
through helpers.examples, draw ten times as many:

    pytest tests/test_api_fuzz.py tests/test_config_fuzz.py --hypothesis-profile=wide
    pytest tests/test_optimizer.py -k TestFixedPoint --hypothesis-profile=wide
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("wide", derandomize=False, max_examples=1000)
settings.load_profile("tier1")

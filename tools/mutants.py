#!/usr/bin/env python3
"""Run the named mutants of src/procurekit, which the test suite must kill.

    python3 tools/mutants.py

Each mutant is an exact source patch: a module of src/procurekit, a text
that must occur in it exactly once, and the text that replaces it. The
script refuses to run if any target does not occur exactly once. It then
runs ``python -m pytest -x -q`` with criterion 8, a known failure,
deselected: first on an unmutated copy of the tree, which must pass, then
on one temporary copy per mutant, which must fail (DeMillo, Lipton and
Sayward 1978, *Computer* 11(4)). It prints each mutant's first failing test
and wall time. It exits 1 if the unmutated tree fails or a mutant survives,
and 2 if a target does not occur exactly once.

Run from anywhere; it needs only the standard library and the packages
the suite itself imports, and it changes nothing in the tree it copies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = "tests/test_acceptance.py::test_criterion_08_lhs_variance_decomposition"
COPY_IGNORES = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/procurekit
    target: str
    replacement: str


MUTANTS = (
    Mutant(
        "the grid point always wins",
        "optimizer.py",
        "if not root_profit >= grid_profit - _TIE_TOLERANCE * abs(grid_profit):",
        "if True:",
    ),
    Mutant(
        "no KKT postcondition",
        "optimizer.py",
        "if not kkt.max_residual <= _KKT_TOLERANCE * scale:",
        "if False:",
    ),
    Mutant(
        "the envelope's money terms summed in another order",
        "optimizer.py",
        "return _profit(revenue, salvage, penalty, cost * q, self.a3 * _power(alphas, self.nu, cost.shape))",
        "return revenue - penalty + salvage - cost * q - self.a3 * _power(alphas, self.nu, cost.shape)",
    ),
    Mutant(
        "the KKT audit taken at the grid order",
        "optimizer.py",
        "kkt = kkt_residuals(market, suppliers, demand, decision)",
        "kkt = kkt_residuals(market, suppliers, demand, _order(float(alpha_grid), float(total_grid), winner, "
        "len(suppliers)))",
    ),
    Mutant(
        "held cells stepped on",
        "optimizer.py",
        "t = np.where(moving[:, None], mapped, t)",
        "t = mapped",
    ),
    Mutant(
        "the mapped point reported at the step cap",
        "optimizer.py",
        "if not moving.any() or step == _MAX_STEPS - 1:",
        "if not moving.any():",
    ),
    Mutant(
        "the CLI handler without its OSError clause",
        "cli.py",
        '        except OSError as exc:\n            _fail(3, "io", str(exc))\n',
        "",
    ),
    Mutant(
        "the KKT residual of an idle supplier without its multiplier",
        "optimizer.py",
        "residuals_q.append(grad + lam)",
        "residuals_q.append(grad)",
    ),
    Mutant(
        "axis values stored as given",
        "scenarios.py",
        'return tuple(tuple(map(float, value)) if scope == "suppliers" else float(value) for value in values)',
        "return tuple(values)",
    ),
    Mutant(
        "scipy imported with the package",
        "demand.py",
        "from statistics import NormalDist\n",
        "from statistics import NormalDist\n\nfrom scipy import special\n",
    ),
    Mutant(
        "draws through scipy",
        "demand.py",
        "return self.params.quantile(uniforms, _norm_ppf_array)",
        "from scipy.special import ndtri\n\n        return self.params.quantile(uniforms, ndtri)",
    ),
    Mutant(
        "penalty rate over the draws' mean",
        "profit.py",
        "return _breakdown(demand, terms, shortfall_mean, std_error, lambda: _fill_mean_and_cvar10(served / draws))",
        "return _breakdown(demand, terms, shortfall_mean * demand.mean / _mean(draws), std_error, "
        "lambda: _fill_mean_and_cvar10(served / draws))",
    ),
    Mutant(
        "slope through a3 * nu",
        "economics.py",
        "return a3 * (nu * alpha ** (nu - 1.0))",
        "return a3 * nu * alpha ** (nu - 1.0)",
    ),
    Mutant(
        "check_finite returns the value unconverted",
        "errors.py",
        '        raise error(f"{name} must be finite, got {shown}")\n    return float(value)\n',
        '        raise error(f"{name} must be finite, got {shown}")\n    return value\n',
    ),
    Mutant(
        "ScenarioSpec takes any model",
        "scenarios.py",
        "_check_run(self.market, self.suppliers, self.demand, self.seed, self.replications)",
        "_check_run(BASELINE_MARKET, BASELINE_SUPPLIERS, BASELINE_DEMAND, self.seed, self.replications)",
    ),
)


def patched(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's target replaced; the target must occur exactly once."""
    count = source.count(mutant.target)
    if count != 1:
        raise ValueError(f"{mutant.name}: target occurs {count} times in {mutant.module}, not once")
    return source.replace(mutant.target, mutant.replacement)


def run_suite(tree: Path) -> tuple[bool, str, float]:
    """Whether the suite passes on ``tree``, its first failing test, and the wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", KNOWN_RED]
    start = time.perf_counter()
    done = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), lines[-1] if lines else "")
    return done.returncode == 0, first, wall


def main() -> int:
    sources = {m.module: (ROOT / "src" / "procurekit" / m.module).read_text(encoding="utf-8") for m in MUTANTS}
    try:
        mutated = [patched(sources[m.module], m) for m in MUTANTS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "unmutated"
        shutil.copytree(ROOT, base, ignore=COPY_IGNORES)
        passed, first, wall = run_suite(base)
        print(f"unmutated tree: {'passes' if passed else 'FAILS'} in {wall:.1f} s" + ("" if passed else f": {first}"))
        if not passed:
            return 1
        for i, (mutant, source) in enumerate(zip(MUTANTS, mutated)):
            tree = Path(scratch) / f"mutant-{i}"
            shutil.copytree(base, tree, ignore=COPY_IGNORES)
            (tree / "src" / "procurekit" / mutant.module).write_text(source, encoding="utf-8")
            passed, first, wall = run_suite(tree)
            survivors += passed
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict} in {wall:.1f} s: {mutant.name}" + ("" if passed else f" ({first})"))
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

"""What `import procurekit` loads: no scipy module until a Monte Carlo draw or
a fit needs one, and no process-pool machinery at all."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import procurekit

SOLVE_AND_RENDER = (
    "import procurekit.heatmap as h; "
    "from procurekit import BASELINE_MARKET as m, BASELINE_SUPPLIERS as s, BASELINE_DEMAND as d; "
    "procurekit.optimize(m, s, d); "
    "procurekit.adoption_threshold(m, s, d, 1.0, 1e6); "
    "h.render_heatmap_svg((1.0, 2.0), (3.0,), [[1.0], [2.0]], 'x', 'y', 't'); "
)


def loaded_after(statements: str, module: str) -> bool:
    """Whether a fresh interpreter holds ``module``, or a submodule of it,
    after ``import procurekit`` and ``statements``."""
    src = str(Path(procurekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    found = f"any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules)"
    probe = f"import sys, procurekit; {statements}print({found})"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return {"True": True, "False": False}[out.stdout.strip()]


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures.process", "multiprocessing"])
def test_package_import_leaves_module_unloaded(module):
    assert not loaded_after("", module)


@pytest.mark.parametrize("module", ["scipy", "yaml", "urllib.request", "ssl"])
def test_solving_and_rendering_leave_module_unloaded(module):
    # scipy loads only for Monte Carlo draws and fits, yaml only when a
    # config is parsed, and the SVG writer needs no network stack; each
    # would stay resident in every solving process.
    assert not loaded_after(SOLVE_AND_RENDER, module)


def test_a_draw_loads_scipy():
    assert loaded_after("import numpy as np; procurekit.BASELINE_DEMAND.sample(np.random.default_rng(0), 3); ", "scipy")

"""What `import procurekit` loads: fitting's optimizer stays out until used,
and no process-pool machinery loads at all."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import procurekit


@pytest.mark.parametrize("module", ["scipy.optimize", "concurrent.futures.process", "multiprocessing"])
def test_package_import_leaves_module_unloaded(module):
    src = str(Path(procurekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, procurekit; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["yaml", "urllib.request", "ssl"])
def test_solving_and_rendering_leave_module_unloaded(module):
    # yaml loads only when a config is parsed, and the SVG writer needs no
    # network stack; each would stay resident in every solving process.
    src = str(Path(procurekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, procurekit, procurekit.heatmap as h; "
        "procurekit.optimize(procurekit.BASELINE_MARKET, procurekit.BASELINE_SUPPLIERS, procurekit.BASELINE_DEMAND); "
        "h.render_heatmap_svg((1.0, 2.0), (3.0,), [[1.0], [2.0]], 'x', 'y', 't'); "
        f"print({module!r} in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

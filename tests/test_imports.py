"""What `import procurekit` loads: fitting's optimizer stays out until used."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import procurekit


def test_package_import_leaves_scipy_optimize_unloaded():
    src = str(Path(procurekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, procurekit; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

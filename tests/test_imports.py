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

"""The library modules load without numpy: only the statistics kernel
(reached through ``citefrac.cli`` or ``citefrac.stats``) needs it. Each
import runs in a fresh interpreter, so no earlier import hides one."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citefrac


@pytest.mark.parametrize(
    "module",
    ["citefrac", "citefrac.corpus", "citefrac.counting", "citefrac.report", "citefrac.unitquery"],
)
def test_import_leaves_numpy_unloaded(module):
    package_root = str(Path(citefrac.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

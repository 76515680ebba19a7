"""Serving processes load only what serving needs.

Every fleet replica and CLI starts with ``import repro``; a module-level
import of a heavy dependency there is paid by each of them at start-up
and in resident memory for its whole life.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serving_and_fleet_imports_do_not_load_scipy_stats():
    code = "import sys, repro.fleet, repro.serving; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

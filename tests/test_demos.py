"""Each demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["quickstart.py", "fairness_tradeoff.py",
                                    "waiting_times.py"])
def test_demo_exits_zero(script, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr

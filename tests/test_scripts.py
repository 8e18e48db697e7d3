"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("run_demo.py", ["--seeds-per-profile", "1"]),
    ("weight_sweep.py", ["--seeds-per-profile", "1"]),
    ("window_study.py", ["--drivers", "2", "--weeks", "9", "--windows", "4",
                         "--trees", "5"]),
])
def test_script_exits_zero(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if script == "run_demo.py":
        args = args + ["--out-dir", str(tmp_path / "demo")]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

"""The demos that drive the CLI and the criteria run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptnls

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "cli_demo", "blowup_criteria_demo", "manakov_demo", "early_collapse_demo",
])
def test_demo_exits_0(name, tmp_path):
    src = str(Path(ptnls.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []  # nothing left behind

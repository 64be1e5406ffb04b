import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_figure_data.py"


@pytest.mark.parametrize("systems", [[], ["nope"]], ids=["none", "unknown"])
def test_systems_must_name_known_systems(systems, tmp_path):
    # argparse refuses before any fit, so this runs in well under a second
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", "out", "--systems", *systems],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "--systems" in done.stderr
    assert not list(tmp_path.iterdir())

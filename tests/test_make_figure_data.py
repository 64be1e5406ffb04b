import hashlib
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


# sha256 of every file the script writes by default (GA seed 0, every
# system). A speedup leaves these bytes as they are; a change of results is
# declared as one and re-records them.
FIGURE_DIGESTS = {
    "cart_pole_feynman_rollout.csv": "9111f12aa0b7df6d7dd067f5931d4f86265faf9ab07d6d6159a6a9034a2255de",
    "cart_pole_ga_rollout.csv": "bf5da73b8a132506de570ca1b00feb1c2ecabc022a49eebd97e612c31922c84c",
    "cart_pole_pareto.csv": "8c4bb4884abace7b6c6080586f901c168692e62173fb4c36fbdfa71d914bc0b4",
    "cart_pole_sindy_rollout.csv": "aa518dab0d15615080bed66b983b01311a1f5ea6bc920601ac51ba5006daea8f",
    "lotka_volterra_feynman_rollout.csv": "aa42eaec5de8db7df11e2111ddd4dfce19be86062169df8a8900d75f50b5002d",
    "lotka_volterra_ga_rollout.csv": "e5109eff785a9693d068c84fdc3e1b5eaee6820dcc091a133dfde80f9bd78394",
    "lotka_volterra_pareto.csv": "6d759c3956b7bb60cf621ec4805bdb495826a78f74ba31bb8679e2ceaa0472a6",
    "lotka_volterra_sindy_rollout.csv": "aaac266821371408cb504fac08d38d1d4f80eee1fbfd6126372945044e1cf3fe",
    "simple_pendulum_feynman_rollout.csv": "ceb3637365dacee822e959da1ca294095f69ffaf593044a37f496afeb8ea6d33",
    "simple_pendulum_ga_rollout.csv": "770ff02b2628400d78c411aa59b201ce85d60a91562bc713829ed955f4df56b5",
    "simple_pendulum_pareto.csv": "10153fc6584bbf6e490190b2b470badaeb25b5201e8a7ecd8e618fb698c8540c",
    "simple_pendulum_sindy_rollout.csv": "21a3d36df7db5bad6e7ad4604092adc6df2212dca555104f708c2e44106524ae",
}


def test_default_figure_files_match_recorded_digests(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert got == FIGURE_DIGESTS

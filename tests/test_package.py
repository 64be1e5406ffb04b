import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "odesr"

# Runs in a fresh interpreter. The package's __init__ imports every module,
# so sindy and feynman are first imported under a bare package object that
# skips it; then the real package is imported on its own.
IMPORT_GRAPH = f"""
import importlib, sys, types
bare = types.ModuleType("odesr")
bare.__path__ = [{str(PACKAGE)!r}]
sys.modules["odesr"] = bare
import odesr.sindy, odesr.feynman
assert "odesr.ga" not in sys.modules, "sindy or feynman imports odesr.ga"
for name in [name for name in sys.modules if name.split(".")[0] == "odesr"]:
    del sys.modules[name]
odesr = importlib.import_module("odesr")
assert odesr.__file__.startswith({str(PACKAGE)!r}), odesr.__file__
assert isinstance(odesr.integrate, types.ModuleType), odesr.integrate
missing = [name for name in odesr.__all__ if not hasattr(odesr, name)]
assert not missing, missing
"""


def test_import_graph():
    """sindy and feynman build candidates without the GA module, the name
    odesr.integrate is the submodule, and every exported name resolves."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr

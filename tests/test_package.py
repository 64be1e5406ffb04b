import os
import subprocess
import sys
from pathlib import Path

import pytest

import odesr
from odesr import benchmark, feynman, ga, sindy

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "odesr"

# Each script runs in a fresh interpreter, so that sys.modules shows what
# one process has imported; loaded(*names) is the set of the named odesr
# submodules that are.
PRELUDE = """
import sys
def loaded(*names):
    return {name for name in names if "odesr." + name in sys.modules}
"""

IMPORT_GRAPH = f"""
import types
import odesr
assert odesr.__file__.startswith({str(PACKAGE)!r}), odesr.__file__
searches = loaded("feynman", "ga", "genomes", "sindy", "cli")
assert not searches, searches
pools = {{"multiprocessing", "concurrent.futures"}} & set(sys.modules)
assert not pools, pools
assert isinstance(odesr.integrate, types.ModuleType), odesr.integrate
import odesr.sindy, odesr.feynman
assert not loaded("ga", "genomes"), "sindy or feynman imports the GA"
"""

SINDY_FIT = """
import odesr
odesr.run_fit("sindy", odesr.get_system("lotka_volterra"))
assert loaded("sindy") == {"sindy"}
assert not loaded("ga", "genomes", "feynman"), loaded("ga", "genomes", "feynman")
"""

# Lotka-Volterra at its GA defaults fits in well under a second
GA_FIT = """
import odesr
odesr.run_fit("ga", odesr.get_system("lotka_volterra"))
assert loaded("ga", "genomes") == {"ga", "genomes"}
assert not loaded("sindy", "feynman"), loaded("sindy", "feynman")
"""

def run_fresh(script: str):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, "-c", PRELUDE + script], env=env, capture_output=True, text=True
    )


def test_import_graph():
    """`import odesr` loads none of the searches or the CLI and no process
    pool module, the name odesr.integrate is the submodule, and sindy and
    feynman build candidates without the GA."""
    result = run_fresh(IMPORT_GRAPH)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", [SINDY_FIT, GA_FIT], ids=["sindy", "ga"])
def test_a_fit_loads_only_its_search(script):
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_lazy_names_resolve_to_their_functions():
    """Every lazily served name is the function from its defining module,
    an unknown name raises AttributeError, and `from odesr import *` binds
    every name in __all__."""
    assert odesr.run_pipeline is feynman.run_pipeline
    assert odesr.preset_basis is sindy.preset_basis
    assert benchmark.run_ga is ga.run_ga
    assert benchmark.sindy_fit is sindy.fit
    assert benchmark.run_pipeline is feynman.run_pipeline
    for module in (odesr, benchmark):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    namespace = {}
    exec("from odesr import *", namespace)
    assert [name for name in odesr.__all__ if name not in namespace] == []

"""Symbolic regression of ODE right-hand sides from sampled trajectories.

Three search strategies over a shared expression-tree representation:
a grammar-based genetic algorithm, sparse regression over a fixed basis
library, and a polynomial/brute-force Pareto search. Benchmarked on
Lotka-Volterra, a damped pendulum, and a forced cart-pole.
"""

import importlib

from .benchmark import GROUND_TRUTH_EXPRESSIONS, run_benchmark, run_fit, test_error
from .expressions import evaluate_batch, parse_expr
from .integrate import make_dataset, make_trajectory
from .systems import SYSTEM_NAMES, expression_system, get_system

# names whose modules load on first access, so that `import odesr` loads none
# of the searches
_LAZY = {"run_pipeline": "feynman", "preset_basis": "sindy"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "GROUND_TRUTH_EXPRESSIONS",
    "SYSTEM_NAMES",
    "evaluate_batch",
    "expression_system",
    "get_system",
    "make_dataset",
    "make_trajectory",
    "parse_expr",
    "preset_basis",
    "run_benchmark",
    "run_fit",
    "run_pipeline",
    "test_error",
]

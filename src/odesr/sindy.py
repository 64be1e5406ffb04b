"""Sparse regression over a fixed basis library.

Sequentially thresholded least squares (STLSQ; Brunton, Proctor & Kutz,
PNAS 113(15), 2016) produces the weight vector, and the nonzero weights
are assembled back into a single expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .candidates import CandidateSolution, make_candidate
from .expressions import Binary, Const, Expr, evaluate_batch, left_fold, parse_expr
from .integrate import RegressionDataset


@dataclass(frozen=True)
class BasisFunction:
    name: str
    expr: Expr


@dataclass(frozen=True)
class BasisSet:
    functions: tuple[BasisFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ValueError("basis must contain at least one function")
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise ValueError("basis function names must be unique")


@dataclass
class STLSQConfig:
    threshold: float = 0.05

    def __post_init__(self):
        if not (self.threshold > 0):  # NaN fails too
            raise ValueError("threshold must be positive")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")


@dataclass
class SindyResult:
    candidate: CandidateSolution
    weights: np.ndarray
    warnings: tuple[str, ...]


def basis_from_strings(strings: Sequence[str], variable_names: Sequence[str]) -> BasisSet:
    """The basis of the parsed strings, named f1, f2, ... in order."""
    return BasisSet(
        tuple(
            BasisFunction(f"f{i}", parse_expr(s, variable_names))
            for i, s in enumerate(strings, 1)
        )
    )


_PRESETS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "pendulum": (
        ("theta1", "theta2"),
        (
            "theta1",
            "theta2",
            "sin(theta1)",
            "cos(theta2)",
            "cos(theta1)",
            "sin(theta2)",
            "cos(theta1) * sin(theta2)",
            "1.0",
        ),
    ),
    "lotka_volterra": (
        ("x", "y"),
        (
            "x",
            "y",
            "x * y",
            "sin(x)",
            "sin(y)",
            "cos(x)",
            "cos(y)",
            "1.0",
            "1.5*x + -1.0 * x * y",
        ),
    ),
    "cartpole": (
        ("w", "x", "y", "z"),
        (
            "1.0",
            "w",
            "x",
            "y",
            "z",
            "y^2",
            "z^2",
            "y^3",
            "z^3",
            "y^4",
            "z^4",
            "sin(w)",
            "cos(w)",
            "sin(w) * y",
            "sin(w) * z",
            "sin(w) * y^2",
            "sin(w) * z^2",
            "cos(w)^2",
            "cos(w) * sin(w)",
            "cos(w) * sin(w) * y",
            "cos(w) * sin(w) * z",
            "cos(w) * sin(w) * y^2",
            "cos(w) * sin(w) * z^2",
            "-0.2 + 0.5 * sin(6.0*t)",
            "cos(w) * (-0.2 + 0.5 * sin(6.0*t))",
            "sin(w) * (-0.2 + 0.5 * sin(6.0*t))",
            "-1.0 * (cos(w) * (-0.2 + 0.5 * sin(6.0*t)) + 19.62 * sin(w)"
            " + cos(w) * sin(w) * y^2) * (1.0 / (2.0 + -1.0 * cos(w)^2))^1.0",
        ),
    ),
}


@cache  # a BasisSet is immutable, so each preset is parsed once a process
def preset_basis(name: str) -> BasisSet:
    if name not in _PRESETS:
        raise KeyError(
            f"unknown basis preset {name!r}; expected one of {', '.join(_PRESETS)}"
        )
    variable_names, strings = _PRESETS[name]
    return basis_from_strings(strings, variable_names)


def build_design_matrix(basis: BasisSet, data: RegressionDataset) -> np.ndarray:
    """Columns are basis functions evaluated at every sample."""
    columns = []
    for f in basis.functions:
        col = evaluate_batch(f.expr, data.times, data.states)
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ValueError(
                f"basis function {f.name} is not finite at sample {bad[0]} "
                f"(t={data.times[bad[0]]:.6g})"
            )
        columns.append(col)
    return np.column_stack(columns)


def _lstsq_independent(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least squares on the columns of a; the flag is set when they are
    linearly dependent, and then each column that is a combination of
    earlier ones gets weight 0."""
    k = a.shape[1]
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank == k:
        return sol, False
    # greedy in column order; matrix_rank uses the same cutoff as lstsq
    keep: list[int] = []
    for j in range(k):
        if np.linalg.matrix_rank(a[:, keep + [j]]) > len(keep):
            keep.append(j)
    sol = np.zeros(k)
    sol[keep] = np.linalg.lstsq(a[:, keep], b, rcond=None)[0]
    return sol, True


def stlsq(
    a: np.ndarray, b: np.ndarray, threshold: float
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Alternate least squares on the active set with hard thresholding;
    returns the weights and the warnings.

    Inactive weights are 0 and the threshold is positive, so each new
    support is a subset of the last: the loop stops when a solve keeps
    the active set, or empties it, after at most one solve per column.

    When the active columns are linearly dependent (a library function
    that is a combination of others, or fewer samples than active
    columns), least squares has many exact fits. The one returned is
    solved on a maximal independent subset chosen greedily in basis
    order: each column that is a combination of earlier active columns
    gets weight 0, so a library's simpler functions, listed first, are
    kept ahead of composite ones. Such a solve adds the warning
    "rank_deficient".
    """
    p = a.shape[1]
    warnings: list[str] = []
    active = np.ones(p, dtype=bool)
    w = np.zeros(p)
    while active.any():
        sol, deficient = _lstsq_independent(a[:, active], b)
        if deficient and "rank_deficient" not in warnings:
            warnings.append("rank_deficient")
        w = np.zeros(p)
        w[active] = sol
        keep = np.abs(w) >= threshold
        w[~keep] = 0.0
        if np.array_equal(keep, active):
            break
        active = keep
    return w, tuple(warnings)


def _assemble(weights: np.ndarray, basis: BasisSet) -> Expr:
    pairs = zip(weights, basis.functions)
    terms = [Binary("mul", Const(float(w)), f.expr) for w, f in pairs if w != 0.0]
    return left_fold("add", terms)


def fit(
    basis: BasisSet, data: RegressionDataset, config: STLSQConfig | None = None
) -> SindyResult:
    """Design matrix, sparse solve, and expression assembly in one call."""
    if not isinstance(basis, BasisSet):
        raise ValueError(f"basis must be a BasisSet, got {type(basis).__name__}")
    if config is None:
        config = STLSQConfig()
    a = build_design_matrix(basis, data)
    weights, warnings = stlsq(a, data.targets, config.threshold)
    candidate = make_candidate(_assemble(weights, basis), data)
    return SindyResult(candidate=candidate, weights=weights, warnings=warnings)

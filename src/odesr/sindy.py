"""Sparse regression over a fixed basis library.

Two solvers produce the weight vector: sequentially thresholded least
squares and coordinate-descent LASSO on (1/2N)||Aw - b||^2 + lambda*||w||_1.
The nonzero weights are assembled back into a single expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import CandidateSolution, make_candidate, rmse
from .expressions import Binary, Const, Expr, evaluate_batch, parse_expr
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
    max_iterations: int = 50

    def __post_init__(self):
        if not (self.threshold > 0):  # NaN fails too
            raise ValueError("threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class LassoConfig:
    lam: float | None = None  # None selects lambda by logarithmic sweep
    max_iterations: int = 10_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.lam is not None and not (self.lam >= 0):  # NaN fails too
            raise ValueError("lam must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")


SparseConfig = STLSQConfig | LassoConfig


@dataclass
class SparseResult:
    weights: np.ndarray
    warnings: tuple[str, ...] = ()


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
    a: np.ndarray, b: np.ndarray, threshold: float = 0.05, max_iterations: int = 50
) -> SparseResult:
    """Alternate least squares on the active set with hard thresholding.

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
    for _ in range(max_iterations):
        if not active.any():
            break
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
    return SparseResult(w, tuple(warnings))


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_cd(
    a: np.ndarray,
    b: np.ndarray,
    lam: float,
    max_iterations: int = 10_000,
    tolerance: float = 1e-8,
) -> SparseResult:
    """Cyclic coordinate descent for (1/2N)||Aw-b||^2 + lam*||w||_1.

    Columns are scaled to unit l2 norm internally; the penalty stays in
    original coordinates, so lam >= max|A^T b|/N zeroes every weight.
    Convergence is max original-coordinate change per sweep < tolerance.
    """
    n, p = a.shape
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    ok = norms > 0
    scaled = np.where(ok, norms, 1.0)
    a_unit = a / scaled
    wt = np.zeros(p)  # scaled-space weights, w = wt / norms
    r = b.astype(float).copy()
    converged = False
    for _ in range(max_iterations):
        max_delta = 0.0
        for j in range(p):
            if not ok[j]:
                continue
            old = wt[j]
            rho = float(a_unit[:, j] @ r) + old
            new = _soft(rho, n * lam / scaled[j])
            if new != old:
                r -= a_unit[:, j] * (new - old)
                wt[j] = new
                max_delta = max(max_delta, abs(new - old) / scaled[j])
        if max_delta < tolerance:
            converged = True
            break
    w = np.where(ok, wt / scaled, 0.0)
    warnings = () if converged else ("lasso_no_convergence",)
    return SparseResult(w, warnings)


def _lambda_sweep(
    a: np.ndarray, b: np.ndarray, config: LassoConfig
) -> SparseResult:
    """10-point logarithmic sweep from lambda_max down; pick the lambda
    with the best training RMSE, ties toward fewer nonzeros."""
    lam_max = float(np.max(np.abs(a.T @ b))) / a.shape[0]
    if lam_max == 0.0:
        return lasso_cd(a, b, 0.0, config.max_iterations, config.tolerance)
    best_key, best = None, None
    for lam in lam_max * np.logspace(0.0, -5.0, 10):
        res = lasso_cd(a, b, float(lam), config.max_iterations, config.tolerance)
        key = (rmse(a @ res.weights, b), int(np.count_nonzero(res.weights)))
        if best_key is None or key < best_key:
            best_key, best = key, res
    return best


def _assemble(weights: np.ndarray, basis: BasisSet) -> Expr:
    expr: Expr | None = None
    for w, f in zip(weights, basis.functions):
        if w == 0.0:
            continue
        term = Binary("mul", Const(float(w)), f.expr)
        expr = term if expr is None else Binary("add", expr, term)
    return expr if expr is not None else Const(0.0)


def fit(
    basis: BasisSet, data: RegressionDataset, config: SparseConfig | None = None
) -> SindyResult:
    """Design matrix, sparse solve, and expression assembly in one call."""
    if not isinstance(basis, BasisSet):
        raise ValueError(f"basis must be a BasisSet, got {type(basis).__name__}")
    if config is None:
        config = STLSQConfig()
    a = build_design_matrix(basis, data)
    b = data.targets
    if isinstance(config, STLSQConfig):
        res = stlsq(a, b, config.threshold, config.max_iterations)
    elif config.lam is None:
        res = _lambda_sweep(a, b, config)
    else:
        res = lasso_cd(a, b, config.lam, config.max_iterations, config.tolerance)
    candidate = make_candidate(_assemble(res.weights, basis), data)
    return SindyResult(candidate=candidate, weights=res.weights, warnings=res.warnings)

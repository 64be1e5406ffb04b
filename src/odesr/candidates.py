"""The candidate type and the loss that the three searches share: the RMSE
of an expression against a dataset's divided-difference targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, batch_inputs, complexity, finite_values
from .genomes import Genome
from .integrate import RegressionDataset


@dataclass(slots=True)
class CandidateSolution:
    expr: Expr
    train_rmse: float
    complexity: int
    genome: Genome | None = None


def rmse(pred: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error of pred against targets; +inf if any
    prediction is not finite, the error overflows or pred is empty."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a finite sum proves every prediction finite, as in
        # expressions._contain; an inf - inf in that sum stays silent
        total = float(np.add.reduce(pred, axis=None))
        if not math.isfinite(total) and not np.isfinite(pred).all():
            return math.inf
        return _finite_rmse(pred, targets)


def _finite_rmse(pred: np.ndarray, targets: np.ndarray) -> float:
    # rmse once pred is known finite; call under errstate(over, invalid)
    err = pred - targets
    sq = err * err
    # np.mean's pairwise sum and division, bit for bit
    total = float(np.add.reduce(sq, axis=None))
    value = math.sqrt(total / sq.size) if sq.size else math.inf
    return value if math.isfinite(value) else math.inf


def score(expr: Expr, times: np.ndarray, states: np.ndarray, targets: np.ndarray) -> float:
    """rmse(evaluate_batch(expr, times, states), targets), bit for bit, from
    one walk of expr that stops at the first node, leaves included, that is
    not finite at some row: the score is then +inf, and no nan is masked."""
    times, states = batch_inputs(times, states)
    with np.errstate(all="ignore"):
        pred = finite_values(expr, times, states)
        return math.inf if pred is None else _finite_rmse(pred, targets)


def fitness(expr: Expr, data: RegressionDataset) -> float:
    """RMSE of expr against the divided-difference targets; +inf if any
    sample evaluates outside the reals."""
    return score(expr, data.times, data.states, data.targets)


def make_candidate(
    expr: Expr, data: RegressionDataset, genome: Genome | None = None
) -> CandidateSolution:
    return CandidateSolution(
        expr=expr,
        train_rmse=fitness(expr, data),
        complexity=complexity(expr),
        genome=genome,
    )

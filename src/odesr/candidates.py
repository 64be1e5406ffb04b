"""The candidate type and the loss that the three searches share: the RMSE
of an expression against a dataset's divided-difference targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, complexity, evaluate_batch
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
    prediction is not finite or the error overflows."""
    if not np.all(np.isfinite(pred)):
        return math.inf
    with np.errstate(over="ignore"):
        err = pred - targets
        value = float(np.sqrt(np.mean(err * err)))
    return value if math.isfinite(value) else math.inf


def fitness(expr: Expr, data: RegressionDataset) -> float:
    """RMSE of expr against the divided-difference targets; +inf if any
    sample evaluates outside the reals."""
    return rmse(evaluate_batch(expr, data.times, data.states), data.targets)


def make_candidate(
    expr: Expr, data: RegressionDataset, genome: Genome | None = None
) -> CandidateSolution:
    return CandidateSolution(
        expr=expr,
        train_rmse=fitness(expr, data),
        complexity=complexity(expr),
        genome=genome,
    )

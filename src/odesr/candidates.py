"""The candidate type and the loss that the three searches share: the RMSE
of an expression against a dataset's divided-difference targets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .expressions import Const, Expr, _leaf, batch_inputs, complexity, finite_values
from .integrate import RegressionDataset

if TYPE_CHECKING:  # the GA's modules load only when a GA runs
    from .genomes import Genome


class SamplingError(RuntimeError):
    """No valid genome was found within the attempt budget."""


@dataclass(slots=True)
class CandidateSolution:
    expr: Expr
    train_rmse: float
    complexity: int
    genome: Genome | None = None


def _finite_rmse(pred: np.ndarray, targets: np.ndarray) -> float:
    # the RMSE of pred, known finite, against targets; +inf if the error
    # overflows or pred is empty; call under errstate(over, invalid)
    err = pred - targets
    sq = err * err
    # np.mean's pairwise sum and division, bit for bit
    total = float(np.add.reduce(sq, axis=None))
    value = math.sqrt(total / sq.size) if sq.size else math.inf
    return value if math.isfinite(value) else math.inf


class Scorer:
    """score(expr, times, states, targets) for many expressions on one data
    set, which must not change while the scorer is in use.

    It holds batch_inputs' arrays, the targets, and the values of each leaf
    it has met, made read-only and checked for finiteness once: a view of
    the xs[:, i] view or ts that _eval uses, or a filled Const array as
    _eval makes it. Leaves are looked up by identity, since Const(0.0) ==
    Const(-0.0), and held so that their ids stay theirs; a GA run's trees
    share one grammar's leaf objects."""

    __slots__ = ("ts", "xs", "targets", "_arrays", "_held")

    def __init__(self, times: np.ndarray, states: np.ndarray, targets: np.ndarray):
        self.ts, self.xs = batch_inputs(times, states)
        self.targets = targets
        self._arrays: dict[int, np.ndarray | None] = {}  # by id of a held leaf
        self._held: list[Expr] = []

    def leaf(self, expr: Expr) -> np.ndarray | None:
        """The values of a leaf if all are finite, else None; _leaf's
        ValueError for an out-of-range Var."""
        try:
            return self._arrays[id(expr)]
        except KeyError:
            pass
        values = _finite_leaf(self.ts, self.xs, expr)
        if values is not None:
            if type(expr) is not Const:
                # a view, so that the caller's times and states stay writeable
                values = values.view()
            values.setflags(write=False)
        self._held.append(expr)
        self._arrays[id(expr)] = values
        return values

    def __call__(self, expr: Expr) -> float:
        """The RMSE of evaluate_batch(expr, times, states) against the
        targets, bit for bit as np.sqrt(np.mean(err * err)), or +inf when
        the error overflows; from one walk of expr that stops at the first
        node, leaves included, that is not finite at some row: the score is
        then +inf, and no nan is masked. Call it under
        np.errstate(all="ignore"), as run_ga does once for a whole run."""
        return _score(expr, self.leaf, self.targets)


def _finite_leaf(ts: np.ndarray, xs: np.ndarray, expr: Expr) -> np.ndarray | None:
    """_leaf(expr, ts, xs) if all its values are finite, else None; a state
    or time column is checked as _finite checks a node."""
    if type(expr) is Const:
        return _leaf(expr, ts, xs) if math.isfinite(expr.value) else None
    values = _leaf(expr, ts, xs)
    finite = math.isfinite(values.dot(values)) or np.isfinite(values).all()
    return values if finite else None


def _score(expr: Expr, leaf: Callable[[Expr], np.ndarray | None], targets: np.ndarray) -> float:
    """The score of expr, with its leaves' values from leaf (see
    finite_values), under its caller's errstate."""
    pred = finite_values(expr, leaf)
    return math.inf if pred is None else _finite_rmse(pred, targets)


def score(expr: Expr, times: np.ndarray, states: np.ndarray, targets: np.ndarray) -> float:
    """Scorer(times, states, targets)(expr), bit for bit, for one
    expression: its leaves are made where the walk meets them, and not
    bound, made read-only or held."""
    ts, xs = batch_inputs(times, states)
    with np.errstate(all="ignore"):
        return _score(expr, partial(_finite_leaf, ts, xs), targets)


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

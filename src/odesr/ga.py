"""Grammatical-evolution search: RMSE fitness on finite-difference
targets, elitist top-fraction selection, one mutant per survivor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expressions import Expr, complexity, evaluate_batch, print_expr
from .genomes import Genome, Grammar, _mutate_decoded, _random_decoded

# public genome operations, reachable as odesr.ga.<name>; perfbench traces
# them at these names
from .genomes import decode, mutate, random_genome  # noqa: F401
from .integrate import RegressionDataset


@dataclass
class GAConfig:
    population_size: int = 70
    bitstring_length: int = 20
    iterations: int = 100
    mutation_rate: float = 0.1
    selection_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if self.bitstring_length < 1:
            raise ValueError("bitstring_length must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.selection_fraction < 1.0:
            raise ValueError("selection_fraction must lie in (0, 1)")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")


# settings used in the benchmark sweeps
GA_DEFAULTS: dict[str, dict] = {
    "lotka_volterra": {"population_size": 70, "bitstring_length": 20, "iterations": 100},
    "simple_pendulum": {"population_size": 70, "bitstring_length": 20, "iterations": 40},
    "cart_pole": {"population_size": 100, "bitstring_length": 60, "iterations": 100},
}


def default_ga_config(system_name: str, seed: int = 0) -> GAConfig:
    return GAConfig(seed=seed, **GA_DEFAULTS[system_name])


@dataclass(slots=True)
class CandidateSolution:
    expr: Expr
    train_rmse: float
    complexity: int
    genome: Genome | None = None


def fitness(expr: Expr, data: RegressionDataset) -> float:
    """RMSE of expr against the divided-difference targets; +inf if any
    sample evaluates outside the reals."""
    pred = evaluate_batch(expr, data.times, data.states)
    if not np.all(np.isfinite(pred)):
        return math.inf
    with np.errstate(over="ignore"):
        err = pred - data.targets
        value = float(np.sqrt(np.mean(err * err)))
    return value if math.isfinite(value) else math.inf


def make_candidate(
    expr: Expr, data: RegressionDataset, genome: Genome | None = None
) -> CandidateSolution:
    return CandidateSolution(
        expr=expr,
        train_rmse=fitness(expr, data),
        complexity=complexity(expr),
        genome=genome,
    )


def _scorer(data: RegressionDataset) -> Callable[[Genome, Expr], CandidateSolution]:
    """Candidate builder that computes fitness and complexity once per
    printed form; the memo lives as long as the returned function.

    The key is the printed form, not the tree: dataclass equality makes
    Const(0.0) == Const(-0.0) and Const(1) == Const(1.0), which print
    differently. Each call returns a new CandidateSolution, since callers
    may mutate it."""
    scores: dict[str, tuple[float, int]] = {}

    def score(genome: Genome, expr: Expr) -> CandidateSolution:
        key = print_expr(expr)
        cached = scores.get(key)
        if cached is None:
            cached = scores[key] = (fitness(expr, data), complexity(expr))
        return CandidateSolution(expr, cached[0], cached[1], genome)

    return score


def _sorted_by_fitness(pop: Sequence[CandidateSolution]) -> list[CandidateSolution]:
    # ties: lower complexity first, then original position (stable)
    return [
        pop[i]
        for i in sorted(
            range(len(pop)), key=lambda i: (pop[i].train_rmse, pop[i].complexity, i)
        )
    ]


def step(
    pop: list[CandidateSolution],
    config: GAConfig,
    data: RegressionDataset,
    grammar: Grammar,
    rng: np.random.Generator,
) -> list[CandidateSolution]:
    """One generation: survivors pass unchanged, mutants fill back to N."""
    return _step(pop, config, grammar, rng, _scorer(data))


def _step(
    pop: list[CandidateSolution],
    config: GAConfig,
    grammar: Grammar,
    rng: np.random.Generator,
    score: Callable[[Genome, Expr], CandidateSolution],
) -> list[CandidateSolution]:
    n = config.population_size
    if len(pop) != n:
        raise ValueError(f"population size {len(pop)} != configured {n}")
    n_survivors = math.ceil(n * config.selection_fraction)
    survivors = _sorted_by_fitness(pop)[:n_survivors]
    next_pop = list(survivors)
    i = 0
    while len(next_pop) < n:
        parent = survivors[i % n_survivors]
        next_pop.append(
            score(*_mutate_decoded(parent.genome, grammar, rng, config.mutation_rate))
        )
        i += 1
    return next_pop


def run_ga(
    config: GAConfig, data: RegressionDataset, grammar: Grammar
) -> tuple[CandidateSolution, list[float]]:
    """Full GA run from a fresh seeded population.

    Returns the best-ever candidate and the per-generation best fitness
    (non-increasing thanks to elitism). Fitness is memoised by printed
    expression for the length of the run; results and RNG draws are those
    of evaluating every candidate.
    """
    rng = np.random.default_rng(config.seed)
    score = _scorer(data)
    pop = [
        score(*_random_decoded(config.bitstring_length, grammar, rng))
        for _ in range(config.population_size)
    ]
    best = _sorted_by_fitness(pop)[0]
    history: list[float] = []
    for _ in range(config.iterations):
        pop = _step(pop, config, grammar, rng, score)
        gen_best = _sorted_by_fitness(pop)[0]
        if (gen_best.train_rmse, gen_best.complexity) < (best.train_rmse, best.complexity):
            best = gen_best
        history.append(gen_best.train_rmse)
    return best, history

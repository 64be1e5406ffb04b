"""Grammatical-evolution search: RMSE fitness on finite-difference
targets, elitist top-fraction selection, one mutant per survivor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

import numpy as np

from .expressions import Expr, complexity, evaluate_batch, print_expr
from .genomes import Genome, Grammar, _mutate_decoded, _random_decoded, _tree

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


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bytes of 0/1 as binary digits
_RANK = itemgetter(0, 1)  # run_ga's population entries are (train_rmse, complexity, bits)


def _step(
    pop: list,
    rank: Callable,
    bits_of: Callable,
    config: GAConfig,
    grammar: Grammar,
    rng: np.random.Generator,
) -> tuple[list, list[tuple[bytes, int]]]:
    """Survivors of pop by rank (ties keep their order), and the (bits, bits
    consumed) of the mutants that fill back to N, one per survivor in turn."""
    n = config.population_size
    if len(pop) != n:
        raise ValueError(f"population size {len(pop)} != configured {n}")
    survivors = sorted(pop, key=rank)[: math.ceil(n * config.selection_fraction)]
    parents = [bits_of(s) for s in survivors]
    mutants = [
        _mutate_decoded(parents[i % len(parents)], grammar, rng, config.mutation_rate)
        for i in range(n - len(parents))
    ]
    return survivors, mutants


def step(
    pop: list[CandidateSolution],
    config: GAConfig,
    data: RegressionDataset,
    grammar: Grammar,
    rng: np.random.Generator,
) -> list[CandidateSolution]:
    """One generation: survivors pass unchanged, mutants fill back to N."""
    rank, bits_of = attrgetter("train_rmse", "complexity"), attrgetter("genome.bits")
    survivors, mutants = _step(pop, rank, bits_of, config, grammar, rng)
    return survivors + [
        make_candidate(_tree(bits, grammar)[0], data, Genome(tuple(bits))) for bits, _ in mutants
    ]


def run_ga(
    config: GAConfig, data: RegressionDataset, grammar: Grammar
) -> tuple[CandidateSolution, list[float]]:
    """Full GA run from a fresh seeded population.

    Returns the best-ever candidate and the per-generation best fitness
    (non-increasing thanks to elitism). For the length of the run, scores
    are memoised by a genome's consumed prefix and, behind that, by printed
    expression, since distinct prefixes can print alike. Trees are built
    for new prefixes and the returned candidate only. Results and RNG draws
    are those of evaluating every candidate.
    """
    rng = np.random.default_rng(config.seed)
    by_prefix: dict[int, tuple[float, int]] = {}
    # printed, not tree, equality: Const(0.0) == Const(-0.0) as dataclasses
    by_print: dict[str, tuple[float, int]] = {}

    def entry(bits: bytes, used: int) -> tuple[float, int, bytes]:
        # a compact key; the leading 1 keeps prefixes of different lengths apart
        prefix = int(b"1" + bits[:used].translate(_DIGITS), 2)
        score = by_prefix.get(prefix)
        if score is None:
            expr = _tree(bits, grammar)[0]
            key = print_expr(expr)
            score = by_print.get(key)
            if score is None:
                score = by_print[key] = (fitness(expr, data), complexity(expr))
            by_prefix[prefix] = score
        return (*score, bits)

    pop = [
        entry(*_random_decoded(config.bitstring_length, grammar, rng))
        for _ in range(config.population_size)
    ]
    best = min(pop, key=_RANK)
    history: list[float] = []
    for _ in range(config.iterations):
        survivors, mutants = _step(pop, _RANK, itemgetter(2), config, grammar, rng)
        pop = survivors + [entry(*m) for m in mutants]
        gen_best = min(pop, key=_RANK)
        if _RANK(gen_best) < _RANK(best):
            best = gen_best
        history.append(gen_best[0])
    rmse, comp, bits = best
    return CandidateSolution(_tree(bits, grammar)[0], rmse, comp, Genome(tuple(bits))), history

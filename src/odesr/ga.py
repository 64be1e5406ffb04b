"""Grammatical-evolution search: elitist top-fraction selection by RMSE
fitness on finite-difference targets, one mutant per survivor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

import numpy as np

from .candidates import CandidateSolution, Scorer, make_candidate

# not called here; perfbench traces fitness and the batch evaluator at these names
from .candidates import fitness  # noqa: F401
from .expressions import evaluate_batch  # noqa: F401
from .genomes import Genome, Grammar, _build, _Flips, _mutate_decoded, _prefix, _random_decoded

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


# run_ga's population entries are (train_rmse, complexity, bits, _prefix of bits)
_RANK = itemgetter(0, 1)


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
    length = config.bitstring_length
    for bits in parents:
        if len(bits) != length:
            raise ValueError(f"survivor of {len(bits)} bits != configured {length}")
    n_mutants = n - len(parents)
    flips = _Flips(rng, config.mutation_rate, length, n_mutants)
    mutants = [
        _mutate_decoded(parents[i % len(parents)], grammar, flips) for i in range(n_mutants)
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
        make_candidate(_build(_prefix(bits, used), grammar)[0], data, Genome(tuple(bits)))
        for bits, used in mutants
    ]


def run_ga(
    config: GAConfig, data: RegressionDataset, grammar: Grammar
) -> tuple[CandidateSolution, list[float]]:
    """Full GA run from a fresh seeded population.

    Returns the best-ever candidate and the per-generation best fitness
    (non-increasing thanks to elitism). For the length of the run, scores
    are memoised by a genome's consumed prefix and, behind that, by the
    canonical key of its tree (genomes._build), since distinct prefixes can
    decode alike. Trees are built for new prefixes and the returned
    candidate only, and scored on one Scorer of data. Results and RNG draws
    are those of evaluating every candidate.
    """
    rng = np.random.default_rng(config.seed)
    score = Scorer(data.times, data.states, data.targets)
    by_prefix: dict[int, tuple[float, int]] = {}
    by_key: dict[int, tuple[float, int]] = {}

    def entry(bits: bytes, used: int) -> tuple[float, int, bytes, int]:
        prefix = _prefix(bits, used)
        scored = by_prefix.get(prefix)
        if scored is None:
            expr, key, comp = _build(prefix, grammar)
            scored = by_key.get(key)
            if scored is None:
                scored = by_key[key] = (score(expr), comp)
            by_prefix[prefix] = scored
        return (*scored, bits, prefix)

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
    rmse, comp, bits, prefix = best
    return CandidateSolution(_build(prefix, grammar)[0], rmse, comp, Genome(tuple(bits))), history

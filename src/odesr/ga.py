"""Grammatical-evolution search: elitist top-fraction selection by RMSE
fitness on finite-difference targets, one mutant per survivor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from .candidates import CandidateSolution, Scorer, make_candidate

# not called here; perfbench traces fitness and the batch evaluator at these names
from .candidates import fitness  # noqa: F401
from .expressions import evaluate_batch  # noqa: F401
from .genomes import Genome, Grammar, _build, _mutants, _packed, _random_decoded, _unpacked

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
        if _n_survivors(self) == self.population_size:
            raise ValueError("selection_fraction must leave at least one mutant")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# settings used in the benchmark sweeps
GA_DEFAULTS: dict[str, dict] = {
    "lotka_volterra": {"population_size": 70, "bitstring_length": 20, "iterations": 100},
    "simple_pendulum": {"population_size": 70, "bitstring_length": 20, "iterations": 40},
    "cart_pole": {"population_size": 100, "bitstring_length": 60, "iterations": 100},
}


def default_ga_config(system_name: str, seed: int = 0) -> GAConfig:
    """The benchmark settings of system_name, GAConfig's own for a system
    GA_DEFAULTS does not list."""
    return GAConfig(seed=seed, **GA_DEFAULTS.get(system_name, {}))


# run_ga's population entries are (train_rmse, complexity, genome int, its _prefix)
_RANK = itemgetter(0, 1)


def _n_survivors(config: GAConfig) -> int:
    return math.ceil(config.population_size * config.selection_fraction)


def step(
    pop: list[CandidateSolution],
    config: GAConfig,
    data: RegressionDataset,
    grammar: Grammar,
    rng: np.random.Generator,
) -> list[CandidateSolution]:
    """One generation: survivors by rank (ties keep their order) pass
    unchanged, and mutants fill back to N, one per survivor in turn."""
    n = config.population_size
    if len(pop) != n:
        raise ValueError(f"population size {len(pop)} != configured {n}")
    survivors = sorted(pop, key=attrgetter("train_rmse", "complexity"))[: _n_survivors(config)]
    length = config.bitstring_length
    for s in survivors:
        if len(s.genome.bits) != length:
            raise ValueError(f"survivor of {len(s.genome.bits)} bits != configured {length}")
    parents = [_packed(s.genome.bits) for s in survivors]
    mutants = _mutants(parents, length, grammar, rng, config.mutation_rate, n - len(parents))
    return survivors + [
        make_candidate(_build(prefix, grammar)[0], data, Genome(_unpacked(g, length)))
        for g, prefix in mutants
    ]


def run_ga(
    config: GAConfig, data: RegressionDataset, grammar: Grammar
) -> tuple[CandidateSolution, list[float]]:
    """Full GA run from a fresh seeded population.

    Returns the best-ever candidate and the per-generation best fitness
    (non-increasing thanks to elitism). Genomes are held as ints (see
    genomes). For the length of the run, scores are memoised by a genome's
    consumed prefix and, behind that, by the canonical key of its tree
    (genomes._build), since distinct prefixes can decode alike. Trees are
    built for new prefixes and the returned candidate only, and scored on
    one Scorer of data, under one np.errstate for the run. The population
    is sorted once a generation, stably, so its first entry is min's first
    minimum. Results and RNG draws are those of step and of evaluating every
    candidate.
    """
    rng = np.random.default_rng(config.seed)
    score = Scorer(data.times, data.states, data.targets)
    by_prefix: dict[int, tuple[float, int]] = {}
    by_key: dict[int, tuple[float, int]] = {}
    n, length, rate = config.population_size, config.bitstring_length, config.mutation_rate
    n_survivors = _n_survivors(config)
    pop: list[tuple[float, int, int, int]] = []

    def add(drawn: list[tuple[int, int]]) -> None:
        """Append the entries of drawn (genome, prefix) pairs to pop."""
        for g, prefix in drawn:
            scored = by_prefix.get(prefix)
            if scored is None:
                expr, key, comp = _build(prefix, grammar)
                scored = by_key.get(key)
                if scored is None:
                    scored = by_key[key] = (score(expr), comp)
                by_prefix[prefix] = scored
            pop.append((*scored, g, prefix))

    with np.errstate(all="ignore"):
        add([_random_decoded(length, grammar, rng) for _ in range(n)])
        pop.sort(key=_RANK)
        best = pop[0]
        history: list[float] = []
        for _ in range(config.iterations):
            del pop[n_survivors:]
            add(_mutants([e[2] for e in pop], length, grammar, rng, rate, n - n_survivors))
            pop.sort(key=_RANK)
            gen_best = pop[0]
            if _RANK(gen_best) < _RANK(best):
                best = gen_best
            history.append(gen_best[0])
    rmse, comp, g, prefix = best
    genome = Genome(_unpacked(g, length))
    return CandidateSolution(_build(prefix, grammar)[0], rmse, comp, genome), history

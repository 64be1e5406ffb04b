"""Count the GA's genome draws, tree builds and fitness evaluations, time
run_ga, and record them.

    PYTHONPATH=src python scripts/bench_ga.py --label change

Runs `run_ga` with the benchmark GA settings of each system on its dt 0.1
train set, for the seeds of perfbench's `ga` workload at --seed 0
(1000-1004), as `run_fit` would. Per system, summed over those seeds:

- draws: genomes checked for validity (random and mutated, kept or not)
- valid: draws that decode
- distinct_prefixes: distinct consumed prefixes among the valid draws of
  each run (the bits a decode reads; the rest cannot change the tree)
- trees_built: complete expression trees built, the calls of `_tree`
- fitness_evaluations: calls of `fitness`
- rng_calls: calls of `Generator.random`, which draws the mutation flips

The counts come from one untimed pass. Then RUNS passes over every system
and seed are timed with `time.perf_counter`: raw seconds on the host as it
ran, not calibrated against host speed.

The result goes into BENCH_ga.json in the working directory under
`--label`, with the machine it ran on, next to the labels already there,
so that one file holds the runs of many commits: run the script once with
PYTHONPATH pointing at each commit's `src/`. A label already in the file
is refused, so no earlier record is overwritten.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from odesr import ga, genomes
from odesr.genomes import CONSTANT_POOLS, Grammar
from odesr.integrate import make_dataset
from odesr.systems import SYSTEM_NAMES, get_system

RUNS = 5
OUT = "BENCH_ga.json"
SEEDS = range(1000, 1005)


def counted_runs(data, grammar, settings: dict) -> dict:
    """Counts of one run_ga per seed."""
    counts = dict.fromkeys(
        ("draws", "valid", "distinct_prefixes", "trees_built", "fitness_evaluations", "rng_calls"),
        0,
    )
    prefixes = set()
    check, fitness, build = genomes._consumed, ga.fitness, ga._tree
    default_rng = np.random.default_rng

    class CountingGenerator:
        """A generator whose random() calls are counted."""

        def __init__(self, rng):
            self.rng = rng

        def random(self, *args, **kwargs):
            counts["rng_calls"] += 1
            return self.rng.random(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    def checking(bits, grammar):
        used = check(bits, grammar)
        counts["draws"] += 1
        if used is not None:
            counts["valid"] += 1
            prefixes.add(tuple(bits[:used]))
        return used

    def building(bits, grammar):
        counts["trees_built"] += 1
        return build(bits, grammar)

    def evaluating(expr, data):
        counts["fitness_evaluations"] += 1
        return fitness(expr, data)

    patches = [
        (np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed))),
        (genomes, "_consumed", checking),
        (ga, "fitness", evaluating),
        (ga, "_tree", building),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, function in patches:
        setattr(module, name, function)
    try:
        for seed in SEEDS:
            prefixes.clear()
            ga.run_ga(ga.GAConfig(seed=seed, **settings), data, grammar)
            counts["distinct_prefixes"] += len(prefixes)
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    return counts


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="key for these results")
    args = parser.parse_args()
    path = Path(OUT)
    record = json.loads(path.read_text()) if path.exists() else {}
    if args.label in record.get("results", {}):
        sys.exit(f"{OUT} already holds label {args.label!r}; pick a new one")

    inputs = {}
    for name in SYSTEM_NAMES:
        system = get_system(name)
        grammar = Grammar(variable_count=system.dim, constant_pool=CONSTANT_POOLS[name])
        inputs[name] = (make_dataset(system, 0.1, "train"), grammar, ga.GA_DEFAULTS[name])
    counts = {name: counted_runs(*inputs[name]) for name in SYSTEM_NAMES}

    seconds = {name: [] for name in SYSTEM_NAMES}
    totals = []
    for _ in range(RUNS):
        total = 0.0
        for name, (data, grammar, settings) in inputs.items():
            start = time.perf_counter()
            for seed in SEEDS:
                ga.run_ga(ga.GAConfig(seed=seed, **settings), data, grammar)
            elapsed = time.perf_counter() - start
            seconds[name].append(elapsed)
            total += elapsed
        totals.append(total)

    results = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seeds": list(SEEDS),
        "total_seconds": summary(totals),
    }
    for name in SYSTEM_NAMES:
        results[name] = {**counts[name], "seconds": summary(seconds[name])}
        c = counts[name]
        print(
            f"{args.label} {name}: {c['draws']} draws, {c['valid']} valid, "
            f"{c['distinct_prefixes']} distinct prefixes, {c['trees_built']} trees, "
            f"{c['fitness_evaluations']} fitness, {c['rng_calls']} rng calls; median "
            f"{statistics.median(seconds[name]):.3f} s over {RUNS} runs"
        )
    print(f"{args.label} total: median {statistics.median(totals):.3f} s")

    record.setdefault("results", {})[args.label] = results
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()

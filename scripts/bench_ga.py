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
- trees_built: complete expression trees built. Since the GA scans draws
  without building trees, these are the calls of `_tree`; before, every
  valid draw was decoded into a tree.
- fitness_evaluations: calls of `fitness`

The counts come from one untimed pass. Then RUNS passes over every system
and seed are timed with `time.perf_counter`: raw seconds on the host as it
ran, not calibrated against host speed.

The result goes into BENCH_ga.json in the working directory under
`--label`, next to any labels already there, so that one file holds the
runs of two commits: run the script once with PYTHONPATH pointing at each
commit's `src/`.
"""

import argparse
import json
import os
import platform
import statistics
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
# the validity check of a draw: the tree-free scan, or before it the decode
SCANS = hasattr(genomes, "_consumed")


def counted_runs(data, grammar, settings: dict) -> dict:
    """Counts of one run_ga per seed."""
    counts = dict.fromkeys(
        ("draws", "valid", "distinct_prefixes", "trees_built", "fitness_evaluations"), 0
    )
    prefixes = set()
    check_name = "_consumed" if SCANS else "_decode"
    check, fitness = getattr(genomes, check_name), ga.fitness
    build = getattr(ga, "_tree", None)

    def checking(bits, grammar):
        result = check(bits, grammar)
        used = result if SCANS else (None if result[0] is None else result[1])
        counts["draws"] += 1
        if used is not None:
            counts["valid"] += 1
            counts["trees_built"] += not SCANS
            prefixes.add(tuple(bits[:used]))
        return result

    def building(bits, grammar):
        counts["trees_built"] += 1
        return build(bits, grammar)

    def evaluating(expr, data):
        counts["fitness_evaluations"] += 1
        return fitness(expr, data)

    patches = [(genomes, check_name, checking), (ga, "fitness", evaluating)]
    if SCANS:
        patches.append((ga, "_tree", building))
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

    results = {"seeds": list(SEEDS), "total_seconds": summary(totals)}
    for name in SYSTEM_NAMES:
        results[name] = {**counts[name], "seconds": summary(seconds[name])}
        c = counts[name]
        print(
            f"{args.label} {name}: {c['draws']} draws, {c['valid']} valid, "
            f"{c['distinct_prefixes']} distinct prefixes, {c['trees_built']} trees, "
            f"{c['fitness_evaluations']} fitness; median "
            f"{statistics.median(seconds[name]):.3f} s over {RUNS} runs"
        )
    print(f"{args.label} total: median {statistics.median(totals):.3f} s")

    path = Path(OUT)
    record = json.loads(path.read_text()) if path.exists() else {}
    record["machine"] = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    record.setdefault("results", {})[args.label] = results
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()

"""Count the GA's genome draws, tree builds and fitness evaluations, time
run_ga and its parts, and record them.

    PYTHONPATH=src python scripts/bench_ga.py --label change

Runs `run_ga` with the benchmark GA settings of each system on its dt 0.1
train set, for the seeds of perfbench's `ga` workload at --seed 0
(1000-1004), as `run_fit` would. Per system, summed over those seeds:

- draws: genomes checked for validity (random and mutated, kept or not)
- valid: draws that decode
- distinct_prefixes: distinct consumed prefixes among the valid draws of
  each run (the bits a decode reads; the rest cannot change the tree)
- trees_built: complete expression trees built, the calls of
  `genomes._build`
- distinct_keys: distinct canonical keys among the trees built in each
  run (prefixes that decode to one tree share a key)
- fitness_evaluations: expressions scored, the calls of run_ga's `Scorer`
- nonfinite_evaluations: those calls that returned +inf
- rng_calls: calls of `Generator.random`, which draws the mutation flips

The counts come from one untimed pass. Then RUNS passes over every system
and seed are timed with `time.perf_counter`. Each system's raw seconds
per pass are recorded with its seconds calibrated against host speed
(see benchrecord.timed_passes) and its minor page faults.

Last, RUNS more passes time where a pass's time goes, per system, in raw
seconds summed over the seeds (`parts`): drawing and scanning genomes
(`ga._mutants` and `ga._random_decoded`), building trees (`ga._build`),
scoring (the calls of run_ga's `Scorer`), and the rest of run_ga. Each
timed call also pays for its two clock reads, so these passes run a
little slower than the untimed ones.

The result is appended to BENCH_ga.json in the working directory under
`--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`. A commit whose run_ga lacks a patch
point (`_build` and `Scorer` came with the one-pass tree builder) fails
with an AttributeError; record it with that commit's own copy of this
script.
"""

import math
import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np

from odesr import ga, genomes
from odesr.genomes import CONSTANT_POOLS, Grammar
from odesr.integrate import make_dataset
from odesr.systems import SYSTEM_NAMES, get_system

from benchrecord import RUNS, parse_label, patched, save, summary, timed_passes

OUT = Path("BENCH_ga.json")
SEEDS = range(1000, 1005)


def counted_runs(data, grammar, settings: dict, seeds=SEEDS) -> dict:
    """Counts of one run_ga per seed, summed over the seeds."""
    counts = dict.fromkeys(
        (
            "draws", "valid", "distinct_prefixes", "trees_built", "distinct_keys",
            "fitness_evaluations", "nonfinite_evaluations", "rng_calls",
        ),
        0,
    )
    prefixes, keys = set(), set()
    check, build = genomes._consumed, ga._build
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

    def checking(g, length, grammar):
        used = check(g, length, grammar)
        counts["draws"] += 1
        if used is not None:
            counts["valid"] += 1
            prefixes.add((used, g >> (length - used)))
        return used

    def building(prefix, grammar):
        counts["trees_built"] += 1
        built = build(prefix, grammar)
        keys.add(built[1])
        return built

    class CountingScorer(ga.Scorer):
        """A scorer whose calls, and those that return +inf, are counted."""

        def __call__(self, expr):
            counts["fitness_evaluations"] += 1
            value = super().__call__(expr)
            counts["nonfinite_evaluations"] += value == math.inf
            return value

    with patched(
        (np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed))),
        (genomes, "_consumed", checking),
        (ga, "Scorer", CountingScorer),
        (ga, "_build", building),
    ):
        for seed in seeds:
            prefixes.clear()
            keys.clear()
            ga.run_ga(ga.GAConfig(seed=seed, **settings), data, grammar)
            counts["distinct_prefixes"] += len(prefixes)
            counts["distinct_keys"] += len(keys)
    return counts


PARTS = ("draw", "build", "score", "rest")


def part_seconds(data, grammar, settings: dict, seeds=SEEDS) -> dict:
    """Raw seconds of one run_ga per seed, summed over the seeds, spent in
    each of PARTS."""
    spent = dict.fromkeys(PARTS, 0.0)
    clock = time.perf_counter

    def timed(part, call):
        def timing(*args):
            start = clock()
            out = call(*args)
            spent[part] += clock() - start
            return out

        return timing

    class TimedScorer(ga.Scorer):
        __call__ = timed("score", ga.Scorer.__call__)

    with patched(
        (ga, "_mutants", timed("draw", ga._mutants)),
        (ga, "_random_decoded", timed("draw", ga._random_decoded)),
        (ga, "_build", timed("build", ga._build)),
        (ga, "Scorer", TimedScorer),
    ):
        start = clock()
        run_seeds(data, grammar, settings, seeds)
        total = clock() - start
    spent["rest"] = total - sum(spent.values())
    return spent


def run_seeds(data, grammar, settings: dict, seeds=SEEDS) -> None:
    for seed in seeds:
        ga.run_ga(ga.GAConfig(seed=seed, **settings), data, grammar)


def main() -> None:
    label = parse_label(__doc__, OUT)

    inputs = {}
    for name in SYSTEM_NAMES:
        system = get_system(name)
        grammar = Grammar(variable_count=system.dim, constant_pool=CONSTANT_POOLS[name])
        inputs[name] = (make_dataset(system, 0.1, "train"), grammar, ga.GA_DEFAULTS[name])
    counts = {name: counted_runs(*inputs[name]) for name in SYSTEM_NAMES}

    seconds, totals, faults, calibrated = timed_passes(
        {name: partial(run_seeds, *a) for name, a in inputs.items()}
    )
    spent = [{name: part_seconds(*inputs[name]) for name in SYSTEM_NAMES} for _ in range(RUNS)]
    parts = {
        name: {part: summary([s[name][part] for s in spent]) for part in PARTS}
        for name in SYSTEM_NAMES
    }

    results = {"seeds": list(SEEDS), "total_seconds": summary(totals)}
    if calibrated is not None:
        passes = [sum(calibrated[name][i] for name in SYSTEM_NAMES) for i in range(RUNS)]
        results["total_calibrated_seconds"] = summary(passes)
    for name in SYSTEM_NAMES:
        results[name] = {
            **counts[name],
            "seconds": summary(seconds[name]),
            "calibrated_seconds": calibrated and summary(calibrated[name]),
            "minor_faults": faults[name],
            "parts": parts[name],
        }
        c = counts[name]
        print(
            f"{label} {name}: {c['draws']} draws, {c['valid']} valid, "
            f"{c['distinct_prefixes']} distinct prefixes, {c['trees_built']} trees "
            f"({c['distinct_keys']} distinct), "
            f"{c['fitness_evaluations']} fitness ({c['nonfinite_evaluations']} inf), "
            f"{c['rng_calls']} rng calls; median "
            f"{statistics.median(seconds[name]):.3f} s over {RUNS} runs; parts "
            + ", ".join(f"{part} {parts[name][part]['median']:.3f}" for part in PARTS)
            + " s"
        )
    print(f"{label} total: median {statistics.median(totals):.3f} s")

    save(OUT, label, results)


if __name__ == "__main__":
    main()

"""Time the Feynman pipeline on the benchmark train sets and record it.

    PYTHONPATH=src python scripts/bench_feynman.py --label change

Calls `run_pipeline` with the default config on the dt 0.1 train set of
each benchmark system, after one untimed warm-up call per system, and
times RUNS calls per system with `time.perf_counter`. These are raw
seconds on the host as it ran, not calibrated against host speed. One
more call per system runs under `tracemalloc` for the peak of Python
allocations. `brute_force` is called once per system, outside the timed
calls, to count the skeletons that get a fit.

The result goes into BENCH_feynman.json in the working directory under
`--label`, next to any labels already there, so that one file holds the
runs of two commits: run the script once with PYTHONPATH pointing at
each commit's `src/`.
"""

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from odesr.feynman import brute_force, run_pipeline
from odesr.integrate import make_dataset
from odesr.systems import SYSTEM_NAMES, get_system

RUNS = 5
OUT = "BENCH_feynman.json"


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="key for these results")
    args = parser.parse_args()

    data = {name: make_dataset(get_system(name), 0.1, "train") for name in SYSTEM_NAMES}
    for d in data.values():
        run_pipeline(d)

    seconds = {name: [] for name in SYSTEM_NAMES}
    totals = []
    for _ in range(RUNS):
        total = 0.0
        for name, d in data.items():
            start = time.perf_counter()
            run_pipeline(d)
            elapsed = time.perf_counter() - start
            seconds[name].append(elapsed)
            total += elapsed
        totals.append(total)

    systems = {}
    for name, d in data.items():
        tracemalloc.start()
        run_pipeline(d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        systems[name] = {
            "seconds": summary(seconds[name]),
            "skeletons_fitted": len(brute_force(d)),
            "tracemalloc_peak_mb": round(peak / 2**20, 2),
        }

    path = Path(OUT)
    record = json.loads(path.read_text()) if path.exists() else {}
    record["machine"] = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    record.setdefault("results", {})[args.label] = {
        "seconds_all_systems": summary(totals),
        "systems": systems,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    median = statistics.median(totals)
    print(f"{args.label}: median {median:.3f} s over {RUNS} runs")


if __name__ == "__main__":
    main()

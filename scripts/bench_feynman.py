"""Time the Feynman pipeline on the benchmark train sets and record it.

    PYTHONPATH=src python scripts/bench_feynman.py --label change

Calls `run_pipeline` with the default config on the dt 0.1 train set of
each benchmark system, after one untimed warm-up call per system, and
times RUNS passes of one call per system with `time.perf_counter`. These
are raw seconds on the host as it ran, not calibrated against host speed.
Each call's minor page faults are recorded with them.
One more call per system runs under `tracemalloc` for the peak of Python
allocations. `brute_force` is called once per system, outside the timed
calls, to count the skeletons that get a fit.

The result is appended to BENCH_feynman.json in the working directory
under `--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`.
"""

import statistics
import tracemalloc
from functools import partial
from pathlib import Path

from odesr.feynman import brute_force, run_pipeline
from odesr.integrate import make_dataset
from odesr.systems import SYSTEM_NAMES, get_system

from benchrecord import RUNS, parse_label, save, summary, timed_passes

OUT = Path("BENCH_feynman.json")


def main() -> None:
    label = parse_label(__doc__, OUT)

    data = {name: make_dataset(get_system(name), 0.1, "train") for name in SYSTEM_NAMES}
    for d in data.values():
        run_pipeline(d)

    seconds, totals, faults = timed_passes(
        {name: partial(run_pipeline, d) for name, d in data.items()}
    )

    systems = {}
    for name, d in data.items():
        tracemalloc.start()
        run_pipeline(d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        systems[name] = {
            "seconds": summary(seconds[name]),
            "minor_faults": faults[name],
            "skeletons_fitted": len(brute_force(d)),
            "tracemalloc_peak_mb": round(peak / 2**20, 2),
        }

    save(OUT, label, {"seconds_all_systems": summary(totals), "systems": systems})
    print(f"{label}: median {statistics.median(totals):.3f} s over {RUNS} runs")


if __name__ == "__main__":
    main()

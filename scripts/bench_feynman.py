"""Time the Feynman pipeline on the benchmark train sets and record it.

    PYTHONPATH=src python scripts/bench_feynman.py --label change

Calls `run_pipeline` with the default config on the dt 0.1 train set of
each benchmark system, after one untimed warm-up call per system, and
times RUNS passes of one call per system with `time.perf_counter`. Each
call's raw seconds are recorded with its seconds calibrated against host
speed (see benchrecord.timed_passes) and its minor page faults.
One more call per system runs under `tracemalloc` for the peak of Python
allocations, and one more counts the brute-force rows that
`run_pipeline` fits and those it computes an exact residual for.
`brute_force` is called once per system, outside the timed calls, to
count the skeletons that get a fit.

The result is appended to BENCH_feynman.json in the working directory
under `--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`. A commit whose brute force passes
`_BestPerComplexity.block` an array of residuals, not a function of the
rows, is recorded with that commit's own copy of this script.
"""

import statistics
import tracemalloc
from functools import partial
from pathlib import Path

from odesr import feynman
from odesr.feynman import brute_force, run_pipeline
from odesr.integrate import make_dataset
from odesr.systems import SYSTEM_NAMES, get_system

from benchrecord import RUNS, parse_label, patched, save, summary, timed_passes

OUT = Path("BENCH_feynman.json")


def residual_counts(data) -> dict:
    """Brute-force rows that one run_pipeline call fits, and those it
    computes an exact residual for."""
    counts = {"rows_fitted": 0, "rows_with_exact_residual": 0}
    block = feynman._BestPerComplexity.block

    def counting(self, comp, c, rmse, *rest):
        counts["rows_fitted"] += len(c)

        def exact(rows):
            counts["rows_with_exact_residual"] += len(rows)
            return rmse(rows)

        return block(self, comp, c, exact, *rest)

    with patched((feynman._BestPerComplexity, "block", counting)):
        run_pipeline(data)
    return counts


def main() -> None:
    label = parse_label(__doc__, OUT)

    data = {name: make_dataset(get_system(name), 0.1, "train") for name in SYSTEM_NAMES}
    for d in data.values():
        run_pipeline(d)

    seconds, totals, faults, calibrated = timed_passes(
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
            "calibrated_seconds": calibrated and summary(calibrated[name]),
            "minor_faults": faults[name],
            "skeletons_fitted": len(brute_force(d)),
            **residual_counts(d),
            "tracemalloc_peak_mb": round(peak / 2**20, 2),
        }
        print(
            f"{label} {name}: {systems[name]['rows_fitted']} rows fitted, "
            f"{systems[name]['rows_with_exact_residual']} exact residuals; "
            f"median {statistics.median(seconds[name]):.3f} s over {RUNS} runs"
        )

    results = {"seconds_all_systems": summary(totals)}
    if calibrated is not None:
        passes = [sum(calibrated[name][i] for name in data) for i in range(RUNS)]
        results["calibrated_seconds_all_systems"] = summary(passes)
    save(OUT, label, {**results, "systems": systems})
    print(f"{label}: median {statistics.median(totals):.3f} s over {RUNS} runs")


if __name__ == "__main__":
    main()

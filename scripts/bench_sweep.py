"""Time the default sweep and record it, with the processes that ran it.

    PYTHONPATH=src python scripts/bench_sweep.py --label change

The default sweep is `run_benchmark()`: 3 methods x 3 systems, 5 GA
seeds, the runs of `odesr bench`, without writing files. After one
untimed warm-up sweep, which imports the searches, RUNS sweeps are timed
with `time.perf_counter`; each resolves its systems anew, so each
integrates its trajectories again. Each sweep's raw seconds are recorded
with its seconds calibrated against host speed (see
benchrecord.timed_passes), and with the sum of its runs' `wall_time`: the
work that one process would do in turn. The processes that computed
are this one and the children it forked, counted at `os.fork`; the
usable cores are `os.sched_getaffinity(0)` where the platform has it.
The peak resident set sizes are this process's (`RUSAGE_SELF`) and its
largest child's (`RUSAGE_CHILDREN`), in MB, after all the sweeps.

The result is appended to BENCH_sweep.json in the working directory
under `--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`.
"""

import os
import resource
import statistics
from pathlib import Path

from odesr.benchmark import run_benchmark

from benchrecord import RUNS, parse_label, patched, save, summary, timed_passes

OUT = Path("BENCH_sweep.json")


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def main() -> None:
    label = parse_label(__doc__.splitlines()[0], OUT)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None

    run_benchmark()
    forks, serial = [], []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def sweep():
        results = run_benchmark()
        serial.append(sum(run["wall_time"] for res in results for run in res.runs))

    with patched((os, "fork", counting_fork)):
        seconds, _totals, _faults, calibrated = timed_passes({"sweep": sweep})
    results = {
        "seconds": summary(seconds["sweep"]),
        "calibrated_seconds": calibrated and summary(calibrated["sweep"]),
        "serial_work_seconds": summary(serial),
        "processes": 1 + len(forks) / RUNS,
        "usable_cores": cores,
        "peak_rss_mb": round(peak_rss_mb(resource.RUSAGE_SELF), 2),
        "children_peak_rss_mb": round(peak_rss_mb(resource.RUSAGE_CHILDREN), 2),
    }
    save(OUT, label, results)
    print(
        f"{label}: median {statistics.median(seconds['sweep']):.3f} s over {RUNS} sweeps"
        f" in {results['processes']:g} processes on {cores} usable cores;"
        f" runs' wall_time {statistics.median(serial):.3f} s;"
        f" peak RSS {results['peak_rss_mb']} MB, children {results['children_peak_rss_mb']} MB"
    )


if __name__ == "__main__":
    main()

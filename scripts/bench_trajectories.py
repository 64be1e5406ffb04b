"""Count and time the integrations of two benchmark sequences and record them.

    PYTHONPATH=src python scripts/bench_trajectories.py --label change

The `score` sequence runs, for sample_dt 0.1, 0.05 and 0.025 and each
benchmark system, a SINDy `run_fit`, the `test_error` of the system's
ground-truth expression and a `rollout_with_estimate` of it. The `sweep`
sequence is a default `run_benchmark` (3 methods x 3 systems, 5 GA seeds)
without output files. Each run builds fresh systems, so that no trajectory
carries over from the run before.

Every call to `integrate` is counted, through both the integrate module and
the benchmark module, which binds its own name, together with the
right-hand-side evaluations it makes. A call is distinct when no earlier
call of the same run had equal inputs: the same initial state, span,
sample_dt and integrator config, and a right-hand side with the same code
and captured values (so two systems built by one factory share theirs).
Each sequence runs once untimed for the counts, then RUNS times timed with
`time.perf_counter`, which records each run's seconds and the part of them
spent inside `integrate`: raw seconds on the host as it ran, not calibrated
against host speed.

The result goes into BENCH_trajectories.json in the working directory under
`--label`, next to any labels already there, so that one file holds the
runs of two commits: run the script once with PYTHONPATH pointing at each
commit's `src/`.
"""

import argparse
import importlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from odesr.benchmark import (
    GROUND_TRUTH_EXPRESSIONS,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    test_error,
)
from odesr.expressions import parse_expr
from odesr.systems import SYSTEM_NAMES, get_system

RUNS = 5
OUT = "BENCH_trajectories.json"
SCORE_DTS = (0.1, 0.05, 0.025)
# the package attribute odesr.integrate is the function, not the module
BINDINGS = (
    importlib.import_module("odesr.integrate"),
    importlib.import_module("odesr.benchmark"),
)


def score() -> None:
    for sample_dt in SCORE_DTS:
        for name in SYSTEM_NAMES:
            system = get_system(name)
            truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], system.variable_names)
            run_fit("sindy", system, sample_dt=sample_dt)
            test_error(truth, system, sample_dt)
            rollout_with_estimate(truth, system, sample_dt=sample_dt)


def sweep() -> None:
    run_benchmark()


def rhs_key(rhs) -> tuple:
    """Code and captured values; a captured object other than a float
    stands for itself."""
    cells = tuple(c.cell_contents for c in rhs.__closure__ or ())
    return rhs.__code__, tuple(v if isinstance(v, float) else id(v) for v in cells)


def run_wrapped(sequence, wrap) -> None:
    """Run sequence with every binding of integrate replaced by
    wrap(integrate)."""
    original = BINDINGS[0].integrate
    wrapped = wrap(original)
    for module in BINDINGS:
        module.integrate = wrapped
    try:
        sequence()
    finally:
        for module in BINDINGS:
            module.integrate = original


def count_integrations(sequence) -> dict:
    """integrate calls of one run of sequence, total and distinct, and the
    right-hand-side evaluations they make."""
    keys = []
    alive = []  # keeps every rhs, so that no id in a key is reused
    evaluations = 0

    def wrap(original):
        def counting(rhs, x0, span, sample_dt, config=None):
            alive.append(rhs)
            cfg = (config.rtol, config.atol, config.max_steps) if config else None
            x = np.array(x0, dtype=float).tobytes()
            keys.append((rhs_key(rhs), x, tuple(span), sample_dt, cfg))

            def counted(t, state):
                nonlocal evaluations
                evaluations += 1
                return rhs(t, state)

            return original(counted, x0, span, sample_dt, config)

        return counting

    run_wrapped(sequence, wrap)
    return {"total": len(keys), "distinct": len(set(keys)), "rhs_evaluations": evaluations}


def timed_run(sequence) -> tuple[float, float]:
    """Seconds of one run of sequence, and the part of them inside integrate."""
    inside = 0.0

    def wrap(original):
        def timing(*args, **kwargs):
            nonlocal inside
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                inside += time.perf_counter() - start

        return timing

    start = time.perf_counter()
    run_wrapped(sequence, wrap)
    return time.perf_counter() - start, inside


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="key for these results")
    args = parser.parse_args()

    results = {}
    for name, sequence in (("score", score), ("sweep", sweep)):
        calls = count_integrations(sequence)
        runs = [timed_run(sequence) for _ in range(RUNS)]
        seconds = [wall for wall, _ in runs]
        inside = [integrate_s for _, integrate_s in runs]
        results[name] = {
            "integrate_calls": calls,
            "seconds": summary(seconds),
            "integrate_seconds": summary(inside),
        }
        print(
            f"{args.label} {name}: {calls['total']} integrate calls, "
            f"{calls['distinct']} distinct, {calls['rhs_evaluations']} rhs evaluations; "
            f"median {statistics.median(seconds):.3f} s over {RUNS} runs, "
            f"{statistics.median(inside):.3f} s inside integrate"
        )

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

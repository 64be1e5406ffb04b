"""Count and time the integrations of two benchmark sequences and record them.

    PYTHONPATH=src python scripts/bench_trajectories.py --label change

The `score` sequence is perfbench's `score` workload: on systems built
once per run, for sample_dt 0.1, 0.05 and 0.025, each benchmark system's
SINDy `run_fit`, the `test_error` of its ground-truth expression and a
`rollout_with_estimate` of it, and a SINDy fit of the pendulum written as
expression strings. The `sweep` sequence is a default `run_benchmark`
(3 methods x 3 systems, 5 GA seeds) without output files. Each run builds
fresh systems, so that no trajectory carries over from the run before.

Every call to `integrate` is counted at the integrate module, where
shared_trajectory calls it, together with the right-hand-side evaluations
it makes and the bytes of the step record it returns (null where integrate
keeps none). A call is distinct when no earlier call of the same run had
equal inputs: the same initial state, span, sample_dt and integrator
config, and a right-hand side with the same code and captured values (so
two systems built by one factory share theirs). Calls that differ only in
sample_dt take the same steps, so the distinct count without sample_dt is
the number of step sequences a run needs. Each sequence runs once untimed
for the counts, then RUNS passes of both are timed with
`time.perf_counter`, which records each run's seconds, the part of them
spent inside `integrate` and the minor page faults: raw figures on the
host as it ran. Each run's seconds calibrated against host speed (see
benchrecord.timed_passes) are recorded with them.

The right-hand sides of hybrid rollouts are timed on their own: for each
benchmark system, the compiled ground-truth expression (`compile_scalar`)
and the hybrid right-hand side that `rollout_with_estimate` integrates, at
the system's initial state and t = 0.5. Each pass makes CALLS calls of
each, and the record holds the raw and calibrated microseconds per call.

The step loop is timed on its own too: for each benchmark system's train
split, with the system's right-hand side and with the ground-truth hybrid,
one `integrate` call per pass, made directly rather than through
shared_trajectory's memo. The record holds its step attempts and the raw
and calibrated microseconds per attempt, right-hand side included. Each
attempt makes six rhs evaluations, and integrate makes two more (the
initial slope and the initial step's probe), so the attempts are the rhs
evaluations less two, over six.

The result is appended to BENCH_trajectories.json in the working directory
under `--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`.
"""

import statistics
import time
import weakref
from functools import partial
from pathlib import Path

import numpy as np

from odesr import benchmark, integrate
from odesr.benchmark import (
    GROUND_TRUTH_EXPRESSIONS,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    test_error,
)
from odesr.expressions import compile_scalar, parse_expr
from odesr.sindy import preset_basis
from odesr.systems import SYSTEM_NAMES, expression_system, get_system

from benchrecord import RUNS, parse_label, patched, save, summary, timed_passes

OUT = Path("BENCH_trajectories.json")
SCORE_DTS = (0.1, 0.05, 0.025)
# the pendulum as expression strings, as in perfbench's score workload
PENDULUM_EXPR = ("theta2", "-0.1 * theta2 - 9.81 * sin(theta1)")
CALLS = 20_000  # right-hand-side calls per timed pass


def score() -> None:
    systems = [get_system(name) for name in SYSTEM_NAMES]
    truths = [parse_expr(GROUND_TRUTH_EXPRESSIONS[s.name], s.variable_names) for s in systems]
    pendulum = get_system("simple_pendulum")
    pendulum_expr = expression_system(
        "pendulum_expr",
        PENDULUM_EXPR,
        pendulum.initial_state,
        variable_names=pendulum.variable_names,
    )
    basis = preset_basis("pendulum")
    for sample_dt in SCORE_DTS:
        for system, truth in zip(systems, truths):
            run_fit("sindy", system, sample_dt=sample_dt)
            test_error(truth, system, sample_dt)
            rollout_with_estimate(truth, system, sample_dt=sample_dt)
        run_fit("sindy", pendulum_expr, sample_dt=sample_dt, basis=basis)


def rhs_calls() -> dict:
    """For each benchmark system, CALLS calls of its compiled truth
    expression and of the hybrid right-hand side built from it."""
    work = {}
    for name in SYSTEM_NAMES:
        system = get_system(name)
        truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], system.variable_names)
        x = np.array(system.initial_state)
        for kind, rhs in (
            ("truth", compile_scalar(truth)),
            ("hybrid", benchmark._hybrid_rhs(system, truth)),
        ):
            work[f"{name}/{kind}"] = partial(call_repeatedly, rhs, x, system)
    return work


def call_repeatedly(rhs, x, system) -> None:
    """CALLS calls of rhs at (0.5, x). The system is passed along because a
    hybrid holds its true right-hand side only by a weak reference."""
    for _ in range(CALLS):
        rhs(0.5, x)


def step_loop() -> tuple[dict, dict]:
    """For each benchmark system's train split, with its rhs and with the
    ground-truth hybrid: the rhs evaluations and attempts of one integrate
    call, and a work item that makes that call."""
    counts, work = {}, {}
    for name in SYSTEM_NAMES:
        system = get_system(name)
        truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], system.variable_names)
        for kind, rhs in (("truth", system.rhs), ("hybrid", benchmark._hybrid_rhs(system, truth))):
            evaluations = train_evaluations(rhs, system)
            counts[f"{name}/{kind}"] = {
                "rhs_evaluations": evaluations,
                "attempts": (evaluations - 2) // 6,
            }
            work[f"{name}/{kind}"] = partial(integrate_train, rhs, system)
    return counts, work


def train_evaluations(rhs, system) -> int:
    """The rhs evaluations of one integrate call over the system's train split."""
    evaluations = 0

    def counted(t, x):
        nonlocal evaluations
        evaluations += 1
        return rhs(t, x)

    integrate_train(counted, system)
    return evaluations


def integrate_train(rhs, system) -> None:
    """integrate rhs over the system's train split. The system is passed
    along because a hybrid holds its true right-hand side only by a weak
    reference."""
    integrate.integrate(rhs, system.initial_state, system.train_span, SCORE_DTS[0])


def rhs_key(rhs) -> tuple:
    """Code and captured values. A number stands for its value, a function
    or a weak reference to one for its own key, and any other captured
    object for itself."""
    cells = []
    for cell in rhs.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, weakref.ref):
            value = value()
        if hasattr(value, "__code__"):
            cells.append(rhs_key(value))
        elif isinstance(value, (int, float)):
            cells.append(repr(value))
        else:
            cells.append(id(value))
    return rhs.__code__, tuple(cells)


def run_with(sequence, function) -> None:
    """Run sequence with integrate.integrate replaced by function."""
    with patched((integrate, "integrate", function)):
        sequence()


def count_integrations(sequence) -> dict:
    """integrate calls of one run of sequence: in total, distinct, and
    distinct without sample_dt; the right-hand-side evaluations they make
    and the bytes of the step records they return."""
    keys = []
    alive = []  # keeps every rhs, so that no id in a key is reused
    evaluations = 0
    record_bytes = None
    original = integrate.integrate

    def counting(rhs, x0, span, sample_dt, config=None):
        nonlocal record_bytes
        alive.append(rhs)
        cfg = (config.rtol, config.atol, config.max_steps) if config else None
        x = np.array(x0, dtype=float).tobytes()
        keys.append((rhs_key(rhs), x, tuple(span), sample_dt, cfg))

        def counted(t, state):
            nonlocal evaluations
            evaluations += 1
            return rhs(t, state)

        traj = original(counted, x0, span, sample_dt, config)
        steps = getattr(traj, "steps", None)
        if steps is not None:
            record_bytes = (record_bytes or 0) + steps.nbytes
        return traj

    run_with(sequence, counting)
    return {
        "total": len(keys),
        "distinct": len(set(keys)),
        "distinct_without_sample_dt": len({k[:3] + k[4:] for k in keys}),
        "rhs_evaluations": evaluations,
        "step_record_bytes": record_bytes,
    }


def timed_run(sequence, inside: list[float]) -> None:
    """One run of sequence; appends the seconds it spent inside integrate."""
    seconds = 0.0
    original = integrate.integrate

    def timing(*args, **kwargs):
        nonlocal seconds
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds += time.perf_counter() - start

    run_with(sequence, timing)
    inside.append(seconds)


def main() -> None:
    label = parse_label(__doc__, OUT)

    sequences = {"score": score, "sweep": run_benchmark}
    calls = {name: count_integrations(sequence) for name, sequence in sequences.items()}
    inside = {name: [] for name in sequences}
    seconds, _, faults, calibrated = timed_passes(
        {name: partial(timed_run, sequence, inside[name]) for name, sequence in sequences.items()}
    )

    results = {}
    for name in sequences:
        c = calls[name]
        results[name] = {
            "integrate_calls": c,
            "seconds": summary(seconds[name]),
            "calibrated_seconds": calibrated and summary(calibrated[name]),
            "integrate_seconds": summary(inside[name]),
            "minor_faults": faults[name],
        }
        print(
            f"{label} {name}: {c['total']} integrate calls, {c['distinct']} distinct, "
            f"{c['distinct_without_sample_dt']} without sample_dt, "
            f"{c['rhs_evaluations']} rhs evaluations, "
            f"{c['step_record_bytes']} step record bytes; "
            f"median {statistics.median(seconds[name]):.3f} s over {RUNS} runs, "
            f"{statistics.median(inside[name]):.3f} s inside integrate, "
            f"{statistics.median(faults[name]):.0f} minor faults"
        )

    seconds, _, _, calibrated = timed_passes(rhs_calls())
    per_call = {}
    for name in seconds:
        raw_us = [s / CALLS * 1e6 for s in seconds[name]]
        per_call[name] = {
            "us_per_call": summary(raw_us),
            "calibrated_us_per_call": calibrated
            and summary([s / CALLS * 1e6 for s in calibrated[name]]),
        }
        print(f"{label} {name}: median {statistics.median(raw_us):.2f} us per call")
    results["rhs_calls"] = per_call

    counts, work = step_loop()
    seconds, _, _, calibrated = timed_passes(work)
    loop = {}
    for name, c in counts.items():
        per_attempt = [s / c["attempts"] * 1e6 for s in seconds[name]]
        loop[name] = {
            **c,
            "us_per_attempt": summary(per_attempt),
            "calibrated_us_per_attempt": calibrated
            and summary([s / c["attempts"] * 1e6 for s in calibrated[name]]),
        }
        print(
            f"{label} step loop {name}: {c['attempts']} attempts, "
            f"median {statistics.median(per_attempt):.2f} us per attempt"
        )
    results["step_loop"] = loop

    save(OUT, label, results)


if __name__ == "__main__":
    main()

"""Held-out evaluation of fitted expressions, hybrid rollouts, and the
benchmark sweep over methods and systems."""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import pickle
import time
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .candidates import CandidateSolution, SamplingError, score

# evaluate and evaluate_batch are not called here; they stay importable from
# this module because perfbench/spans.py traces the scalar and batch paths at
# these names
from .expressions import (  # noqa: F401
    Expr,
    compile_scalar,
    evaluate,
    evaluate_batch,
    print_expr,
)
# integrate is not called here either (rollouts go through joined_splits);
# it stays importable because perfbench/spans.py names this binding
from .integrate import (  # noqa: F401
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate,
    joined_splits,
    make_dataset,
    make_trajectory,
    write_csv,
)
from .systems import SYSTEM_NAMES, SystemSpec, get_system

# each search's module is imported in run_fit's branch for it, so a process
# loads only the searches it runs
if TYPE_CHECKING:
    from .feynman import FeynmanConfig
    from .ga import GAConfig
    from .sindy import BasisSet, STLSQConfig

# the searches as perfbench/spans.py reaches them here, served from their
# modules on first access
_SEARCHES = {
    "run_ga": ("ga", "run_ga"),
    "sindy_fit": ("sindy", "fit"),
    "run_pipeline": ("feynman", "run_pipeline"),
}


def __getattr__(name: str):
    if name not in _SEARCHES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SEARCHES[name]
    return getattr(importlib.import_module(f".{module}", __package__), attr)


METHODS = ("ga", "sindy", "feynman")
DETERMINISTIC_METHODS = ("sindy", "feynman")
# the exceptions run_benchmark records as a failed run; any other propagates
_RUN_FAILURES = (IntegrationError, SamplingError, np.linalg.LinAlgError, ValueError)

# which basis preset serves which benchmark system
SINDY_PRESET_FOR_SYSTEM = {
    "lotka_volterra": "lotka_volterra",
    "simple_pendulum": "pendulum",
    "cart_pole": "cartpole",
}

# target-dimension right-hand sides written as parseable strings, used for
# self-checks and demo rollouts
GROUND_TRUTH_EXPRESSIONS = {
    "lotka_volterra": "-(y * (3.0 - x))",
    "simple_pendulum": "-0.1 * theta2 - 9.81 * sin(theta1)",
    "cart_pole": (
        "((-19.62) * sin(w) - (-0.2 + 0.5 * sin(6.0 * t)) * cos(w)"
        " + sin(w) * cos(w) * y^2) / (2.0 - cos(w)^2)"
    ),
}


@dataclass
class BenchmarkResult:
    method: str
    system: str
    runs: list[dict]
    mean_test_error: float
    std_test_error: float


@dataclass
class RolloutResult:
    truth: Trajectory
    hybrid: Trajectory
    divergence_time: float | None


def test_error(
    expr: Expr,
    system: SystemSpec,
    sample_dt: float = 0.1,
    config: IntegratorConfig | None = None,
) -> float:
    """RMSE between the expression and the true target-dimension derivative
    along the integrated test trajectory. Evaluation points are the grid
    anchors, matching the training pairs; non-finite predictions give +inf."""
    traj = make_trajectory(system, "test", sample_dt, config)
    times, states = traj.times[:-1], traj.states[:-1]
    truth = np.array(
        [system.rhs(t, s)[system.target_dim] for t, s in zip(times.tolist(), states)]
    )
    return score(expr, times, states, truth)


# system.rhs -> {(target_dim, printed estimate): hybrid right-hand side}.
# The printed form tells Const(0.0) from Const(-0.0), which compare equal.
# A hybrid reaches system.rhs through a weak reference: a value that held
# its key strongly would keep the entry alive for good.
_HYBRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _hybrid_rhs(system: SystemSpec, expr: Expr):
    """system.rhs with the target dimension's derivative taken from expr,
    one function per (system.rhs, target_dim, expr), so that
    shared_trajectory integrates each hybrid once per set of inputs.

    The hybrid returns a new list: system.rhs's array as Python floats,
    with the estimate written in. It never writes the array system.rhs
    returns, which system.rhs may reuse."""
    rhs, dim = system.rhs, system.target_dim
    try:
        hybrids = _HYBRIDS.setdefault(rhs, {})
        true_rhs = weakref.ref(rhs)
    except TypeError:  # an rhs that cannot be weakly referenced gets no cache
        hybrids, true_rhs = {}, lambda: rhs
    key = (dim, print_expr(expr))
    hybrid = hybrids.get(key)
    if hybrid is None:
        estimate = compile_scalar(expr)

        def hybrid(t, state):
            out = true_rhs()(t, state).tolist()
            out[dim] = estimate(t, state)
            return out

        hybrids[key] = hybrid
    return hybrid


def rollout_with_estimate(
    expr: Expr,
    system: SystemSpec,
    sample_dt: float = 0.1,
    config: IntegratorConfig | None = None,
) -> RolloutResult:
    """Integrate the hybrid system where the target dimension follows the
    estimate and every other dimension keeps the true dynamics. A divergent
    estimate yields a truncated hybrid trajectory, not an exception.

    Truth and hybrid are each their system's joined_splits: the train split
    followed by the test split, which starts from that system's own train
    end state; the truth is thus the trajectory that test_error scores. Both
    are read-only, the partial trajectory of a failed hybrid included."""
    truth = joined_splits(system, sample_dt, config)
    hybrid_system = replace(system, rhs=_hybrid_rhs(system, expr))
    try:
        hybrid = joined_splits(hybrid_system, sample_dt, config)
        divergence = None
    except IntegrationError as err:
        hybrid = err.partial
        divergence = err.last_time
    return RolloutResult(truth, hybrid, divergence)


def write_rollout_csv(result: RolloutResult, variable_names, path) -> None:
    truth, hybrid = result.truth, result.hybrid
    n = min(len(truth.times), len(hybrid.times))
    names = ("t", *variable_names, *(f"{v}_est" for v in variable_names))
    write_csv(path, names, truth.times[:n], truth.states[:n], hybrid.states[:n])


def run_fit(
    method: str,
    system: SystemSpec,
    seed: int = 0,
    sample_dt: float = 0.1,
    integrator: IntegratorConfig | None = None,
    ga_config: GAConfig | None = None,
    constant_pool: tuple[float, ...] | None = None,
    basis: BasisSet | None = None,
    sparse: STLSQConfig | None = None,
    feynman: FeynmanConfig | None = None,
) -> dict:
    """Fit one method on one system and evaluate it on the test span.

    The seed argument always wins over ga_config.seed so that benchmark
    repetitions vary only the seed; a negative seed is refused for every
    method.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    data = make_dataset(system, sample_dt, "train", integrator)
    names = system.variable_names
    best: CandidateSolution
    warnings: list[str] = []
    pareto = None
    if method == "ga":
        from .ga import default_ga_config, run_ga
        from .genomes import CONSTANT_POOLS, Grammar

        cfg = replace(ga_config or default_ga_config(system.name), seed=seed)
        pool = constant_pool
        if pool is None:
            pool = CONSTANT_POOLS.get(system.name)
        if pool is None:
            raise ValueError(
                f"no constant pool known for system {system.name!r}; provide one"
            )
        grammar = Grammar(variable_count=system.dim, constant_pool=tuple(pool))
        best, _history = run_ga(cfg, data, grammar)
    elif method == "sindy":
        from .sindy import fit as sindy_fit
        from .sindy import preset_basis

        if basis is None:
            preset = SINDY_PRESET_FOR_SYSTEM.get(system.name)
            if preset is None:
                raise ValueError(
                    f"no basis preset for system {system.name!r}; provide one"
                )
            basis = preset_basis(preset)
        res = sindy_fit(basis, data, sparse)
        best = res.candidate
        warnings = list(res.warnings)
    elif method == "feynman":
        from .feynman import pareto_rows, run_pipeline

        best, front = run_pipeline(data, feynman)
        pareto = pareto_rows(front, names)
        warnings = ["DynAIFeynman-lite"]
    else:
        raise ValueError(f"unknown method {method!r}")
    record = {
        "method": method,
        "system": system.name,
        "seed": seed,
        "expression": print_expr(best.expr, names),
        "train_rmse": best.train_rmse,
        "test_error": test_error(best.expr, system, sample_dt, integrator),
        "complexity": best.complexity,
    }
    if pareto is not None:
        record["pareto"] = pareto
    record["warnings"] = warnings
    return record


def run_benchmark(
    methods=None,
    systems=None,
    repetitions: int = 5,
    base_seed: int = 0,
    out_dir=None,
    sample_dt: float = 0.1,
    overrides: Callable[[str, SystemSpec], dict] | None = None,
    resolver=get_system,
) -> list[BenchmarkResult]:
    """Sweep methods over systems, each named at most once (None: all of
    them; an empty sequence is refused). Seeded methods run with seeds
    base_seed..base_seed+repetitions-1, base_seed >= 0; deterministic ones
    run once with a std of 0. Each system is resolved once, so every
    method reads the same trajectories. overrides(method, system) gives a
    pair's extra run_fit keyword arguments (None: none); it is called for
    every pair before the first fit. A run that fails numerically
    (IntegrationError, SamplingError, LinAlgError) or on its configuration
    (ValueError) is recorded and the sweep continues; any other exception
    propagates, that of the earliest such run in sweep order when several
    raise.

    The runs spread over the usable cores (see _outcomes). Every
    trajectory they read is integrated here first, so each integration
    happens once, in this process; the results and files do not depend on
    the number of processes."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    methods = METHODS if methods is None else tuple(methods)
    systems = SYSTEM_NAMES if systems is None else tuple(systems)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    for kind, names in (("method", methods), ("system", systems)):
        if not names:
            raise ValueError(f"no {kind} named; None runs them all")
        twice = [name for name in names if names.count(name) > 1]
        if twice:
            raise ValueError(f"{kind} {twice[0]!r} is named twice")
    resolved = {name: resolver(name) for name in systems}
    pairs = {
        (method, name): {} if overrides is None else overrides(method, resolved[name])
        for method in methods
        for name in systems
    }
    seeds = {
        pair: [base_seed]
        if pair[0] in DETERMINISTIC_METHODS
        else [base_seed + i for i in range(repetitions)]
        for pair in pairs
    }
    for (_, name), kwargs in pairs.items():
        # the train split and the test split continued from it: run_fit's
        # dataset and test_error's trajectory. A failure is not kept, so
        # each run meets it again and records it
        try:
            make_trajectory(resolved[name], "test", sample_dt, kwargs.get("integrator"))
        except _RUN_FAILURES:
            pass

    def fit(pair: tuple[str, str], seed: int) -> dict:
        method, system_name = pair
        start = time.perf_counter()
        try:
            record = run_fit(
                method, resolved[system_name], seed=seed, sample_dt=sample_dt, **pairs[pair]
            )
        except _RUN_FAILURES as err:  # one divergent run must not kill the sweep
            record = {
                "method": method,
                "system": system_name,
                "seed": seed,
                "expression": "",
                "train_rmse": math.inf,
                "test_error": math.inf,
                "complexity": 0,
                "warnings": [f"run failed: {err}"],
            }
        record["wall_time"] = time.perf_counter() - start
        return record

    tasks = [(pair, seed) for pair, pair_seeds in seeds.items() for seed in pair_seeds]
    # the longest searches (brute force, then cart-pole) come last in
    # sweep order, so the runs start from the end
    outcomes = _outcomes(fit, tasks[::-1])[::-1]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    results = []
    records = iter(outcomes)
    for (method, system_name), pair_seeds in seeds.items():
        runs = [next(records) for _ in pair_seeds]
        errors = [r["test_error"] for r in runs]
        with np.errstate(invalid="ignore"):
            mean = float(np.mean(errors))
            std = float(np.std(errors))
        results.append(
            BenchmarkResult(
                method=method,
                system=system_name,
                runs=runs,
                mean_test_error=mean,
                std_test_error=std,
            )
        )
    if out_dir is not None:
        write_benchmark(results, out_dir)
    return results


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return 1


def _outcomes(call: Callable, items: list) -> list:
    """call(*item) for each item, in order: its return value or the
    Exception it raised.

    The items start in order, each in whichever process is free: this one
    and, where more than one core is usable, up to one forked child per
    further core, so no more processes compute than there are cores. A
    pipe holding the index of the next item is the shared counter: a free
    process reads it and writes back the next. Children inherit this
    process's state (its trajectory cache included), send their outcomes
    back by pickle once the items run out, and leave by os._exit, which
    flushes no inherited stdio buffer and runs no atexit handler. An
    exception this process raises kills the children, and every child is
    reaped before return."""
    counter = os.pipe()
    pids: list[int] = []
    reads: list[int] = []  # the read end of each child's outcome pipe

    def work() -> dict:
        done = {}
        while True:
            i = int.from_bytes(os.read(counter[0], 8), "little")
            os.write(counter[1], (i + 1).to_bytes(8, "little"))
            if i >= len(items):
                return done
            try:
                done[i] = call(*items[i])
            except Exception as err:  # raised where the caller reads it
                done[i] = err

    try:
        os.write(counter[1], (0).to_bytes(8, "little"))
        for _ in range(min(_usable_cores(), len(items)) - 1):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, write)
            finally:
                os.close(write)
            pids.append(pid)
        done = work()
        for read in reads:
            with open(read, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                raise RuntimeError("a sweep process ended without sending its outcomes")
            done.update(pickle.loads(payload))
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in (*reads, *counter):
            os.close(fd)
    return [done[i] for i in range(len(items))]


def _child(work: Callable[[], dict], write: int):
    """A forked process's part of _outcomes: work's outcomes, pickled to
    write. An exception that would not come back whole by pickle is sent
    as a RuntimeError naming its type and message; each carries this
    process's traceback as a note."""
    status = 1
    try:
        done = work()
        for i, outcome in done.items():
            if isinstance(outcome, Exception):
                import traceback

                trace = "".join(traceback.format_exception(outcome))
                try:
                    pickle.loads(pickle.dumps(outcome))
                except Exception:
                    outcome = done[i] = RuntimeError(
                        f"{type(outcome).__qualname__}: {outcome}"
                    )
                outcome.add_note(f"raised in a sweep process:\n{trace}")
        with open(write, "wb") as fh:
            fh.write(pickle.dumps(done))
        status = 0
    finally:
        os._exit(status)


def write_benchmark(results, out_dir) -> None:
    """table.csv plus one JSON per run. Wall times stay in memory so the
    files are reproducible byte for byte."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "system", "mean", "std"])
        for res in results:
            writer.writerow(
                [res.method, res.system, repr(res.mean_test_error), repr(res.std_test_error)]
            )
    for res in results:
        for run in res.runs:
            record = {k: v for k, v in run.items() if k != "wall_time"}
            path = out / f"{res.method}_{res.system}_{run['seed']}.json"
            path.write_text(json.dumps(record, indent=2) + "\n")

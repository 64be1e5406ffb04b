"""The benchmark's workloads: inputs made from the seed, the operation list
one workload process runs once, and the checks on every output.

Operations reach the package through its public modules at call time
(`odesr.benchmark.run_fit`, not a name bound here), so a Tracer installed
beforehand sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import odesr

WORKLOADS = ("sweep", "ga", "score")
# --seed n selects GA seed block n mod SEED_BLOCKS; digests.json holds the
# expected output of every block
SEED_BLOCKS = 16
GA_REPS = 5  # GA seeds per system, as in the paper's table
# the ga workload's seeds start here, clear of the sweep's 0..5*SEED_BLOCKS-1
GA_SEED_BASE = 1000
SCORE_DTS = (0.1, 0.05, 0.025)
TRUTH_TOLERANCE = 1e-6  # ground-truth test_error measures <= 8e-18
# a printed expression must reproduce its recorded train RMSE; feynman's
# brute force fits its scalar in closed form, so allow rounding
RMSE_RTOL = 1e-6

# the pendulum as expression strings, integrated through the scalar
# evaluate path instead of the hand-written right-hand side
PENDULUM_EXPR = ("theta2", "-0.1 * theta2 - 9.81 * sin(theta1)")


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload varies with the seed."""
    block = seed % SEED_BLOCKS
    if workload == "sweep":
        return {"base_seed": GA_REPS * block, "repetitions": GA_REPS}
    if workload == "ga":
        first = GA_SEED_BASE + GA_REPS * block
        return {"seeds": list(range(first, first + GA_REPS))}
    if workload == "score":
        return {"sample_dts": list(SCORE_DTS)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Outcome:
    """One checked result. `kind` is fit, eval, artifact, or op for an
    operation that raised."""

    id: str
    kind: str
    digest: str = ""
    error: str | None = None
    method: str | None = None
    seconds: float = 0.0
    test_error: float | None = None


@dataclass
class Operation:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list[Outcome]]


@dataclass
class Report:
    workload: str
    first_op_at: float
    wall_s: float
    peak_rss_mb: float
    outcomes: list[Outcome] = field(default_factory=list)
    layers: dict[str, float] | None = None
    ticks: list[tuple[float, float, float]] | None = None  # calibrate.Clock samples


# ------------------------------------------------------------------ digests


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def record_bytes(record: dict) -> bytes:
    """A run record without wall_time, serialised as write_benchmark does."""
    kept = {k: v for k, v in record.items() if k != "wall_time"}
    return (json.dumps(kept, indent=2) + "\n").encode()


def fit_id(method: str, system: str, seed: int, sample_dt: float) -> str:
    return f"fit/{method}/{system}/seed={seed}/dt={sample_dt}"


# ------------------------------------------------------------------- checks


class Checker:
    """Oracles on fit records; datasets are built once per (system, dt)."""

    def __init__(self):
        self._datasets: dict = {}

    def fit_error(self, record: dict, system, sample_dt: float) -> str | None:
        failed = [w for w in record["warnings"] if w.startswith("run failed")]
        if failed:
            return failed[0]
        expr = odesr.parse_expr(record["expression"], system.variable_names)
        if not math.isfinite(record["test_error"]):
            # a search may pick an expression that leaves its domain on the
            # held-out window (e.g. log of a negative); test_error is then
            # +inf by definition, which is a result, not a failure
            test = odesr.make_trajectory(system, "test", sample_dt)
            pred = odesr.evaluate_batch(expr, test.times[:-1], test.states[:-1])
            if np.all(np.isfinite(pred)):
                return (
                    f"test error {record['test_error']!r} but the expression is "
                    "finite on the test window"
                )
        key = (system.name, sample_dt)
        if key not in self._datasets:
            self._datasets[key] = odesr.make_dataset(system, sample_dt)
        data = self._datasets[key]
        pred = odesr.evaluate_batch(expr, data.times, data.states)
        rmse = math.inf
        if np.all(np.isfinite(pred)):
            with np.errstate(over="ignore"):
                rmse = float(np.sqrt(np.mean((pred - data.targets) ** 2)))
        if not math.isclose(rmse, record["train_rmse"], rel_tol=RMSE_RTOL, abs_tol=1e-12):
            return (
                f"printed expression gives train RMSE {rmse!r}, "
                f"record says {record['train_rmse']!r}"
            )
        return None

    def fit_outcome(
        self, record: dict, system, sample_dt: float, seconds: float, data: bytes
    ) -> Outcome:
        return Outcome(
            id=fit_id(record["method"], record["system"], record["seed"], sample_dt),
            kind="fit",
            digest=_sha(data),
            error=self.fit_error(record, system, sample_dt),
            method=record["method"],
            seconds=seconds,
            test_error=record["test_error"],
        )


def _table_error(table: bytes, results) -> str | None:
    rows = list(csv.reader(table.decode().splitlines()))
    expected = [["method", "system", "mean", "std"]]
    for res in results:
        errors = [run["test_error"] for run in res.runs]
        with np.errstate(invalid="ignore"):
            mean, std = float(np.mean(errors)), float(np.std(errors))
        expected.append([res.method, res.system, repr(mean), repr(std)])
    if rows != expected:
        return "table.csv does not match the per-run test errors"
    return None


# ---------------------------------------------------------------- workloads


def _sweep_ops(inputs: dict, work_dir: Path, checker: Checker) -> list[Operation]:
    bm = importlib.import_module("odesr.benchmark")
    base_seed = inputs["base_seed"]
    systems = {name: odesr.get_system(name) for name in odesr.SYSTEM_NAMES}

    def run():
        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=work_dir))
        try:
            results = bm.run_benchmark(
                repetitions=inputs["repetitions"], base_seed=base_seed, out_dir=out_dir
            )
        except BaseException:
            shutil.rmtree(out_dir)
            raise
        return results, out_dir

    def check(output) -> list[Outcome]:
        results, out_dir = output
        try:
            outcomes = []
            for res in results:
                for record in res.runs:
                    path = out_dir / f"{res.method}_{res.system}_{record['seed']}.json"
                    data = path.read_bytes()
                    outcome = checker.fit_outcome(
                        record, systems[res.system], 0.1, record["wall_time"], data
                    )
                    if outcome.error is None and data != record_bytes(record):
                        outcome.error = f"{path.name} differs from the returned record"
                    outcomes.append(outcome)
            table = (out_dir / "table.csv").read_bytes()
            outcomes.append(
                Outcome(
                    id=f"table/base_seed={base_seed}",
                    kind="artifact",
                    digest=_sha(table),
                    error=_table_error(table, results),
                )
            )
            return outcomes
        finally:
            shutil.rmtree(out_dir)

    return [Operation(f"sweep/base_seed={base_seed}", run, check)]


def _fit_op(checker: Checker, method: str, system, sample_dt: float, **kwargs) -> Operation:
    bm = importlib.import_module("odesr.benchmark")
    seed = kwargs.get("seed", 0)

    def run():
        start = perf_counter()
        record = bm.run_fit(method, system, sample_dt=sample_dt, **kwargs)
        return record, perf_counter() - start

    def check(output) -> list[Outcome]:
        record, fit_seconds = output
        data = record_bytes(record)
        return [checker.fit_outcome(record, system, sample_dt, fit_seconds, data)]

    return Operation(fit_id(method, system.name, seed, sample_dt), run, check)


def _ga_ops(inputs: dict, work_dir: Path, checker: Checker) -> list[Operation]:
    systems = [odesr.get_system(name) for name in odesr.SYSTEM_NAMES]
    return [
        _fit_op(checker, "ga", system, 0.1, seed=seed)
        for system in systems
        for seed in inputs["seeds"]
    ]


def _score_ops(inputs: dict, work_dir: Path, checker: Checker) -> list[Operation]:
    bm = importlib.import_module("odesr.benchmark")
    systems = [odesr.get_system(name) for name in odesr.SYSTEM_NAMES]
    truths = {
        s.name: odesr.parse_expr(odesr.GROUND_TRUTH_EXPRESSIONS[s.name], s.variable_names)
        for s in systems
    }
    pendulum = odesr.get_system("simple_pendulum")
    pendulum_expr = odesr.expression_system(
        "pendulum_expr",
        PENDULUM_EXPR,
        pendulum.initial_state,
        variable_names=pendulum.variable_names,
    )
    pendulum_basis = odesr.preset_basis("pendulum")

    def test_error_op(system, sample_dt) -> Operation:
        op_id = f"test_error/truth/{system.name}/dt={sample_dt}"

        def run():
            start = perf_counter()
            value = bm.test_error(truths[system.name], system, sample_dt)
            return value, perf_counter() - start

        def check(output) -> list[Outcome]:
            value, eval_seconds = output
            error = None
            if not value < TRUTH_TOLERANCE:
                error = f"ground-truth test_error {value!r} >= {TRUTH_TOLERANCE}"
            digest = _sha(repr(value).encode())
            return [Outcome(op_id, "eval", digest, error, seconds=eval_seconds)]

        return Operation(op_id, run, check)

    def rollout_op(system, sample_dt) -> Operation:
        op_id = f"rollout/truth/{system.name}/dt={sample_dt}"

        def run():
            start = perf_counter()
            result = bm.rollout_with_estimate(truths[system.name], system, sample_dt=sample_dt)
            return result, perf_counter() - start

        def check(output) -> list[Outcome]:
            result, eval_seconds = output
            error = None
            if result.divergence_time is not None:
                error = f"ground-truth hybrid rollout diverged at t={result.divergence_time}"
            digest = _sha(
                result.truth.times.tobytes(),
                result.truth.states.tobytes(),
                result.hybrid.times.tobytes(),
                result.hybrid.states.tobytes(),
                repr(result.divergence_time).encode(),
            )
            return [Outcome(op_id, "eval", digest, error, seconds=eval_seconds)]

        return Operation(op_id, run, check)

    ops = []
    for sample_dt in inputs["sample_dts"]:
        for system in systems:
            ops.append(_fit_op(checker, "sindy", system, sample_dt))
            ops.append(test_error_op(system, sample_dt))
            ops.append(rollout_op(system, sample_dt))
        ops.append(_fit_op(checker, "sindy", pendulum_expr, sample_dt, basis=pendulum_basis))
    return ops


_WORKLOAD_OPS = {"sweep": _sweep_ops, "ga": _ga_ops, "score": _score_ops}


def build(workload: str, inputs: dict, work_dir: Path) -> list[Operation]:
    """Set-up: build the systems, expressions and bases the operations use."""
    return _WORKLOAD_OPS[workload](inputs, work_dir, Checker())


def run_workload(
    workload: str, inputs: dict, work_dir: Path, tracer=None, clock=None
) -> Report:
    """Set up, run the operation list once (timed), then check every output
    with tracing already off. A calibrate.Clock, if given, samples before,
    on its timer during, and after the operations; its samples are in
    wall_s but not in the intervals calibrate.scaled adds up."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        ops = build(workload, inputs, work_dir)
        outputs = []
        first_op_at = perf_counter()
        if clock is not None:
            clock.tick()
            clock.start()
        for op in ops:
            if tracer is not None:
                tracer.op = op.id
            try:
                outputs.append(op.run())
            except Exception as err:  # a failing operation is counted, not fatal
                outputs.append(err)
        if clock is not None:
            clock.stop()
            clock.tick()
        wall_s = perf_counter() - first_op_at
    finally:
        if clock is not None:
            clock.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = Report(workload, first_op_at, wall_s, peak_rss_mb)
    if clock is not None:
        report.ticks = clock.ticks
    for op, output in zip(ops, outputs):
        if isinstance(output, Exception):
            report.outcomes.append(Outcome(op.id, "op", error=f"raised {output!r}"))
            continue
        try:
            report.outcomes.extend(op.check(output))
        except Exception as err:
            report.outcomes.append(Outcome(op.id, "op", error=f"check raised {err!r}"))
    if tracer is not None:
        report.layers = tracer.metrics()
    return report

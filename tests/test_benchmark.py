import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest

from odesr.benchmark import (
    GROUND_TRUTH_EXPRESSIONS,
    BenchmarkResult,
    RolloutResult,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    write_rollout_csv,
)
from odesr.benchmark import test_error as held_out_error
from odesr.expressions import Const, Unary, evaluate_batch, parse_expr, print_expr
from odesr.feynman import FeynmanConfig
from odesr.ga import GAConfig
from odesr.integrate import IntegrationError, integrate, make_trajectory
from odesr.sindy import preset_basis
from odesr.systems import expression_system, get_system, lotka_volterra, simple_pendulum

FAST_GA = GAConfig(population_size=10, iterations=5, bitstring_length=20)


def truth_expr(system):
    return parse_expr(GROUND_TRUTH_EXPRESSIONS[system.name], system.variable_names)


# ---------------------------------------------------------------- test error


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_ground_truth_self_error(name):
    system = get_system(name)
    assert held_out_error(truth_expr(system), system) < 1e-8


def test_error_grid_is_the_training_anchors():
    system = lotka_volterra()
    traj = make_trajectory(system, "test", 0.1)
    times, states = traj.times[:-1], traj.states[:-1]
    assert len(times) == 50
    truth = np.array([system.rhs(t, s)[1] for t, s in zip(times, states)])
    expected = float(np.sqrt(np.mean(truth**2)))
    assert held_out_error(Const(0.0), system) == pytest.approx(expected, rel=1e-12)


def test_error_nonfinite_prediction_is_inf():
    system = lotka_volterra()
    assert held_out_error(Unary("log", Const(-1.0)), system) == math.inf


def test_error_invariant_under_reparse():
    system = simple_pendulum()
    expr = truth_expr(system)
    text = print_expr(expr, system.variable_names)
    again = parse_expr(text, system.variable_names)
    assert held_out_error(again, system) == held_out_error(expr, system)


# ------------------------------------------------------------------ rollout


def test_rollout_ground_truth_matches():
    system = lotka_volterra()
    result = rollout_with_estimate(truth_expr(system), system)
    assert result.divergence_time is None
    assert result.hybrid.times.shape == result.truth.times.shape
    assert np.max(np.abs(result.hybrid.states - result.truth.states)) < 1e-6


def test_rollout_zero_estimate_freezes_dimension():
    system = lotka_volterra()
    result = rollout_with_estimate(Const(0.0), system, span=(0.0, 5.0))
    assert result.divergence_time is None
    assert np.all(result.hybrid.states[:, 1] == 1.0)


def test_rollout_divergent_estimate_truncates():
    system = lotka_volterra()
    blowup = parse_expr("1000.0 * y ^ 2.0", system.variable_names)
    result = rollout_with_estimate(blowup, system, span=(0.0, 5.0))
    assert result.divergence_time is not None
    assert result.hybrid.times[-1] < 1.0
    assert len(result.hybrid.times) < len(result.truth.times)


def reference_rollout(expr, system, sample_dt):
    """The hybrid rollout as it was before the estimate was compiled: one
    1-row evaluate_batch call per right-hand-side evaluation."""
    span = (system.train_span[0], system.test_span[1])
    truth = integrate(system.rhs, system.initial_state, span, sample_dt)

    def hybrid_rhs(t, state):
        out = np.array(system.rhs(t, state), dtype=float)
        out[system.target_dim] = evaluate_batch(expr, [t], [state])[0]
        return out

    try:
        hybrid = integrate(hybrid_rhs, system.initial_state, span, sample_dt)
        divergence = None
    except IntegrationError as err:
        hybrid = err.partial
        divergence = err.last_time
    return RolloutResult(truth, hybrid, divergence)


ROLLOUT_CASES = {
    **{name: (name, text) for name, text in GROUND_TRUTH_EXPRESSIONS.items()},
    "diverging": ("lotka_volterra", "exp(exp(y))"),
}


@pytest.mark.parametrize("sample_dt", [0.1, 0.025])
@pytest.mark.parametrize("case", list(ROLLOUT_CASES))
def test_rollout_matches_per_call_reference(case, sample_dt):
    name, text = ROLLOUT_CASES[case]
    system = get_system(name)
    expr = parse_expr(text, system.variable_names)
    got = rollout_with_estimate(expr, system, sample_dt=sample_dt)
    want = reference_rollout(expr, system, sample_dt)
    assert got.divergence_time == want.divergence_time
    assert (got.divergence_time is not None) == (case == "diverging")
    for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()


def test_rollouts_share_the_truth_trajectory(integrate_calls):
    system = lotka_volterra()
    first = rollout_with_estimate(truth_expr(system), system)
    second = rollout_with_estimate(parse_expr("-y", system.variable_names), system)
    # the truth, then each hybrid, once each, all through the integrate module
    assert integrate_calls == [(0.0, 15.0)] * 3
    rollout_with_estimate(parse_expr("-y", system.variable_names), system)
    assert integrate_calls == [(0.0, 15.0)] * 3
    assert second.truth.states.tobytes() == first.truth.states.tobytes()


@pytest.mark.parametrize("case", list(ROLLOUT_CASES))
def test_rollouts_at_two_dts_on_one_system_match_reference(integrate_calls, case):
    name, text = ROLLOUT_CASES[case]
    system = get_system(name)
    expr = parse_expr(text, system.variable_names)
    for sample_dt in (0.1, 0.025):
        got = rollout_with_estimate(expr, system, sample_dt=sample_dt)
        want = reference_rollout(expr, system, sample_dt)
        assert got.divergence_time == want.divergence_time
        for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.states.tobytes() == b.states.tobytes()
    # truth and hybrid are integrated once; a divergent hybrid is not kept
    hybrids = 2 if case == "diverging" else 1
    assert integrate_calls == [(0.0, 15.0)] * (1 + hybrids)


def test_hybrids_key_on_the_printed_estimate_and_target(integrate_calls):
    system = lotka_volterra()
    for value in (0.0, -0.0, 0.0):
        rollout_with_estimate(Const(value), system, span=(0.0, 1.0))
    # Const(0.0) == Const(-0.0), yet they are two estimates
    assert integrate_calls == [(0.0, 1.0)] * 3
    # the same rhs and estimate on another target dimension is another hybrid
    other = dataclasses.replace(system, target_dim=0)
    frozen = rollout_with_estimate(Const(0.0), other, span=(0.0, 1.0))
    assert integrate_calls == [(0.0, 1.0)] * 4
    assert np.all(frozen.hybrid.states[:, 0] == 1.0)


def test_hybrid_is_released_with_the_system():
    system = lotka_volterra()
    states = weakref.ref(rollout_with_estimate(truth_expr(system), system).hybrid.states)
    gc.collect()
    assert states() is not None
    del system
    gc.collect()
    assert states() is None


class _SlotRhs:
    """A right-hand side that cannot be weakly referenced."""

    __slots__ = ("rhs",)

    def __init__(self, rhs):
        self.rhs = rhs

    def __call__(self, t, x):
        return self.rhs(t, x)


def test_rollout_of_an_rhs_without_weak_reference(integrate_calls):
    system = lotka_volterra()
    slotted = dataclasses.replace(system, rhs=_SlotRhs(system.rhs))
    expr = truth_expr(system)
    want = rollout_with_estimate(expr, system, span=(0.0, 2.0))
    for _ in range(2):
        got = rollout_with_estimate(expr, slotted, span=(0.0, 2.0))
        for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
            assert a.states.tobytes() == b.states.tobytes()
    # nothing can be kept for it: each rollout integrates truth and hybrid
    assert integrate_calls == [(0.0, 2.0)] * 6


def test_rollout_csv(tmp_path):
    system = lotka_volterra()
    result = rollout_with_estimate(truth_expr(system), system, span=(0.0, 2.0))
    path = tmp_path / "rollout.csv"
    write_rollout_csv(result, system.variable_names, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,x_est,y_est"
    assert len(lines) == len(result.truth.times) + 1


# ------------------------------------------------------------------ run_fit


def test_run_fit_sindy_record():
    system = lotka_volterra()
    record = run_fit("sindy", system)
    assert list(record) == [
        "method",
        "system",
        "seed",
        "expression",
        "train_rmse",
        "test_error",
        "complexity",
        "warnings",
    ]
    reparsed = parse_expr(record["expression"], system.variable_names)
    assert print_expr(reparsed, system.variable_names) == record["expression"]
    assert record["test_error"] < 1.0


def test_run_fit_feynman_has_pareto():
    system = lotka_volterra()
    record = run_fit("feynman", system, feynman=FeynmanConfig(max_brute_nodes=3))
    assert "pareto" in record
    front = record["pareto"]
    assert all(
        a["complexity"] < b["complexity"] for a, b in zip(front, front[1:])
    )
    assert "DynAIFeynman-lite" in record["warnings"]


def test_run_fit_feynman_reports_a_truncated_search():
    system = lotka_volterra()
    cut = run_fit("feynman", system, feynman=FeynmanConfig(time_budget=0.0))
    assert cut["warnings"] == [
        "DynAIFeynman-lite",
        "brute_force truncated by time_budget",
    ]
    assert run_fit("feynman", system)["warnings"] == ["DynAIFeynman-lite"]


def test_run_fit_ga_seed_overrides_config():
    system = lotka_volterra()
    a = run_fit("ga", system, seed=3, ga_config=FAST_GA)
    b = run_fit("ga", system, seed=3, ga_config=FAST_GA)
    assert a == b
    assert a["seed"] == 3


def test_run_fit_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_fit("annealing", lotka_volterra())


# ---------------------------------------------------------------- benchmark


def test_benchmark_deterministic_method_runs_once():
    results = run_benchmark(["sindy"], ["lotka_volterra"], repetitions=5)
    assert len(results) == 1
    res = results[0]
    assert len(res.runs) == 1
    assert res.std_test_error == 0.0
    assert res.mean_test_error == res.runs[0]["test_error"]
    assert "wall_time" in res.runs[0]


def test_benchmark_seeded_method_repeats():
    overrides = {("ga", "lotka_volterra"): {"ga_config": FAST_GA}}
    results = run_benchmark(
        ["ga"], ["lotka_volterra"], repetitions=3, base_seed=7, overrides=overrides
    )
    runs = results[0].runs
    assert [r["seed"] for r in runs] == [7, 8, 9]
    errors = [r["test_error"] for r in runs]
    assert results[0].mean_test_error == pytest.approx(np.mean(errors), abs=1e-12)
    assert results[0].std_test_error == pytest.approx(np.std(errors), abs=1e-12)


def test_benchmark_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_benchmark(["sindy"], ["lotka_volterra"], repetitions=0)
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark(["gradient"], ["lotka_volterra"])


def test_benchmark_contains_run_failures():
    overrides = {("sindy", "lotka_volterra"): {"basis": object()}}
    results = run_benchmark(["sindy"], ["lotka_volterra"], overrides=overrides)
    run = results[0].runs[0]
    assert run["expression"] == ""
    assert run["test_error"] == math.inf
    assert any("run failed" in w for w in run["warnings"])


def test_benchmark_records_integration_failures():
    def resolver(name):
        return expression_system(name, ["x1 ^ 2.0"], [1.0])

    overrides = {("sindy", "boom"): {"basis": preset_basis("pendulum")}}
    results = run_benchmark(["sindy"], ["boom"], overrides=overrides, resolver=resolver)
    run = results[0].runs[0]
    assert run["expression"] == ""
    assert run["test_error"] == math.inf
    assert any("run failed" in w and "t=" in w for w in run["warnings"])


def test_benchmark_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("not a numerical failure")

    monkeypatch.setattr("odesr.benchmark.run_fit", broken)
    with pytest.raises(KeyError, match="not a numerical failure"):
        run_benchmark(["sindy"], ["lotka_volterra"])


def test_benchmark_files_reproducible(tmp_path):
    overrides = {("ga", "lotka_volterra"): {"ga_config": FAST_GA}}
    kwargs = dict(
        methods=["ga", "sindy"],
        systems=["lotka_volterra"],
        repetitions=2,
        overrides=overrides,
    )
    run_benchmark(out_dir=tmp_path / "a", **kwargs)
    run_benchmark(out_dir=tmp_path / "b", **kwargs)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == [
        "ga_lotka_volterra_0.json",
        "ga_lotka_volterra_1.json",
        "sindy_lotka_volterra_0.json",
        "table.csv",
    ]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    record = json.loads((tmp_path / "a" / "sindy_lotka_volterra_0.json").read_text())
    assert "wall_time" not in record
    table = (tmp_path / "a" / "table.csv").read_text().splitlines()
    assert table[0] == "method,system,mean,std"
    assert len(table) == 3


def test_benchmark_stats_match_stored_runs():
    results = run_benchmark(["sindy"], ["lotka_volterra", "simple_pendulum"])
    for res in results:
        errs = [r["test_error"] for r in res.runs]
        assert abs(res.mean_test_error - np.mean(errs)) < 1e-12
        assert abs(res.std_test_error - np.std(errs)) < 1e-12
        assert isinstance(res, BenchmarkResult)


def test_benchmark_resolves_each_system_once(integrate_calls):
    resolved = []

    def resolver(name):
        resolved.append(name)
        return get_system(name)

    fast = {"feynman": FeynmanConfig(max_brute_nodes=3)}
    names = ("lotka_volterra", "simple_pendulum", "cart_pole")
    results = run_benchmark(
        ["sindy", "feynman"],
        names,
        overrides={("feynman", name): fast for name in names},
        resolver=resolver,
    )
    assert resolved == list(names)
    # train and test once per system, shared by both methods
    assert integrate_calls == [(0.0, 10.0), (10.0, 15.0)] * 3
    assert all(run["expression"] for res in results for run in res.runs)

import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import time
import weakref

import numpy as np
import pytest

from odesr import integrate as integrate_module
from odesr.benchmark import (
    GROUND_TRUTH_EXPRESSIONS,
    BenchmarkResult,
    RolloutResult,
    _hybrid_rhs,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    write_rollout_csv,
)
from odesr.benchmark import test_error as held_out_error
from odesr.cli import main as cli_main
from odesr.expressions import Const, Unary, evaluate_batch, parse_expr, print_expr
from odesr.feynman import FeynmanConfig
from odesr.ga import GAConfig
from odesr.integrate import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate,
    make_trajectory,
)
from odesr.sindy import basis_from_strings, preset_basis
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
    result = rollout_with_estimate(Const(0.0), system)
    assert result.divergence_time is None
    # frozen through the train split and the test split that continues it
    assert result.hybrid.times[-1] == 15.0
    assert np.all(result.hybrid.states[:, 1] == 1.0)


def test_rollout_divergent_estimate_truncates():
    system = lotka_volterra()
    blowup = parse_expr("1000.0 * y ^ 2.0", system.variable_names)
    result = rollout_with_estimate(blowup, system)
    assert result.divergence_time is not None
    assert result.hybrid.times[-1] < 1.0
    assert len(result.hybrid.times) < len(result.truth.times)


def reference_rollout(expr, system, sample_dt):
    """The hybrid rollout with the estimate evaluated by one 1-row
    evaluate_batch call per right-hand-side evaluation, and truth and
    hybrid each integrated over the train span and then over the test span
    from their own train end state, joined at the train end."""

    def hybrid_rhs(t, state):
        out = np.array(system.rhs(t, state), dtype=float)
        out[system.target_dim] = evaluate_batch(expr, [t], [state])[0]
        return out

    def splits(rhs):
        train = integrate(rhs, system.initial_state, system.train_span, sample_dt)
        try:
            test = integrate(rhs, train.states[-1], system.test_span, sample_dt)
            divergence = None
        except IntegrationError as err:
            test, divergence = err.partial, err.last_time
        times = np.concatenate((train.times, test.times[1:]))
        return Trajectory(times, np.concatenate((train.states, test.states[1:]))), divergence

    truth, _ = splits(system.rhs)
    try:
        hybrid, divergence = splits(hybrid_rhs)
    except IntegrationError as err:
        hybrid, divergence = err.partial, err.last_time
    return RolloutResult(truth, hybrid, divergence)


ROLLOUT_CASES = {
    **{name: (name, text) for name, text in GROUND_TRUTH_EXPRESSIONS.items()},
    # diverges in the train span
    "diverging": ("lotka_volterra", "exp(exp(y))"),
    # diverges in the test span, at t = 11.51
    "diverging_late": ("lotka_volterra", "exp(t) * y ^ 2.0 / 100000.0"),
}
# the integrate calls of a rollout's truth, and of a hybrid that reaches the end
SPLITS = [(0.0, 10.0), (10.0, 15.0)]


@pytest.mark.parametrize("sample_dt", [0.1, 0.025])
@pytest.mark.parametrize("case", list(ROLLOUT_CASES))
def test_rollout_matches_per_call_reference(case, sample_dt):
    name, text = ROLLOUT_CASES[case]
    system = get_system(name)
    expr = parse_expr(text, system.variable_names)
    got = rollout_with_estimate(expr, system, sample_dt=sample_dt)
    want = reference_rollout(expr, system, sample_dt)
    assert got.divergence_time == want.divergence_time
    assert (got.divergence_time is not None) == case.startswith("diverging")
    for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()


def test_rollouts_share_the_truth_trajectory(integrate_calls):
    system = lotka_volterra()
    first = rollout_with_estimate(truth_expr(system), system)
    second = rollout_with_estimate(parse_expr("-y", system.variable_names), system)
    # the truth's splits, then each hybrid's, once each, all through the
    # integrate module
    assert integrate_calls == SPLITS * 3
    rollout_with_estimate(parse_expr("-y", system.variable_names), system)
    assert integrate_calls == SPLITS * 3
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
    # truth and hybrid splits are integrated once; a split that fails is
    # not kept
    hybrid = {
        "diverging": [SPLITS[0]] * 2,
        "diverging_late": [SPLITS[0]] + [SPLITS[1]] * 2,
    }.get(case, SPLITS)
    assert integrate_calls == SPLITS + hybrid


def test_hybrids_key_on_the_printed_estimate_and_target(integrate_calls):
    system = lotka_volterra()
    for value in (0.0, -0.0, 0.0):
        rollout_with_estimate(Const(value), system)
    # the truth's splits, then the hybrids'; Const(0.0) == Const(-0.0), yet
    # they are two estimates
    assert integrate_calls == SPLITS * 3
    # the same rhs and estimate on another target dimension is another hybrid
    other = dataclasses.replace(system, target_dim=0)
    frozen = rollout_with_estimate(Const(0.0), other)
    assert integrate_calls == SPLITS * 4
    assert np.all(frozen.hybrid.states[:, 0] == 1.0)


def test_hybrid_is_released_with_the_system(monkeypatch):
    # the rollout's arrays are joined afresh on each call; the split
    # trajectories they are read from are the ones kept
    kept = []
    original = integrate_module.integrate

    def watched(*args):
        traj = original(*args)
        kept.append(weakref.ref(traj.states))
        return traj

    monkeypatch.setattr(integrate_module, "integrate", watched)
    system = lotka_volterra()
    rollout_with_estimate(truth_expr(system), system)
    rollout_with_estimate(truth_expr(system), system, sample_dt=0.05)
    gc.collect()
    # the truth's splits and the hybrid's, kept for the second rollout
    assert len(kept) == 4
    assert all(states() is not None for states in kept)
    del system
    gc.collect()
    assert all(states() is None for states in kept)


@pytest.mark.parametrize("sample_dt", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_ground_truth_hybrid_equals_the_truth(name, sample_dt):
    system = get_system(name)
    result = rollout_with_estimate(truth_expr(system), system, sample_dt=sample_dt)
    assert result.divergence_time is None
    assert result.hybrid.times.tobytes() == result.truth.times.tobytes()
    if name == "cart_pole":
        # the estimate groups the true rhs's operations another way
        assert np.max(np.abs(result.hybrid.states - result.truth.states)) < 1e-12
    else:
        assert result.hybrid.states.tobytes() == result.truth.states.tobytes()


def read_only_output(rhs):
    """rhs, returning its array made read-only."""

    def frozen(t, x):
        out = rhs(t, x)
        out.flags.writeable = False
        return out

    return frozen


def one_output_buffer(rhs, n):
    """rhs, returning one array of length n that it overwrites on every
    call, after checking that no one wrote it since the last call."""
    out, written = np.empty(n), []

    def reused(t, x):
        if written:
            assert out.tobytes() == written.pop()
        out[:] = rhs(t, x)
        written.append(out.tobytes())
        return out

    return reused


@pytest.mark.parametrize("output", ["read_only", "one_buffer"])
@pytest.mark.parametrize("case", list(ROLLOUT_CASES))
def test_hybrid_never_writes_the_true_rhs_output(case, output):
    name, text = ROLLOUT_CASES[case]
    system = get_system(name)
    wrap = {
        "read_only": read_only_output,
        "one_buffer": lambda rhs: one_output_buffer(rhs, system.dim),
    }[output]
    wrapped = dataclasses.replace(system, rhs=wrap(system.rhs))
    expr = parse_expr(text, system.variable_names)
    got = rollout_with_estimate(expr, wrapped)
    for want in (rollout_with_estimate(expr, system), reference_rollout(expr, system, 0.1)):
        assert got.divergence_time == want.divergence_time
        for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.states.tobytes() == b.states.tobytes()


def test_hybrid_diverging_in_the_test_split_keeps_the_train_split():
    system = lotka_volterra()
    estimate = parse_expr("exp(t) * y ^ 2.0 / 100000.0", system.variable_names)
    result = rollout_with_estimate(estimate, system)
    assert 10.0 < result.divergence_time < 15.0
    hybrid_system = dataclasses.replace(system, rhs=_hybrid_rhs(system, estimate))
    train = make_trajectory(hybrid_system, "train", 0.1)
    with pytest.raises(IntegrationError) as error:
        make_trajectory(hybrid_system, "test", 0.1)
    assert result.divergence_time == error.value.last_time
    test = error.value.partial
    assert 1 < len(test.times) < len(result.truth.times) - len(train.times) + 1
    assert result.hybrid.times.tobytes() == np.concatenate((train.times, test.times[1:])).tobytes()
    assert result.hybrid.states.tobytes() == np.concatenate((train.states, test.states[1:])).tobytes()
    assert result.hybrid.times.tobytes() == result.truth.times[: len(test.times) + 100].tobytes()
    assert not result.hybrid.states.flags.writeable


def test_hybrid_diverging_in_the_train_split_is_read_only():
    system = lotka_volterra()
    estimate = parse_expr("-(y * (3.0 - x)) + exp(t - 10.0) * y ^ 2.0", system.variable_names)
    result = rollout_with_estimate(estimate, system)
    assert 9.0 < result.divergence_time < 10.0
    assert not result.hybrid.times.flags.writeable
    assert not result.hybrid.states.flags.writeable


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
    want = rollout_with_estimate(expr, system)
    assert integrate_calls == SPLITS * 2
    for _ in range(2):
        got = rollout_with_estimate(expr, slotted)
        for a, b in ((got.truth, want.truth), (got.hybrid, want.hybrid)):
            assert a.states.tobytes() == b.states.tobytes()
    # nothing can be kept for its truth, so each rollout integrates its train
    # and test splits once each; each rollout also builds a new hybrid,
    # whose splits are integrated once
    assert integrate_calls == SPLITS * 2 + (SPLITS + SPLITS) * 2


def test_rollout_csv(tmp_path):
    system = lotka_volterra()
    result = rollout_with_estimate(truth_expr(system), system)
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


def test_run_fit_feynman_default_run_warns_only_that_it_is_the_lite_pipeline():
    # max_brute_nodes is the search's only bound: no run is cut short
    assert run_fit("feynman", lotka_volterra())["warnings"] == ["DynAIFeynman-lite"]


def test_run_fit_ga_seed_overrides_config():
    system = lotka_volterra()
    a = run_fit("ga", system, seed=3, ga_config=FAST_GA)
    b = run_fit("ga", system, seed=3, ga_config=FAST_GA)
    assert a == b
    assert a["seed"] == 3


def test_run_fit_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_fit("annealing", lotka_volterra())


@pytest.mark.parametrize(
    "method, message",
    [
        ("ga", "no constant pool known for system 'decay'; provide one"),
        ("sindy", "no basis preset for system 'decay'; provide one"),
    ],
)
def test_run_fit_on_a_custom_system_needs_a_pool_or_basis(method, message):
    decay = expression_system("decay", ["-0.5 * x1"], [2.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_fit(method, decay, ga_config=FAST_GA)
    given = {
        "ga": {"constant_pool": (-0.5,)},
        "sindy": {"basis": basis_from_strings(["x1"], ["x1"])},
    }
    record = run_fit(method, decay, ga_config=FAST_GA, **given[method])
    assert record["system"] == "decay"
    assert record["test_error"] < 1.0


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
    results = run_benchmark(
        ["ga"],
        ["lotka_volterra"],
        repetitions=3,
        base_seed=7,
        overrides=lambda method, system: {"ga_config": FAST_GA},
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


def no_fit(*args, **kwargs):
    raise AssertionError("a fit started")


@pytest.mark.parametrize(
    "methods, systems, message",
    [
        (["sindy", "sindy"], ["lotka_volterra"], "method 'sindy' is named twice"),
        (["sindy"], ["cart_pole", "lotka_volterra", "cart_pole"],
         "system 'cart_pole' is named twice"),
    ],
    ids=["method", "system"],
)
def test_benchmark_refuses_a_name_given_twice(tmp_path, monkeypatch, methods, systems, message):
    # the duplicate used to fit again and write a second identical table row
    monkeypatch.setattr("odesr.benchmark.run_fit", no_fit)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(methods, systems, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"methods": ["ga"], "systems": ["lotka_volterra"], "base_seed": -1},
         "base_seed must be >= 0, got -1"),
        ({"methods": [], "systems": ["lotka_volterra"]}, "no method named; None runs them all"),
        ({"methods": ["sindy"], "systems": ()}, "no system named; None runs them all"),
    ],
    ids=["negative seed", "no methods", "no systems"],
)
def test_benchmark_refuses_sweep_arguments_before_the_first_fit(
    tmp_path, monkeypatch, kwargs, message
):
    # a negative seed was recorded as a failed run in each GA row; an empty
    # sequence ran every method or system
    monkeypatch.setattr("odesr.benchmark.run_fit", no_fit)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(out_dir=tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sample_dt, train_span, message",
    [
        (0.0, (0.0, 10.0), "sample_dt must be positive and finite"),
        (math.nan, (0.0, 10.0), "sample_dt must be positive and finite"),
        (-0.1, (0.0, 10.0), "sample_dt must be positive and finite"),
        (0.1, (0.0, 1.05), "span (0.0, 1.05) is not an integer multiple of sample_dt=0.1"),
    ],
    ids=["zero", "nan", "negative", "span not a multiple"],
)
def test_benchmark_refuses_a_sample_dt_it_cannot_sample_at_before_the_first_fit(
    tmp_path, monkeypatch, sample_dt, train_span, message
):
    # each used to be recorded as a failed run in every row of the table
    def resolver(name):
        return expression_system(name, ["-0.5 * x1"], [1.0], train_span=train_span)

    monkeypatch.setattr("odesr.benchmark.run_fit", no_fit)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_benchmark(
            ["sindy"], ["decay"], out_dir=tmp_path / "out", sample_dt=sample_dt, resolver=resolver
        )
    assert not (tmp_path / "out").exists()


def test_benchmark_reads_every_override_before_the_first_fit(monkeypatch):
    monkeypatch.setattr("odesr.benchmark.run_fit", no_fit)
    pairs = []

    def overrides(method, system):
        pairs.append((method, system.name))
        if len(pairs) == 4:
            raise ValueError("bad entry")
        return {}

    with pytest.raises(ValueError, match="^bad entry$"):
        run_benchmark(["ga", "sindy"], ["lotka_volterra", "cart_pole"], overrides=overrides)
    assert pairs == [
        ("ga", "lotka_volterra"),
        ("ga", "cart_pole"),
        ("sindy", "lotka_volterra"),
        ("sindy", "cart_pole"),
    ]


def test_benchmark_contains_run_failures():
    results = run_benchmark(
        ["sindy"], ["lotka_volterra"], overrides=lambda method, system: {"basis": object()}
    )
    run = results[0].runs[0]
    assert run["expression"] == ""
    assert run["test_error"] == math.inf
    assert any("run failed" in w for w in run["warnings"])


def test_benchmark_records_ga_sampling_failures():
    # one bit cannot encode an expression, so random_genome runs out of attempts
    results = run_benchmark(
        ["ga"],
        ["lotka_volterra"],
        repetitions=1,
        overrides=lambda method, system: {"ga_config": GAConfig(bitstring_length=1)},
    )
    [run] = results[0].runs
    assert run["expression"] == ""
    assert run["test_error"] == math.inf
    assert run["warnings"] == [
        "run failed: no valid genome in 10000 attempts (k=2, pool size 4, length 1)"
    ]


def test_benchmark_records_integration_failures():
    def resolver(name):
        return expression_system(name, ["x1 ^ 2.0"], [1.0])

    results = run_benchmark(
        ["sindy"],
        ["boom"],
        overrides=lambda method, system: {"basis": preset_basis("pendulum")},
        resolver=resolver,
    )
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
    kwargs = dict(
        methods=["ga", "sindy"],
        systems=["lotka_volterra"],
        repetitions=2,
        overrides=lambda method, system: {"ga_config": FAST_GA} if method == "ga" else {},
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


# sha256 of every file the default sweep writes (base seed 0, 5 repetitions).
# A speedup leaves these bytes as they are; a change of results is declared
# as one and re-records them.
SWEEP_DIGESTS = {
    "feynman_cart_pole_0.json": "e1c7fd72d9525a777fe6ebb5fe3a8f76112694fbbe51b441123e33e7f17e70f0",
    "feynman_lotka_volterra_0.json": "1a5465e5c3db850ff496a466a6c733f379178eee7c31058daa2bb2189af960db",
    "feynman_simple_pendulum_0.json": "128a44ec2caba46028240e0b586392a3861c519f856cc67ae909956719eaaa94",
    "ga_cart_pole_0.json": "1e97e7f300f2b6b16a1cb152ae03c9714eb9ed4838aa4885f1a24b89c88fedef",
    "ga_cart_pole_1.json": "b15d5e4ec88a10237bf230f6443c88fb84de89c8f04287a253458d31caf2c5fe",
    "ga_cart_pole_2.json": "6b4d36c6e62792e02e0a9a26937126a6e0ae99ac1f095150097f0cd0de0e79c6",
    "ga_cart_pole_3.json": "56bdcef644f3d3805f013b83ae4c1601d5a9167d6107eccdb2a1a3f210d2a9c6",
    "ga_cart_pole_4.json": "a72434ad1cdec6f7725f97b0ed8d27e0a88101ee4fb68c23da68f256f77a0f84",
    "ga_lotka_volterra_0.json": "3d76d39c3de5761fb46178929a69117e1e08abf175ed60033dfd4cee7d6ee379",
    "ga_lotka_volterra_1.json": "a63d48b3643145678144577783b945952f3f4b4708b32cb4b225948f84bfb493",
    "ga_lotka_volterra_2.json": "4f4b3c5ae0e6e5b44df25bb4f882b8ccb794b9591df0dbe6146bb08f2c588838",
    "ga_lotka_volterra_3.json": "a8f4d5523de6ec7c10351cb4d6137c0dd7e958447881f28cec28e50283446d8f",
    "ga_lotka_volterra_4.json": "2b97610c53fac514521a2b4771b1bf88e2ea99fc36e787e6b12eef26efaca652",
    "ga_simple_pendulum_0.json": "861e5e9611d8cf65db41a62de2ab5d7eb6734ce67ca560a77abbba77cf5aae0a",
    "ga_simple_pendulum_1.json": "d1c7bdd8c465e029030bc88c85907a9964c2ee528acb8864b7e91b41050d528a",
    "ga_simple_pendulum_2.json": "509a16297cc3974bb972598f67e2867087e9f7e06d01d5962364fa23e385cac2",
    "ga_simple_pendulum_3.json": "8333a3b0c2e1761f572ee2fcb9b78254ba54037cd07f21103446903157d9b604",
    "ga_simple_pendulum_4.json": "767c3b09ae7351e464b63eb3273b2bdcc2ccaac79d22802005df1ef1584da719",
    "sindy_cart_pole_0.json": "cee2e05b7b6a4e4ddce31529e08c40702df7dbabfee7dc70805588005226e2ba",
    "sindy_lotka_volterra_0.json": "d3b4c9c0cda5c9f6486e013c40656062fb1a50cf6f5216141837e34b47b256cc",
    "sindy_simple_pendulum_0.json": "c397ab345734224db8629d46c81a039d07346bc4a412cda7e0e5eef97bdbde9b",
    "table.csv": "6b97b11609d706d62df595a74ce278b15001a48217234093288d9ee21d5397c5",
}


def test_default_sweep_files_match_recorded_digests(tmp_path):
    run_benchmark(repetitions=5, base_seed=0, out_dir=tmp_path)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == SWEEP_DIGESTS


def test_bench_command_writes_the_default_sweep_files(tmp_path, capsys):
    # `odesr bench --out <dir>` is the command that reproduces the table
    assert cli_main(["bench", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == SWEEP_DIGESTS


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

    def fast(method, system):
        return {"feynman": FeynmanConfig(max_brute_nodes=3)} if method == "feynman" else {}

    names = ("lotka_volterra", "simple_pendulum", "cart_pole")
    results = run_benchmark(["sindy", "feynman"], names, overrides=fast, resolver=resolver)
    assert resolved == list(names)
    # train and test once per system, shared by both methods
    assert integrate_calls == [(0.0, 10.0), (10.0, 15.0)] * 3
    assert all(run["expression"] for res in results for run in res.runs)


def test_benchmark_reads_each_system_once_with_the_integrator_it_is_given(integrate_calls):
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-8)

    def fast(method, system):
        return {"feynman": FeynmanConfig(max_brute_nodes=3)} if method == "feynman" else {}

    names = ("lotka_volterra", "simple_pendulum", "cart_pole")
    results = run_benchmark(["sindy", "feynman"], names, integrator=cfg, overrides=fast)
    # train and test once per system, shared by both methods
    assert integrate_calls == [(0.0, 10.0), (10.0, 15.0)] * 3
    # and the runs are those of that integrator, not of the default one
    for res in results[:3]:
        [run] = res.runs
        del run["wall_time"]
        system = get_system(res.system)
        assert run == run_fit("sindy", system, integrator=cfg)
        assert run != run_fit("sindy", system)


def test_an_override_that_sets_the_integrator_raises():
    # the integrator is the sweep's argument; a pair's override gives search settings only
    with pytest.raises(TypeError, match="got multiple values for keyword argument 'integrator'"):
        run_benchmark(
            ["sindy"], ["lotka_volterra"], overrides=lambda m, s: {"integrator": IntegratorConfig()}
        )


# ------------------------------------------------------- runs in processes


def with_cores(monkeypatch, count):
    """run_benchmark as it runs on a host with count usable cores."""
    monkeypatch.setattr("odesr.benchmark._usable_cores", lambda: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_records_and_files_do_not_depend_on_the_process_count(
    tmp_path, monkeypatch, capfd
):
    def fast(method, system):
        return {
            "ga": {"ga_config": FAST_GA},
            "feynman": {"feynman": FeynmanConfig(max_brute_nodes=3)},
        }.get(method, {})

    swept = {}
    for count in (1, 2, 3):
        with_cores(monkeypatch, count)
        out = tmp_path / str(count)
        results = run_benchmark(
            systems=["lotka_volterra", "simple_pendulum"], repetitions=3, out_dir=out,
            overrides=fast,
        )
        assert_no_child_left()
        for res in results:
            for run in res.runs:
                assert run.pop("wall_time") >= 0.0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        swept[count] = (results, files)
    assert [(r.method, r.system, [run["seed"] for run in r.runs]) for r in swept[1][0]] == [
        (method, system, seeds)
        for method, seeds in (("ga", [0, 1, 2]), ("sindy", [0]), ("feynman", [0]))
        for system in ("lotka_volterra", "simple_pendulum")
    ]
    assert swept[2] == swept[1]
    assert swept[3] == swept[1]
    assert len(swept[1][1]) == 11
    assert capfd.readouterr() == ("", "")


def test_a_sweep_on_one_core_or_of_one_run_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    with_cores(monkeypatch, 1)
    run_benchmark(["sindy", "feynman"], ["simple_pendulum"],
                  overrides=lambda m, s: {"feynman": FeynmanConfig(max_brute_nodes=3)})
    with_cores(monkeypatch, 3)
    [result] = run_benchmark(["sindy"], ["lotka_volterra"])
    assert result.runs[0]["expression"]


def named_failure(method, system, seed, **kwargs):
    time.sleep(0.01)
    raise KeyError(f"{method} {system.name} {seed}")


@pytest.mark.parametrize("count", [1, 2, 3])
def test_the_earliest_failing_run_in_sweep_order_raises(monkeypatch, capfd, count):
    with_cores(monkeypatch, count)
    monkeypatch.setattr("odesr.benchmark.run_fit", named_failure)
    with pytest.raises(KeyError) as err:
        run_benchmark(["ga", "sindy"], ["lotka_volterra", "simple_pendulum"], repetitions=3)
    assert err.value.args == ("ga lotka_volterra 0",)
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("count", [2, 3])
def test_an_error_raised_in_a_child_reaches_the_caller(monkeypatch, capfd, count):
    """Runs fail in children only, so the error raised is that of the
    earliest run a child made, and every earlier run was this process's."""
    parent, in_parent = os.getpid(), []

    def fit(method, system, seed, **kwargs):
        time.sleep(0.02)
        if os.getpid() == parent:
            in_parent.append(seed)
            return {"test_error": 0.0}
        raise KeyError(f"seed {seed}")

    with_cores(monkeypatch, count)
    monkeypatch.setattr("odesr.benchmark.run_fit", fit)
    with pytest.raises(KeyError) as err:
        run_benchmark(["ga"], ["lotka_volterra"], repetitions=8)
    [message] = err.value.args
    seed = int(message.removeprefix("seed "))
    assert seed not in in_parent
    assert set(range(seed)) <= set(in_parent)
    [note] = err.value.__notes__
    assert note.startswith("raised in a sweep process:\nTraceback")
    assert "KeyError: 'seed" in note
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_an_error_that_does_not_pickle_comes_back_named(monkeypatch):
    class Local(Exception):  # pickle cannot find a class defined in a function
        pass

    parent = os.getpid()

    def fit(method, system, seed, **kwargs):
        time.sleep(0.02)
        if os.getpid() == parent:
            return {"test_error": 0.0}
        raise Local("not sent as is")

    with_cores(monkeypatch, 2)
    monkeypatch.setattr("odesr.benchmark.run_fit", fit)
    with pytest.raises(RuntimeError) as err:
        run_benchmark(["ga"], ["lotka_volterra"], repetitions=8)
    assert err.value.args == (f"{Local.__qualname__}: not sent as is",)
    assert_no_child_left()


def test_an_exception_in_this_process_kills_the_children(monkeypatch):
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def fit(method, system, seed, **kwargs):
        if os.getpid() == parent:
            raise Stop
        time.sleep(60)

    with_cores(monkeypatch, 3)
    monkeypatch.setattr("odesr.benchmark.run_fit", fit)
    start = time.perf_counter()
    with pytest.raises(Stop):
        run_benchmark(["ga"], ["lotka_volterra"], repetitions=5)
    assert time.perf_counter() - start < 30
    assert_no_child_left()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odesr import sindy
from odesr.candidates import fitness
from odesr.expressions import Const, evaluate_batch, parse_expr, print_expr
from odesr.integrate import RegressionDataset, make_dataset, make_trajectory
from odesr.sindy import (
    BasisFunction,
    BasisSet,
    STLSQConfig,
    basis_from_strings,
    build_design_matrix,
    fit,
    preset_basis,
    stlsq,
)
from odesr.systems import simple_pendulum


def exact_dataset(system, split="train"):
    """Dataset with true derivatives in place of finite differences."""
    traj = make_trajectory(system, split, 0.1)
    states, times = traj.states[:-1], traj.times[:-1]
    targets = np.array(
        [system.rhs(t, s)[system.target_dim] for t, s in zip(times, states)]
    )
    return RegressionDataset(times, states, targets, 0.1, system.target_dim)


# ------------------------------------------------------------------- presets


def test_preset_sizes_and_names():
    pend = preset_basis("pendulum")
    lv = preset_basis("lotka_volterra")
    cp = preset_basis("cartpole")
    assert len(pend.functions) == 8
    assert len(lv.functions) == 9
    assert len(cp.functions) == 27
    assert [f.name for f in lv.functions] == [f"f{i}" for i in range(1, 10)]
    with pytest.raises(KeyError):
        preset_basis("lorenz")


def test_preset_is_parsed_once():
    # a BasisSet is immutable, so every fit may share one parse
    assert preset_basis("cartpole") is preset_basis("cartpole")
    assert preset_basis("pendulum") is not preset_basis("lotka_volterra")


def test_lv_design_row_at_ones():
    lv = preset_basis("lotka_volterra")
    data = RegressionDataset(
        np.array([0.3]), np.array([[1.0, 1.0]]), np.array([0.0]), 0.1, 1
    )
    row = build_design_matrix(lv, data)[0]
    s1, c1 = math.sin(1.0), math.cos(1.0)
    assert row == pytest.approx([1, 1, 1, s1, s1, c1, c1, 1, 0.5], abs=1e-12)


def test_cartpole_f27_is_transcribed():
    cp = preset_basis("cartpole")
    f27 = cp.functions[26]
    t, state = 0.37, np.array([0.5, 0.0, 1.2, -0.4])
    force = -0.2 + 0.5 * math.sin(6.0 * t)
    w, y = state[0], state[2]
    want = (
        -1.0
        * (math.cos(w) * force + 19.62 * math.sin(w) + math.cos(w) * math.sin(w) * y**2)
        / (2.0 - math.cos(w) ** 2)
    )
    got = evaluate_batch(f27.expr, np.array([t]), state.reshape(1, -1))[0]
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "make, field, values",
    [
        (lambda v: STLSQConfig(threshold=v), "threshold", (0.0, -1.0, math.nan, math.inf)),
    ],
    ids=["stlsq threshold"],
)
def test_config_validation(make, field, values):
    # NaN compares false both ways: a NaN threshold used to fit the model 0.0,
    # and an infinite one thresholded every weight away
    for bad in values:
        with pytest.raises(ValueError, match=field):
            make(bad)


def test_basis_from_strings():
    basis = basis_from_strings(["x", "x*y", "1.0"], ("x", "y"))
    assert [f.name for f in basis.functions] == ["f1", "f2", "f3"]
    with pytest.raises(ValueError):
        BasisSet((BasisFunction("a", Const(1.0)), BasisFunction("a", Const(2.0))))
    with pytest.raises(ValueError):
        BasisSet(())


# ------------------------------------------------------------- design matrix


def test_constant_column():
    basis = basis_from_strings(["1.0"], ("x",))
    data = RegressionDataset(
        np.linspace(0, 1, 7), np.random.default_rng(0).normal(size=(7, 1)),
        np.zeros(7), 0.1, 0,
    )
    assert np.all(build_design_matrix(basis, data) == 1.0)


def test_domain_violation_names_function():
    basis = basis_from_strings(["log(x)"], ("x",))
    data = RegressionDataset(
        np.zeros(3), np.array([[1.0], [-2.0], [3.0]]), np.zeros(3), 0.1, 0
    )
    with pytest.raises(ValueError, match="f1.*sample 1"):
        build_design_matrix(basis, data)


# --------------------------------------------------------------------- stlsq


def synthetic_system(seed=0, n=100):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 2))
    noise = rng.normal(size=(n, 3))
    # make the noise columns orthogonal to the signal columns
    q, _ = np.linalg.qr(np.hstack([base, noise]))
    a = np.hstack([base, q[:, 2:5]])
    b = -3.0 * a[:, 0] + 1.0 * a[:, 1]
    return a, b


def test_stlsq_recovers_planted_support():
    a, b = synthetic_system()
    weights, warnings = stlsq(a, b, 0.1)
    assert weights == pytest.approx([-3.0, 1.0, 0, 0, 0], abs=1e-8)
    assert warnings == ()


def test_stlsq_zero_target():
    a, _ = synthetic_system()
    weights, _ = stlsq(a, np.zeros(a.shape[0]), 0.05)
    assert np.all(weights == 0.0)


def test_stlsq_threshold_kills_everything():
    a, b = synthetic_system()
    weights, _ = stlsq(a, b, 10.0)
    assert np.all(weights == 0.0)


def test_stlsq_support_is_fixed_point():
    a, b = synthetic_system(3)
    weights, _ = stlsq(a, b, 0.1)
    support = weights != 0
    again, _ = np.linalg.lstsq(a[:, support], b, rcond=None)[:2]
    assert np.all(np.abs(again) >= 0.1)
    assert again == pytest.approx(weights[support], abs=1e-10)


def test_stlsq_rank_deficient_uses_ridge():
    a, b = synthetic_system()
    dup = np.hstack([a, a[:, :1]])  # exact duplicate column
    weights, warnings = stlsq(dup, b, 0.1)
    assert "rank_deficient" in warnings
    pred = dup @ weights
    assert pred == pytest.approx(b, abs=1e-6)
    assert weights[-1] == 0.0  # the later copy is the dependent one


def test_stlsq_fewer_samples_than_columns_fits_first_columns():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    weights, warnings = stlsq(a, b, 1e-6)
    expected = np.linalg.solve(a[:, :4], b)
    assert "rank_deficient" in warnings
    assert weights[:4] == pytest.approx(expected, abs=1e-10)
    assert np.all(weights[4:] == 0.0)
    assert a @ weights == pytest.approx(b, abs=1e-10)


def capped_stlsq(a, b, threshold, max_iterations):
    """STLSQ as it was with an iteration cap, kept as the reference for
    the loop that runs until its active set stops shrinking."""
    p = a.shape[1]
    warnings: list[str] = []
    active = np.ones(p, dtype=bool)
    w = np.zeros(p)
    for _ in range(max_iterations):
        if not active.any():
            break
        sol, deficient = sindy._lstsq_independent(a[:, active], b)
        if deficient and "rank_deficient" not in warnings:
            warnings.append("rank_deficient")
        w = np.zeros(p)
        w[active] = sol
        keep = np.abs(w) >= threshold
        w[~keep] = 0.0
        if np.array_equal(keep, active):
            break
        active = keep
    else:
        warnings.append("stlsq_no_convergence")
    return w, tuple(warnings)


def shrinking_chain(p, threshold, q):
    """A design on which each STLSQ solve drops only its last column, so
    the loop takes p solves. Column j (from 1) is (e_j + e_{j+1}) / (q
    threshold (j + 1)) and b = e_1. On the first m columns least squares
    gives column j a weight of magnitude q threshold (m - j + 1)(j + 1) /
    (m + 1): q threshold, below the threshold, for j = m, and at least the
    threshold for every j < m when 3/4 <= q < 1."""
    scale = 1.0 / (q * threshold * np.arange(2, p + 2))
    a = np.zeros((p + 1, p))
    a[np.arange(p), np.arange(p)] = scale
    a[np.arange(1, p + 1), np.arange(p)] = scale
    b = np.zeros(p + 1)
    b[0] = 1.0
    return a, b


@st.composite
def stlsq_designs(draw):
    """(a, b, threshold) of 1 to 80 columns: random (with fewer samples than
    columns, correlated or duplicated columns among them) or a shrinking
    chain."""
    p = draw(st.integers(1, 80))
    threshold = draw(st.floats(1e-3, 10.0))
    kind = draw(st.sampled_from(["random", "correlated", "duplicated", "chain"]))
    if kind == "chain":
        a, b = shrinking_chain(p, threshold, draw(st.floats(0.8, 0.95)))
        return a, b, threshold
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    a = rng.standard_normal((n, p))
    if kind == "correlated":
        a = a @ (np.eye(p) + rng.random() * rng.standard_normal((p, p)))
    elif kind == "duplicated":
        a[:, p // 2:] = 2.0 * a[:, : p - p // 2]
    magnitudes = np.exp(rng.uniform(-6.0, 2.0, size=p)) * rng.choice([-1.0, 1.0], size=p)
    b = a @ magnitudes + rng.uniform(0.0, 1.0) * rng.standard_normal(n)
    return a, b, threshold


@settings(max_examples=300, deadline=None)
@given(stlsq_designs())
def test_stlsq_stops_when_its_active_set_does(design):
    # the old 50-solve cap was reachable: a chain of more columns needs a
    # solve per column, and the uncapped loop matches the capped one given
    # a cap it cannot reach
    a, b, threshold = design
    p = a.shape[1]
    supports: list[list[int]] = []

    def recording(sub, target):
        # a[:, active] keeps the order of a, so each column is the next
        # equal one of a
        left = iter(range(p))
        supports.append([next(j for j in left if np.array_equal(a[:, j], col)) for col in sub.T])
        return solve(sub, target)

    solve = sindy._lstsq_independent
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sindy, "_lstsq_independent", recording)
        weights, warnings = stlsq(a, b, threshold)
    assert 1 <= len(supports) <= p
    assert supports[0] == list(range(p))
    for before, after in zip(supports, supports[1:]):
        assert set(after) < set(before)
    expected_weights, expected_warnings = capped_stlsq(a, b, threshold, p + 1)
    assert weights.tobytes() == expected_weights.tobytes()
    assert warnings == expected_warnings


@pytest.mark.parametrize("p", [51, 80])
def test_stlsq_outlasts_the_old_cap(p):
    # the chain drops one column a solve until none is left
    a, b = shrinking_chain(p, 0.05, 0.9)
    weights, warnings = stlsq(a, b, 0.05)
    assert not weights.any()
    assert warnings == ()
    assert capped_stlsq(a, b, 0.05, 50)[1] == ("stlsq_no_convergence",)


# ----------------------------------------------------------------------- fit


def test_fit_pendulum_exact_derivatives():
    result = fit(preset_basis("pendulum"), exact_dataset(simple_pendulum()),
                 STLSQConfig())
    w = result.weights
    expected = np.zeros(8)
    expected[1] = -0.1   # theta2
    expected[2] = -9.81  # sin(theta1)
    assert w == pytest.approx(expected, abs=1e-6)
    assert result.warnings == ()


def test_fit_expression_matches_matrix_product():
    data = exact_dataset(simple_pendulum())
    basis = preset_basis("pendulum")
    result = fit(basis, data, STLSQConfig())
    a = build_design_matrix(basis, data)
    via_matrix = a @ result.weights
    via_expr = evaluate_batch(result.candidate.expr, data.times, data.states)
    assert np.max(np.abs(via_matrix - via_expr)) < 1e-9
    assert result.candidate.train_rmse == pytest.approx(
        fitness(result.candidate.expr, data), abs=1e-12
    )


def test_fit_empty_support_yields_zero_constant():
    data = exact_dataset(simple_pendulum())
    result = fit(preset_basis("pendulum"), data, STLSQConfig(threshold=1e6))
    assert result.candidate.expr == Const(0.0)
    assert result.candidate.train_rmse == pytest.approx(
        float(np.sqrt(np.mean(data.targets**2)))
    )


def test_fit_finite_differences_close_to_truth():
    data = make_dataset(simple_pendulum(), 0.1, "train")
    result = fit(preset_basis("pendulum"), data, STLSQConfig())
    # finite-difference noise perturbs the coefficients but not the support
    w = result.weights
    assert abs(w[2] + 9.81) < 1.0
    s = print_expr(result.candidate.expr, ("theta1", "theta2"))
    assert "sin(theta1)" in s

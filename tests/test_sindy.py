import math
import warnings

import numpy as np
import pytest

from odesr.candidates import fitness
from odesr.expressions import Const, evaluate_batch, parse_expr, print_expr
from odesr.integrate import RegressionDataset, make_dataset, make_trajectory
from odesr.sindy import (
    BasisFunction,
    BasisSet,
    LassoConfig,
    STLSQConfig,
    basis_from_strings,
    build_design_matrix,
    fit,
    lasso_cd,
    preset_basis,
    stlsq,
)
from odesr.systems import lotka_volterra, simple_pendulum


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
        (lambda v: STLSQConfig(threshold=v), "threshold", (0.0, -1.0, math.nan)),
        (lambda v: LassoConfig(lam=v), "lam", (-1.0, math.nan)),
        (lambda v: LassoConfig(tolerance=v), "tolerance", (0.0, -1.0, math.nan)),
        (lambda v: STLSQConfig(max_iterations=v), "max_iterations", (0, -1)),
        (lambda v: LassoConfig(max_iterations=v), "max_iterations", (0, -1)),
    ],
    ids=[
        "stlsq threshold",
        "lasso lam",
        "lasso tolerance",
        "stlsq max_iterations",
        "lasso max_iterations",
    ],
)
def test_config_validation(make, field, values):
    # NaN compares false both ways: a NaN threshold used to fit the model 0.0,
    # and a NaN lam or tolerance could never converge
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
    res = stlsq(a, b, threshold=0.1)
    assert res.weights == pytest.approx([-3.0, 1.0, 0, 0, 0], abs=1e-8)
    assert res.warnings == ()


def test_stlsq_zero_target():
    a, _ = synthetic_system()
    res = stlsq(a, np.zeros(a.shape[0]))
    assert np.all(res.weights == 0.0)


def test_stlsq_threshold_kills_everything():
    a, b = synthetic_system()
    res = stlsq(a, b, threshold=10.0)
    assert np.all(res.weights == 0.0)


def test_stlsq_support_is_fixed_point():
    a, b = synthetic_system(3)
    res = stlsq(a, b, threshold=0.1)
    support = res.weights != 0
    again, _ = np.linalg.lstsq(a[:, support], b, rcond=None)[:2]
    assert np.all(np.abs(again) >= 0.1)
    assert again == pytest.approx(res.weights[support], abs=1e-10)


def test_stlsq_rank_deficient_uses_ridge():
    a, b = synthetic_system()
    dup = np.hstack([a, a[:, :1]])  # exact duplicate column
    res = stlsq(dup, b, threshold=0.1)
    assert "rank_deficient" in res.warnings
    pred = dup @ res.weights
    assert pred == pytest.approx(b, abs=1e-6)
    assert res.weights[-1] == 0.0  # the later copy is the dependent one


def test_stlsq_fewer_samples_than_columns_fits_first_columns():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    res = stlsq(a, b, threshold=1e-6)
    expected = np.linalg.solve(a[:, :4], b)
    assert "rank_deficient" in res.warnings
    assert res.weights[:4] == pytest.approx(expected, abs=1e-10)
    assert np.all(res.weights[4:] == 0.0)
    assert a @ res.weights == pytest.approx(b, abs=1e-10)


# --------------------------------------------------------------------- lasso


def test_lasso_zero_lambda_matches_lstsq():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(60, 5))
    b = rng.normal(size=60)
    res = lasso_cd(a, b, 0.0, max_iterations=5000, tolerance=1e-12)
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert res.weights == pytest.approx(ref, abs=1e-6)


def test_lasso_lambda_max_kills_all():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(50, 4))
    b = rng.normal(size=50)
    lam_max = np.max(np.abs(a.T @ b)) / len(b)
    assert np.all(lasso_cd(a, b, lam_max).weights == 0.0)
    assert np.all(lasso_cd(a, b, lam_max * 1.5).weights == 0.0)
    assert np.any(lasso_cd(a, b, lam_max * 0.9).weights != 0.0)


def test_lasso_kkt_conditions():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(80, 6))
    b = rng.normal(size=80)
    lam = 0.05
    res = lasso_cd(a, b, lam, max_iterations=20000, tolerance=1e-14)
    w = res.weights
    grad = a.T @ (b - a @ w) / len(b)
    for j in range(6):
        if w[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-8
        else:
            assert grad[j] == pytest.approx(lam * np.sign(w[j]), abs=1e-8)


def test_lasso_recovers_lv_sparse_representation():
    # the hint feature f9 = 1.5x - xy is exactly collinear with f1, f3;
    # the l1 penalty still picks the sparse {y, xy} representation
    lv = preset_basis("lotka_volterra")
    data = exact_dataset(lotka_volterra())
    a = build_design_matrix(lv, data)
    lam_max = np.max(np.abs(a.T @ data.targets)) / len(data.targets)
    res = lasso_cd(a, data.targets, lam_max * 1e-4, max_iterations=50_000)
    w = res.weights
    big = np.flatnonzero(np.abs(w) > 0.05)
    assert list(big) == [1, 2]  # y and x*y
    assert w[1] == pytest.approx(-3.0, abs=0.05)
    assert w[2] == pytest.approx(1.0, abs=0.05)


def test_lasso_non_convergence_flag():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 1))
    a = np.hstack([base + 1e-6 * rng.normal(size=(40, 1)) for _ in range(4)])
    res = lasso_cd(a, rng.normal(size=40), 1e-8, max_iterations=1, tolerance=1e-14)
    assert "lasso_no_convergence" in res.warnings


def test_lasso_skips_an_all_zero_column():
    t = np.linspace(0.0, 1.0, 11)
    a = np.column_stack((t, np.zeros_like(t)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the zero column's norm
        res = lasso_cd(a, 2.0 * t, 0.0)
    assert res.weights[0] == pytest.approx(2.0, rel=1e-12)
    assert res.weights[1] == 0.0
    assert res.warnings == ()


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


def test_fit_lasso_sweep_on_lv():
    data = exact_dataset(lotka_volterra())
    result = fit(preset_basis("lotka_volterra"), data, LassoConfig())
    assert result.candidate.train_rmse < 0.05
    assert np.count_nonzero(result.weights) <= 4


def test_fit_lasso_with_a_fixed_lambda_solves_once():
    data = exact_dataset(lotka_volterra())
    basis = preset_basis("lotka_volterra")
    config = LassoConfig(lam=0.01)
    result = fit(basis, data, config)
    a = build_design_matrix(basis, data)
    want = lasso_cd(a, data.targets, 0.01, config.max_iterations, config.tolerance)
    assert result.weights.tobytes() == want.weights.tobytes()
    assert result.warnings == want.warnings


def test_fit_lasso_sweep_on_zero_targets_is_the_zero_fit():
    # every lambda of the sweep is a multiple of lambda_max, here 0
    data = exact_dataset(lotka_volterra())
    data = RegressionDataset(data.times, data.states, np.zeros(len(data.targets)), 0.1, 1)
    result = fit(preset_basis("lotka_volterra"), data, LassoConfig())
    assert np.all(result.weights == 0.0)
    assert result.candidate.expr == Const(0.0)
    assert result.candidate.train_rmse == 0.0
    assert result.warnings == ()


def test_fit_finite_differences_close_to_truth():
    data = make_dataset(simple_pendulum(), 0.1, "train")
    result = fit(preset_basis("pendulum"), data, STLSQConfig())
    # finite-difference noise perturbs the coefficients but not the support
    w = result.weights
    assert abs(w[2] + 9.81) < 1.0
    s = print_expr(result.candidate.expr, ("theta1", "theta2"))
    assert "sin(theta1)" in s

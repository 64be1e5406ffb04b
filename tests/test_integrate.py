import dataclasses
import gc
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from odesr import integrate as integrate_module
from odesr.benchmark import GROUND_TRUTH_EXPRESSIONS, rollout_with_estimate, run_fit
from odesr.benchmark import test_error as held_out_error
from odesr.expressions import Const, parse_expr
from odesr.integrate import (
    _A,
    _C,
    _E,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _P,
    _SAFETY,
    IntegrationError,
    IntegratorConfig,
    RegressionDataset,
    Trajectory,
    _error_norm,
    _stages,
    finite_differences,
    integrate,
    integrate_fixed_step,
    make_dataset,
    make_trajectory,
    read_trajectory_csv,
    sample_grid,
    shared_trajectory,
    write_trajectory_csv,
)
from odesr.systems import (
    SYSTEM_NAMES,
    SystemSpec,
    cart_pole,
    expression_system,
    get_system,
    lotka_volterra,
    simple_pendulum,
)


def test_exponential_decay():
    traj = integrate(lambda t, x: -x, [1.0], (0.0, 1.0), 0.1)
    assert traj.times.shape == (11,)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_zero_rhs_is_constant():
    traj = integrate(lambda t, x: np.zeros(2), [2.5, -1.0], (0.0, 10.0), 0.5)
    assert np.all(traj.states == [2.5, -1.0])


def test_grid_is_uniform_and_inclusive():
    traj = integrate(lambda t, x: -x, [1.0], (2.0, 4.0), 0.25)
    assert len(traj.times) == 9
    assert np.allclose(np.diff(traj.times), 0.25, atol=1e-12)


def test_non_divisible_dt_rejected():
    with pytest.raises(ValueError):
        integrate(lambda t, x: -x, [1.0], (0.0, 10.0), 0.3)


@pytest.mark.parametrize("sample_dt", [0.0, -0.1, math.nan, math.inf])
def test_sample_grid_rejects_a_step_that_is_not_positive_and_finite(sample_dt):
    # NaN used to reach round() and fail with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="^sample_dt must be positive and finite$"):
        sample_grid(0.0, 10.0, sample_dt)


@pytest.mark.parametrize(
    "span", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)], ids=["inf", "-inf", "nan"]
)
def test_sample_grid_rejects_a_span_end_that_is_not_finite(span):
    # an infinite end used to reach round() and fail with an OverflowError
    message = r"^span \(.*\) must have finite ends$"
    with pytest.raises(ValueError, match=message):
        sample_grid(*span, 0.1)
    if span[1] > span[0]:
        with pytest.raises(ValueError, match=message):
            integrate(lambda t, x: -x, [1.0], span, 0.1)


def test_lotka_volterra_conserves_invariant():
    sys = lotka_volterra()
    traj = integrate(sys.rhs, sys.initial_state, sys.train_span, 0.1)
    x, y = traj.states[:, 0], traj.states[:, 1]
    c = 3.0 * np.log(x) - x + 1.5 * np.log(y) - y
    assert np.max(np.abs(c - c[0])) < 1e-5


@pytest.mark.parametrize("factory", [lotka_volterra, simple_pendulum, cart_pole])
def test_matches_reference_integrator(factory):
    sys = factory()
    traj = integrate(sys.rhs, sys.initial_state, sys.train_span, 0.1)
    ref = solve_ivp(
        sys.rhs,
        sys.train_span,
        sys.initial_state,
        t_eval=traj.times,
        rtol=1e-11,
        atol=1e-13,
        method="DOP853",
    )
    assert np.max(np.abs(traj.states - ref.y.T)) < 1e-5


def test_fixed_step_convergence_order():
    lam = -2.0
    errs = []
    steps = [8, 16, 32, 64, 128]
    for n in steps:
        final = integrate_fixed_step(lambda t, x: lam * x, [1.0], (0.0, 1.0), n)
        errs.append(abs(final[0] - math.exp(lam)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -slope >= 4.5


def tableau_fixed_step(rhs, x0, span, n_steps):
    """integrate_fixed_step as its own loop over the tableau, with @ and a
    Python float h: the reference for the version that walks _stages."""
    t0, t1 = float(span[0]), float(span[1])
    h = (t1 - t0) / n_steps
    x = np.array(x0, dtype=float)
    k = np.empty((6, len(x)))
    nodes = _C.tolist()
    for step in range(n_steps):
        t = t0 + step * h
        k[0] = rhs(t, x)
        for i in range(1, 6):
            k[i] = rhs(t + nodes[i] * h, x + h * (_A[i] @ k[:i]))
        x = x + h * (_A[6] @ k)
    return x


_FIXED_STEP_CASES = {
    **{name: (get_system(name).rhs, get_system(name).initial_state) for name in SYSTEM_NAMES},
    "one component": (lambda t, x: -0.5 * x, [1.0]),
    "forced one component": (lambda t, x: np.array([-x[0] + math.sin(3.0 * t)]), [0.2]),
    # a state component that starts at zero and stays there
    "zero component": (lambda t, x: np.array([-x[0], -2.0 * x[1]]), [0.0, 1.0]),
}


@pytest.mark.parametrize("case", list(_FIXED_STEP_CASES))
def test_fixed_step_matches_the_tableau_loop_bit_for_bit(case):
    rhs, x0 = _FIXED_STEP_CASES[case]
    for n_steps in (20, 25, 32, 50, 64, 100, 200):
        for span in ((0.0, 1.0), (0.0, 10.0), (2.5, 3.0)):
            got = integrate_fixed_step(rhs, x0, span, n_steps)
            want = tableau_fixed_step(rhs, x0, span, n_steps)
            assert got.tobytes() == want.tobytes(), (n_steps, span)


@pytest.mark.parametrize("n_steps", [2, 3])
def test_fixed_step_divergence_raises_integration_error(n_steps):
    # cart-pole over (0, 10): in 2 steps the final state was inf, and in 3
    # math.sin raised ValueError on an infinite angle inside the rhs
    system = get_system("cart_pole")
    seen = []

    def rhs(t, x):
        seen.append(x.copy())
        return system.rhs(t, x)

    with pytest.raises(IntegrationError, match="^state not finite") as err:
        integrate_fixed_step(rhs, system.initial_state, (0.0, 10.0), n_steps)
    assert np.all(np.isfinite(seen))
    partial = err.value.partial
    h = 10.0 / n_steps
    assert partial.times.tolist() == [step * h for step in range(len(partial.times))]
    assert err.value.last_time == partial.times[-1]
    assert partial.states[0].tolist() == list(system.initial_state)
    assert np.all(np.isfinite(partial.states))
    assert not partial.states.flags.writeable


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [math.inf], []], ids=["nan", "inf", "empty"])
def test_fixed_step_refuses_the_initial_states_integrate_refuses(x0):
    def never(t, x):
        raise AssertionError("rhs called")

    message = "^initial state must be a non-empty finite vector$"
    with pytest.raises(ValueError, match=message):
        integrate(never, x0, (0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match=message):
        integrate_fixed_step(never, x0, (0.0, 1.0), 4)


def test_undamped_pendulum_energy_drift():
    g = 9.81

    def rhs(t, s):
        return np.array([s[1], -g * math.sin(s[0])])

    # drift scales with the tolerance; the solver must reach 1e-6 when asked
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    traj = integrate(rhs, [0.4 * math.pi, 1.0], (0.0, 10.0), 0.1, cfg)
    energy = 0.5 * traj.states[:, 1] ** 2 + g * (1.0 - np.cos(traj.states[:, 0]))
    assert np.max(np.abs(energy - energy[0])) < 1e-6


def test_max_steps_exceeded_reports_last_time():
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(IntegrationError) as err:
        integrate(lotka_volterra().rhs, [1.0, 1.0], (0.0, 10.0), 0.1, cfg)
    assert 0.0 <= err.value.last_time < 10.0


def test_blowup_truncates_with_partial_trajectory():
    # quadratic blowup: x' = x^2, x(0)=1 escapes at t=1
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t, x: x * x, [1.0], (0.0, 2.0), 0.1)
    e = err.value
    assert e.last_time <= 1.0 + 1e-6
    assert e.partial.times.shape[0] == e.partial.states.shape[0]
    assert np.all(e.partial.times <= 1.0 + 1e-6)
    assert np.all(np.isfinite(e.partial.states))
    assert not e.partial.times.flags.writeable
    assert not e.partial.states.flags.writeable


def test_nan_rhs_truncates():
    def rhs(t, x):
        if t > 0.5:
            return np.array([math.nan])
        return np.array([1.0])

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, [0.0], (0.0, 1.0), 0.1)
    assert err.value.last_time <= 0.6


def test_dynamics_not_finite_at_the_initial_state_stop_at_the_span_start():
    message = r"^dynamics not finite at initial state \(integrated up to t=0.5\)$"
    with pytest.raises(IntegrationError, match=message) as err:
        integrate(lambda t, x: np.array([1.0, math.inf]), [1.0, 2.0], (0.5, 1.5), 0.1)
    assert err.value.last_time == 0.5
    assert err.value.partial.times.tolist() == [0.5]
    assert err.value.partial.states.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("span", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
def test_span_that_does_not_increase_is_rejected(span):
    with pytest.raises(ValueError, match=r"^span must increase, got \(.*\)$"):
        integrate(lambda t, x: -x, [1.0], span, 0.1)


def test_rejected_attempts_restart_from_the_slope_at_the_accepted_state():
    # a rejected attempt overwrites the last stage; the next attempt must
    # still start from f(t, x). The slope switches on at t = 1, so large
    # steps from the smooth part are rejected there many times
    def rhs(t, x):
        return np.array([0.0 if t < 1.0 else 40.0 * math.cos(40.0 * t)])

    traj = integrate(rhs, [1.0], (0.0, 3.0), 0.25)
    t = traj.times
    exact = np.where(t < 1.0, 1.0, 1.0 + np.sin(40.0 * t) - math.sin(40.0))
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6


def _switched_on(t, x):
    return np.array([0.0 if t < 1.0 else 40.0 * math.cos(40.0 * t)])


# (rhs, x0, span, exact solution on a time grid, as rows of states)
ACCURACY_CASES = {
    "decay": (lambda t, x: -x, [1.0], (0.0, 5.0), lambda t: np.exp(-t)[:, None]),
    "rotation": (
        lambda t, x: np.array([-x[1], x[0]]),
        [1.0, 0.0],
        (0.0, 10.0),
        lambda t: np.stack([np.cos(t), np.sin(t)], axis=1),
    ),
    # forces rejected attempts at the switch, as in the test above
    "switched": (
        _switched_on,
        [1.0],
        (0.0, 3.0),
        lambda t: np.where(t < 1.0, 1.0, 1.0 + np.sin(40.0 * t) - math.sin(40.0))[:, None],
    ),
}


@pytest.mark.parametrize("name", ACCURACY_CASES)
def test_global_error_falls_with_rtol(name):
    # The global error of an error-per-step controller is about proportional
    # to the tolerance (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
    # Largest error over the 0.25 grid for rtol 1e-4 ... 1e-9, atol = rtol/100:
    # decay 5.3e-7 -> 1.9e-11, rotation 3.3e-5 -> 3.1e-10, switched
    # 1.9e-3 -> 5.2e-8. The smallest fall in one decade was x10^0.65
    # (switched), the smallest over all five x10^0.89 a decade (decay).
    rhs, x0, span, exact = ACCURACY_CASES[name]
    errors = []
    for rtol in 10.0 ** -np.arange(4, 10):
        traj = integrate(rhs, x0, span, 0.25, IntegratorConfig(rtol=rtol, atol=rtol * 1e-2))
        errors.append(np.max(np.abs(traj.states - exact(traj.times))))
    decades = np.log10(np.array(errors[:-1]) / np.array(errors[1:]))
    assert decades.min() > 0.5, errors
    assert decades.mean() > 0.8, errors
    assert errors[-1] < 1e-7, errors


# Both inputs below used to give a nan first step that no step-size test
# caught, so integrate spun until the default max_steps (1,000,000).


def test_empty_initial_state_is_rejected():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="non-empty"):
        integrate(lambda t, x: -x, [], (0.0, 1.0), 0.1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_zero_error_scale_raises_at_once():
    # atol=0 and a zero component make that component's error scale 0, and
    # the initial step 0/0
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"step size underflow \(h=nan\)") as err:
        integrate(lambda t, x: -x, [1.0, 0.0], (0.0, 1.0), 0.1, IntegratorConfig(atol=0.0))
    assert time.perf_counter() - start < 0.5
    assert err.value.last_time == 0.0
    assert err.value.partial.states.tolist() == [[1.0, 0.0]]


def test_overflowing_initial_derivative_raises_underflow():
    # atol=0 scales the first component by rtol * 1.26e-255, so the scaled
    # derivative overflows and the initial step comes out as 0
    x0 = [1.26e-255, 1.0, 1.0]
    config = IntegratorConfig(rtol=1e-10, atol=0.0)
    with pytest.raises(IntegrationError, match=r"step size underflow \(h=0\)") as err:
        checked_integrate(lambda t, x: np.array([1.0, 0.0, 0.0]), x0, (0.0, 1.0), 0.1, config)
    assert err.value.last_time == 0.0
    assert err.value.partial.states.tolist() == [x0]


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"rtol": -1e-8}, "rtol must be finite and >= 0"),
        ({"atol": -1e-10}, "atol must be finite and >= 0"),
        ({"rtol": math.nan}, "rtol must be finite and >= 0"),
        ({"atol": math.inf}, "atol must be finite and >= 0"),
        ({"rtol": 0.0, "atol": 0.0}, "must not both be zero"),
        ({"max_steps": 0}, "max_steps must be >= 1"),
    ],
)
def test_integrator_config_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        IntegratorConfig(**kwargs)


def test_integrator_config_allows_one_zero_tolerance():
    for config in (IntegratorConfig(atol=0.0), IntegratorConfig(rtol=0.0)):
        traj = integrate(lambda t, x: -x, [1.0], (0.0, 1.0), 0.1, config)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


# ------------------------------------------------------------ datasets


def test_finite_differences_constant_and_linear():
    times = np.linspace(0.0, 1.0, 11)
    const = Trajectory(times, np.full((11, 1), 3.0))
    ds = finite_differences(const, 0)
    assert np.all(ds.targets == 0.0)
    linear = Trajectory(times, times.reshape(-1, 1))
    ds = finite_differences(linear, 0)
    assert ds.targets == pytest.approx(np.ones(10), abs=1e-12)
    assert ds.times.shape == (10,)
    assert ds.states.shape == (10, 1)


def test_finite_differences_need_two_samples_and_a_target_in_range():
    one = Trajectory(np.array([0.0]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="^need at least two samples$"):
        finite_differences(one, 0)
    two = Trajectory(np.array([0.0, 0.1]), np.array([[1.0, 2.0], [1.5, 2.5]]))
    for target_dim in (-1, 2):
        with pytest.raises(ValueError, match=f"^target_dim {target_dim} out of range$"):
            finite_differences(two, target_dim)


def test_finite_difference_error_bound_on_pendulum():
    # divided differences lag the true derivative by O(dt * max |x''|)
    sys = simple_pendulum()
    ds = make_dataset(sys, 0.1, "train")
    truth = np.array([sys.rhs(t, s)[1] for t, s in zip(ds.times, ds.states)])
    # |theta2''| <= b(b|v| + g) + g|v| with |v| <= 3.9 on this orbit, so ~40
    assert np.max(np.abs(ds.targets - truth)) < 0.5 * 0.1 * 40.0


def test_make_dataset_counts():
    ds = make_dataset(lotka_volterra(), 0.1, "train")
    assert ds.times.shape == (100,)
    assert ds.states.shape == (100, 2)
    assert ds.targets.shape == (100,)
    assert ds.target_dim == 1
    assert ds.dt == pytest.approx(0.1)


def test_test_split_lies_in_test_window_and_continues():
    sys = simple_pendulum()
    ds = make_dataset(sys, 0.1, "test")
    assert np.all(ds.times >= 10.0)
    assert np.all(ds.times < 15.0)
    train = make_trajectory(sys, "train", 0.1)
    test = make_trajectory(sys, "test", 0.1)
    assert np.array_equal(test.states[0], train.states[-1])
    assert test.times[0] == 10.0 and test.times[-1] == 15.0


def test_make_dataset_rejects_bad_split():
    with pytest.raises(ValueError):
        make_dataset(lotka_volterra(), 0.1, "validation")


def test_trajectory_csv_round_trip(tmp_path):
    sys = lotka_volterra()
    traj = integrate(sys.rhs, sys.initial_state, (0.0, 1.0), 0.1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, sys.variable_names, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y"
    names, back = read_trajectory_csv(path)
    assert names == ("x", "y")
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


# ------------------------------------------------------------ error norm


def error_norm(err, scale):
    """_error_norm over the given positive error scale: x = x_new = scale,
    atol 0 and rtol 1."""
    scale = np.asarray(scale).tolist()
    return _error_norm(scale, scale, np.asarray(err).tolist(), 0.0, 1.0)


def test_error_norm_matches_numpy_formula():
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0])
    for n in range(1, 10):
        for _ in range(2000):
            # one decade, where the order of the sum shows, or the full range
            decades = 1 if rng.random() < 0.5 else 300
            err = rng.standard_normal(n) * 10.0 ** rng.integers(-decades, decades, n)
            scale = np.abs(rng.standard_normal(n))
            scale *= 10.0 ** rng.integers(-decades, decades, n)
            err[rng.random(n) < 0.2] = rng.choice(special)
            tiny = rng.random(n) < 0.2
            scale[tiny] = rng.choice([5e-324, 1e-310, 2.2e-308], tiny.sum())
            with np.errstate(all="ignore"):
                expected = np.sqrt(np.mean((err / scale) ** 2))
                assert error_norm(err, scale).hex() == float(expected).hex()


def test_error_norm_forms_the_numpy_scale():
    rng = np.random.default_rng(8)
    for n in range(1, 10):
        for _ in range(500):
            x, x_new, err = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-5, 5, (3, n))
            x[rng.random(n) < 0.2] = 0.0
            x_new[rng.random(n) < 0.2] = -0.0
            atol = float(rng.choice([0.0, 1e-10, 1e-3]))
            rtol = float(rng.choice([1e-8, 0.5, 1.0]))
            with np.errstate(all="ignore"):
                scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
                expected = np.sqrt(np.mean((err / scale) ** 2))
                got = _error_norm(x.tolist(), x_new.tolist(), err.tolist(), atol, rtol)
            assert got.hex() == float(expected).hex()


def test_error_norm_sums_left_to_right():
    # adding the last three squares first changes the last bit of the norm
    err = np.array(
        [0.36457239618607573, 0.294132496655526, 0.02842224131579679, 0.5467129866124469]
    )
    scale = np.ones(4)
    squares = [v * v for v in err.tolist()]
    other_order = math.sqrt((squares[0] + (squares[1] + squares[2] + squares[3])) / 4)
    assert error_norm(err, scale) == float(np.sqrt(np.mean((err / scale) ** 2)))
    assert error_norm(err, scale) != other_order


def test_error_norm_zero_scale_takes_numpy_values():
    err = np.array([1.0, 0.0, -2.0])
    scale = np.array([0.0, 0.0, 1.0])
    with np.errstate(all="ignore"):
        assert math.isnan(error_norm(err, scale))
        assert error_norm(err[[0, 2]], scale[[0, 2]]) == math.inf


@pytest.mark.parametrize("zero_scale", [False, True])
@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_error_norm_is_inf_for_a_step_that_is_not_finite(n, bad, zero_scale):
    x = [1.0] * n
    if zero_scale:
        x[0] = 0.0  # with atol 0 its error scale is zero
    for which in ("x_new", "err"):
        x_new, err = list(x), [1e-3] * n
        {"x_new": x_new, "err": err}[which][-1] = bad
        with np.errstate(all="ignore"):
            assert _error_norm(x, x_new, err, 0.0, 1e-8) == math.inf


# ------------------------------------------------------ shared trajectories


def test_shared_trajectory_equals_fresh_integration(integrate_calls):
    sys = cart_pole()
    first = shared_trajectory(sys.rhs, sys.initial_state, sys.train_span, 0.05)
    again = shared_trajectory(sys.rhs, sys.initial_state, sys.train_span, 0.05)
    fresh = integrate(sys.rhs, sys.initial_state, sys.train_span, 0.05)
    assert integrate_calls == [sys.train_span]
    for traj in (first, again):
        assert traj.times.tobytes() == fresh.times.tobytes()
        assert traj.states.tobytes() == fresh.states.tobytes()


def test_shared_trajectory_is_read_only_and_new_per_call():
    sys = lotka_volterra()
    a = make_trajectory(sys, "train", 0.1)
    b = make_trajectory(sys, "train", 0.1)
    assert a is not b
    for traj in (a, b):
        assert not traj.times.flags.writeable
        assert not traj.states.flags.writeable
    with pytest.raises(ValueError):
        a.states[0, 0] = 2.0
    assert b.states[0, 0] == 1.0


def test_shared_trajectory_keys_on_every_input(integrate_calls):
    sys = lotka_volterra()

    def trajectory(rhs=sys.rhs, x0=(1.0, 1.0), span=(0.0, 2.0), dt=0.1, config=None):
        return shared_trajectory(rhs, x0, span, dt, config)

    trajectory()
    # another sample_dt is read from the steps already taken
    finer = trajectory(dt=0.05)
    assert len(integrate_calls) == 1
    fresh = integrate(sys.rhs, (1.0, 1.0), (0.0, 2.0), 0.05)
    assert_same_bits(finer, fresh)
    trajectory(span=(0.0, 3.0))
    trajectory(config=IntegratorConfig(rtol=1e-9))
    trajectory(config=IntegratorConfig(max_steps=999_999))
    trajectory(rhs=lotka_volterra().rhs)
    trajectory(x0=(1.0, 2.0))
    assert len(integrate_calls) == 6
    # None and the default config are the same integration
    trajectory(config=IntegratorConfig())
    assert len(integrate_calls) == 6

    def decay(t, x):
        return -x

    plus = shared_trajectory(decay, [0.0, 1.0], (0.0, 1.0), 0.1)
    minus = shared_trajectory(decay, [-0.0, 1.0], (0.0, 1.0), 0.1)
    assert len(integrate_calls) == 8
    fresh = integrate(decay, [-0.0, 1.0], (0.0, 1.0), 0.1)
    assert minus.states.tobytes() == fresh.states.tobytes()
    assert minus.states.tobytes() != plus.states.tobytes()


def test_shared_trajectory_does_not_keep_failures(integrate_calls):
    def blowup(t, x):
        return x * x

    for _ in range(2):
        with pytest.raises(IntegrationError):
            shared_trajectory(blowup, [1.0], (0.0, 2.0), 0.1)
    assert integrate_calls == [(0.0, 2.0), (0.0, 2.0)]


def test_shared_trajectory_is_released_with_the_system():
    sys = simple_pendulum()
    times = weakref.ref(make_trajectory(sys, "test", 0.1).times)
    gc.collect()
    assert times() is not None
    del sys
    gc.collect()
    assert times() is None


class _SlotRhs:
    """A right-hand side that cannot be weakly referenced."""

    __slots__ = ()

    def __call__(self, t, x):
        return -x


def test_shared_trajectory_without_weak_reference_integrates(integrate_calls):
    rhs = _SlotRhs()
    with pytest.raises(TypeError):
        weakref.ref(rhs)
    a = shared_trajectory(rhs, [1.0], (0.0, 1.0), 0.1)
    b = shared_trajectory(rhs, [1.0], (0.0, 1.0), 0.1)
    assert integrate_calls == [(0.0, 1.0), (0.0, 1.0)]
    assert a.states.tobytes() == b.states.tobytes()
    assert a.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_fit_then_test_error_integrates_train_and_test_once(integrate_calls):
    sys = lotka_volterra()
    record = run_fit("sindy", sys, sample_dt=0.05)
    expr = parse_expr(record["expression"], sys.variable_names)
    assert held_out_error(expr, sys, 0.05) == record["test_error"]
    assert integrate_calls == [sys.train_span, sys.test_span]


# ------------------------------------------------------ reference step loop


def reference_error_norm(err, scale):
    n = len(err)
    if 0 < n < 8:
        acc = 0.0
        try:
            for e, s in zip(err.tolist(), scale.tolist()):
                r = e / s
                acc += r * r
        except ZeroDivisionError:
            pass
        else:
            return math.sqrt(acc / n)
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def reference_initial_step(rhs, t0, x0, f0, cfg):
    scale = cfg.atol + cfg.rtol * np.abs(x0)
    d0 = reference_error_norm(x0, scale)
    d1 = reference_error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if h0 == 0.0:
        return h0
    f1 = np.asarray(rhs(t0 + h0, x0 + h0 * f0), dtype=float)
    if not np.all(np.isfinite(f1)):
        return h0
    d2 = reference_error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def reference_integrate(rhs, x0, span, sample_dt, config=None):
    """The step loop with numpy finiteness checks, a numpy error scale and
    the stage times taken from _C as numpy scalars."""
    cfg = config if config is not None else IntegratorConfig()
    t0, t1 = float(span[0]), float(span[1])
    grid = sample_grid(t0, t1, sample_dt)
    x = np.array(x0, dtype=float)
    states = np.empty((len(grid), len(x)))
    states[0] = x
    gi = 1

    def fail(message, t):
        return IntegrationError(
            message, t, Trajectory(grid[:gi].copy(), states[:gi].copy())
        )

    t = t0
    # a copy, as rhs may return one array that it overwrites on every call
    f = np.array(rhs(t, x), dtype=float)
    if not np.all(np.isfinite(f)):
        raise fail("dynamics not finite at initial state", t)
    h = min(reference_initial_step(rhs, t, x, f, cfg), t1 - t0)
    err_old = 1.0
    k = np.empty((7, len(x)))
    steps = 0
    while gi < len(grid):
        steps += 1
        if steps > cfg.max_steps:
            raise fail(f"exceeded max_steps={cfg.max_steps}", t)
        if not h >= 1e-14 * max(abs(t), 1.0):
            raise fail(f"step size underflow (h={h:.3g})", t)
        reached_end = h >= t1 - t
        if reached_end:
            h = t1 - t
        k[0] = f
        for i in range(1, 7):
            xi = x + h * (_A[i] @ k[:i])
            k[i] = rhs(t + _C[i] * h, xi)
        x_new = x + h * (_A[6] @ k[:6])
        err = h * (_E @ k)
        finite = np.all(np.isfinite(x_new)) and np.all(np.isfinite(err))
        if finite:
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
            err_norm = reference_error_norm(err, scale)
        if not finite or not np.isfinite(err_norm):
            h *= _MIN_FACTOR
            continue
        if err_norm > 1.0:
            h *= max(_MIN_FACTOR, min(1.0, _SAFETY * err_norm ** (-0.7 / 5)))
            continue
        t_new = t1 if reached_end else t + h
        if gi < len(grid) and grid[gi] <= t_new:
            q = k.T @ _P
            while gi < len(grid) and grid[gi] <= t_new:
                theta = min(max((grid[gi] - t) / h, 0.0), 1.0)
                p = theta ** np.arange(1, 5)
                states[gi] = x + h * (q @ p)
                gi += 1
        t, x, f = t_new, x_new, k[6].copy()
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** (-0.7 / 5) * err_old ** (0.4 / 5)
        h *= max(_MIN_FACTOR, min(_MAX_FACTOR, factor))
        err_old = max(err_norm, 1e-14)
    return Trajectory(grid, states)


def assert_same_bits(got, expected):
    assert got.times.tobytes() == expected.times.tobytes()
    assert got.states.tobytes() == expected.states.tobytes()


def recording(rhs, calls):
    """rhs that appends the bits of each (t, x) it is called with to calls."""

    def recorded(t, x):
        calls.append((float(t).hex(), x.tobytes()))
        return rhs(t, x)

    return recorded


def checked_integrate(rhs, x0, span, sample_dt, config=None):
    """integrate(...), after checking that it calls rhs at the same points
    and gives the same bits as reference_integrate, or raises the same
    error, with the same message and partial trajectory."""
    calls, reference_calls = [], []
    try:
        expected = reference_integrate(
            recording(rhs, reference_calls), x0, span, sample_dt, config
        )
    except IntegrationError as expected_error:
        with pytest.raises(IntegrationError) as error:
            integrate(recording(rhs, calls), x0, span, sample_dt, config)
        assert str(error.value) == str(expected_error)
        assert error.value.last_time.hex() == expected_error.last_time.hex()
        assert_same_bits(error.value.partial, expected_error.partial)
        assert calls == reference_calls
        raise error.value
    traj = integrate(recording(rhs, calls), x0, span, sample_dt, config)
    assert_same_bits(traj, expected)
    assert calls == reference_calls
    return traj


@pytest.mark.parametrize("sample_dt", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_system_trajectories_match_reference(name, sample_dt):
    sys = get_system(name)
    full = (sys.train_span[0], sys.test_span[1])
    train = checked_integrate(sys.rhs, sys.initial_state, sys.train_span, sample_dt)
    checked_integrate(sys.rhs, train.states[-1], sys.test_span, sample_dt)
    checked_integrate(sys.rhs, sys.initial_state, full, sample_dt)


@pytest.mark.parametrize("sample_dt", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_truth_rollouts_match_reference(monkeypatch, name, sample_dt):
    sys = get_system(name)
    truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], sys.variable_names)
    spans = []

    def checked(rhs, x0, span, *args):
        spans.append(span)
        return checked_integrate(rhs, x0, span, *args)

    # the splits of truth and hybrid both reach the integrate module's binding
    monkeypatch.setattr(integrate_module, "integrate", checked)
    result = rollout_with_estimate(truth, sys, sample_dt=sample_dt)
    assert result.divergence_time is None
    assert spans == [sys.train_span, sys.test_span] * 2


def test_expression_system_matches_reference():
    pendulum = simple_pendulum()
    sys = expression_system(
        "pendulum_expr",
        ("theta2", "-0.1 * theta2 - 9.81 * sin(theta1)"),
        pendulum.initial_state,
        variable_names=pendulum.variable_names,
    )
    for span in (sys.train_span, (sys.train_span[0], sys.test_span[1])):
        checked_integrate(sys.rhs, sys.initial_state, span, 0.05)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_linear_systems_around_the_numpy_norm_match_reference(n):
    # 8 or more components take the numpy norm
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    x0 = rng.standard_normal(n)
    checked_integrate(lambda t, x: a @ x + math.sin(t), x0, (0.0, 5.0), 0.1)


def _nan_after_half(t, x):
    return np.array([math.nan if t > 0.5 else 1.0])


@pytest.mark.parametrize(
    "rhs, x0, config",
    [
        (lambda t, x: x * x, [1.0], None),
        (_nan_after_half, [0.0], None),
        (lambda t, x: x * x, [1.0] * 9, None),
        (lotka_volterra().rhs, [1.0, 1.0], IntegratorConfig(max_steps=5)),
        (lambda t, x: -x, [1.0, 0.0], IntegratorConfig(atol=0.0)),
        (lambda t, x: -x, [1.0] * 8 + [0.0], IntegratorConfig(atol=0.0)),
    ],
    ids=["blowup", "nan", "blowup-9", "max_steps", "atol=0", "atol=0-9"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failures_match_reference(rhs, x0, config):
    with pytest.raises(IntegrationError):
        checked_integrate(rhs, x0, (0.0, 2.0), 0.1, config)


@given(
    n=st.integers(1, 4),
    data=st.data(),
    rtol=st.sampled_from([1e-10, 1e-8, 1e-6]),
    atol=st.sampled_from([0.0, 1e-12, 1e-8]),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_small_linear_systems_match_reference(n, data, rtol, atol):
    entries = st.floats(-3.0, 3.0, allow_subnormal=False)
    a = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    x0 = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    forcing = data.draw(entries)
    config = IntegratorConfig(rtol=rtol, atol=atol)
    try:
        checked_integrate(lambda t, x: a @ x + forcing * math.sin(t), x0, (0.0, 2.0), 0.1, config)
    # with atol 0 a tiny state component can make the first step 0, and the
    # initial step estimate then divides by it
    except (IntegrationError, ZeroDivisionError):
        pass


# ------------------------------------------ one integration, every sample_dt


def _case_system(case):
    """A benchmark system, the pendulum written as expressions, or a
    9-component linear system (which takes the numpy norm) with train span
    (0, 3) and test span (3, 5)."""
    if case == "linear-9":
        rng = np.random.default_rng(9)
        a = rng.standard_normal((9, 9)) - 2.0 * np.eye(9)
        return SystemSpec(
            name="linear_9",
            rhs=lambda t, x: a @ x + math.sin(t),
            initial_state=tuple(rng.standard_normal(9).tolist()),
            train_span=(0.0, 3.0),
            test_span=(3.0, 5.0),
            target_dim=0,
            variable_names=tuple(f"x{i}" for i in range(9)),
        )
    if case == "pendulum_expr":
        pendulum = simple_pendulum()
        return expression_system(
            "pendulum_expr",
            ("theta2", "-0.1 * theta2 - 9.81 * sin(theta1)"),
            pendulum.initial_state,
            variable_names=pendulum.variable_names,
        )
    return get_system(case)


def _full_span_inputs(case):
    """rhs, x0 and the span of the train and test windows of _case_system."""
    sys = _case_system(case)
    return sys.rhs, sys.initial_state, (sys.train_span[0], sys.test_span[1])


@pytest.mark.parametrize(
    "case", ["lotka_volterra", "simple_pendulum", "cart_pole", "pendulum_expr", "linear-9"]
)
def test_shared_trajectory_samples_every_dt_from_one_integration(integrate_calls, case):
    rhs, x0, span = _full_span_inputs(case)
    for sample_dt in (0.1, 0.05, 0.025):
        got = shared_trajectory(rhs, x0, span, sample_dt)
        assert_same_bits(got, checked_integrate(rhs, x0, span, sample_dt))
        assert not got.times.flags.writeable
        assert not got.states.flags.writeable
    assert integrate_calls == [span]
    # a coarser grid, and one already sampled, come from the same steps
    assert_same_bits(shared_trajectory(rhs, x0, span, 0.5), integrate(rhs, x0, span, 0.5))
    again = shared_trajectory(rhs, x0, span, 0.05)
    assert again.states is shared_trajectory(rhs, x0, span, 0.05).states
    assert integrate_calls == [span]


def test_shared_trajectory_checks_the_grid_before_its_memo(integrate_calls):
    sys = lotka_volterra()
    shared_trajectory(sys.rhs, sys.initial_state, sys.train_span, 0.1)
    for bad in (0.3, 0.0, -0.1):
        with pytest.raises(ValueError, match="sample_dt"):
            shared_trajectory(sys.rhs, sys.initial_state, sys.train_span, bad)
    assert integrate_calls == [sys.train_span]


@pytest.mark.parametrize(
    "rhs, x0", [(_nan_after_half, [0.0]), (lambda t, x: x * x, [1.0])], ids=["nan", "blowup"]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_shared_trajectory_failures_match_fresh_integration_at_each_dt(
    integrate_calls, rhs, x0
):
    for sample_dt in (0.1, 0.05):
        with pytest.raises(IntegrationError) as expected:
            integrate(rhs, x0, (0.0, 2.0), sample_dt)
        with pytest.raises(IntegrationError) as got:
            shared_trajectory(rhs, x0, (0.0, 2.0), sample_dt)
        assert str(got.value) == str(expected.value)
        assert got.value.last_time.hex() == expected.value.last_time.hex()
        assert_same_bits(got.value.partial, expected.value.partial)
    # a failure is not kept, so each call integrates again
    assert integrate_calls == [(0.0, 2.0), (0.0, 2.0)]


# ------------------------------------------------------------ rhs contract


def test_rhs_gets_a_float_time_and_a_float64_state():
    seen = []

    def checking(rhs):
        def checked(t, x):
            seen.append((type(t), type(x), x.dtype, x.shape))
            return rhs(t, x)

        return checked

    for name in ("lotka_volterra", "simple_pendulum", "cart_pole"):
        sys = get_system(name)
        sys = dataclasses.replace(sys, rhs=checking(sys.rhs))
        truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], sys.variable_names)
        held_out_error(truth, sys, 0.1)
        rollout_with_estimate(truth, sys, sample_dt=0.1)
        shapes = {(float, np.ndarray, np.dtype(np.float64), (sys.dim,))}
        assert set(seen) == shapes
        seen.clear()
    integrate(checking(lambda t, x: -x), [1, 2, 3], (0, 1), 0.5)
    integrate_fixed_step(checking(lambda t, x: -x), [1, 2, 3], (0, 1), 4)
    assert set(seen) == {(float, np.ndarray, np.dtype(np.float64), (3,))}


def reusing(rhs, n):
    """rhs that returns one array of length n, overwritten on every call."""
    out = np.empty(n)

    def reused(t, x):
        out[:] = rhs(t, x)
        return out

    return reused


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_rhs_may_reuse_its_returned_array(name):
    sys = get_system(name)
    span = (sys.train_span[0], sys.test_span[1])
    expected = integrate(sys.rhs, sys.initial_state, span, 0.1)
    got = checked_integrate(reusing(sys.rhs, sys.dim), sys.initial_state, span, 0.1)
    assert_same_bits(got, expected)
    assert got.steps.tobytes() == expected.steps.tobytes()


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_rhs_may_keep_the_states_it_is_passed(name):
    # each state rhs gets is its own array, never written after the call
    sys = get_system(name)
    kept = []

    def keeping(t, x):
        kept.append((x, x.tobytes()))
        return sys.rhs(t, x)

    integrate(keeping, sys.initial_state, (sys.train_span[0], sys.test_span[1]), 0.1)
    assert len({id(x) for x, _ in kept}) == len(kept)
    assert all(x.tobytes() == at_call for x, at_call in kept)


@pytest.mark.parametrize("case", [*SYSTEM_NAMES, "switched"])
def test_the_last_stage_state_is_the_accepted_state(case):
    # first same as last: the state of each accepted attempt's last stage is
    # the state at which the next step starts, bit for bit
    if case == "switched":
        rhs, x0, span, _ = ACCURACY_CASES[case]
    else:
        sys = get_system(case)
        rhs, x0, span = sys.rhs, sys.initial_state, sys.train_span
    calls = []

    def recorded(t, x):
        calls.append((t, x.tobytes()))
        return rhs(t, x)

    steps = integrate(recorded, x0, span, 0.25).steps
    n = len(x0)
    # after the initial slope and the initial step's probe, six calls an
    # attempt; an attempt is accepted when its stage times are the next
    # step's t + c * h
    attempts = [calls[i : i + 6] for i in range(2, len(calls), 6)]
    accepted = 0
    for attempt in attempts:
        t, h = steps[accepted, :2].tolist()
        if [s for s, _ in attempt] != [t + c * h for c in _C[1:].tolist()]:
            continue
        accepted += 1
        if accepted < len(steps):
            assert attempt[-1][1] == steps[accepted, 3 : 3 + n].tobytes()
    assert accepted == len(steps)
    assert (len(attempts) > accepted) == (case == "switched")


# ------------------------------------------ the products of the step loop

_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
# signed magnitudes from 1e-300 to 1e300, with zeros, infinities and nan
_ENTRIES = st.one_of(
    _SPECIAL, st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 299))
)


# k: the seven slopes of one step, over a state of 1 to 9 components
_SLOPES = st.integers(1, 9).flatmap(
    lambda n: st.lists(_ENTRIES, min_size=7 * n, max_size=7 * n).map(
        lambda v: np.array(v).reshape(7, n)
    )
)


@given(k=_SLOPES, h=_ENTRIES)
# dot would keep the -0.0 of 1/5 * -5e-324 in stage 1, where @ gives 0.0
@example(k=np.array([[0.0, -5e-324]] + [[0.0, 0.0]] * 6), h=0.0)
@settings(max_examples=300, deadline=None)
def test_step_loop_products_match_matmul_bit_for_bit(k, h):
    """The step loop forms its products with _stages' weighings and h as a
    0-d float64 array, reference_integrate with @ and a Python float h. A
    numpy or BLAS release that separates the two forms fails here, naming
    the product."""
    with np.errstate(all="ignore"):
        stages = _stages(k)
        assert [(i, c) for i, c, _, _ in stages] == list(enumerate(_C.tolist()))[1:]
        for i, _, product, rows in stages:
            assert product(rows).tobytes() == (_A[i] @ k[:i]).tobytes(), f"stage {i}"
        assert _E.dot(k).tobytes() == (_E @ k).tobytes(), "error"
        assert k.T.dot(_P).tobytes() == (k.T @ _P).tobytes(), "dense-output row"
        hf = np.empty(())
        hf[()] = h
        for v in k:
            assert (hf * v).tobytes() == (h * v).tobytes(), "h times a vector"


def test_stage_one_of_a_scalar_state_keeps_matmul():
    # dot multiplies a one-by-one product without summing, so -0.0 stays
    # signed; @ adds it to 0.0
    k = np.full((7, 1), -0.0)
    assert _A[1].dot(k[:1]).tobytes() != (_A[1] @ k[:1]).tobytes()
    assert [product(rows).tobytes() for _, _, product, rows in _stages(k)] == [
        (_A[i] @ k[:i]).tobytes() for i in range(1, 7)
    ]


# ------------------------------------------------- one-pass dense output


def loop_dense_output(steps, grid, x0):
    """_dense_output as a loop over the grid points, one interpolant at a
    time: the reference for the one-pass version."""
    n = len(x0)
    ends = np.searchsorted(grid, steps[:, 2], side="right")
    states = np.empty((ends[-1] if len(ends) else 1, n))
    states[0] = x0
    gi = 1
    for j in np.flatnonzero(np.diff(ends, prepend=1)).tolist():
        row, end = steps[j], int(ends[j])
        t, h = row[:2].tolist()
        x = row[3 : 3 + n]
        q = row[3 + n :].reshape(n, 4)
        while gi < end:
            theta = min(max((grid[gi] - t) / h, 0.0), 1.0)
            p = theta ** np.arange(1, 5)
            states[gi] = x + h * (q @ p)
            gi += 1
    return states


def random_steps(rng, n, m, t0):
    """m step rows of an n-vector from t0: random h, state and q. Some
    ends lie ulps past t + h, as a step clipped to t1 can, so that theta
    exceeds 1 at a point on the end; some starts ulps past the end before,
    so that theta is below 0 at a point in between."""
    def up(a, ulps):
        for _ in range(ulps):
            a = np.nextafter(a, np.inf)
        return a

    h = rng.uniform(0.01, 0.3, m)
    ends = t0 + np.cumsum(h)
    ends = np.where(rng.random(m) < 0.3, up(ends, 4), ends)
    starts = np.concatenate(([t0], ends[:-1]))
    starts[1:] = np.where(rng.random(m - 1) < 0.3, up(starts[1:], 2), starts[1:])
    x = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, (m, 1))
    q = rng.standard_normal((m, 4 * n))
    return np.column_stack((starts, h, ends, x, q))


def assert_dense_output_matches_loop(steps, grid, x0):
    got = integrate_module._dense_output(steps, grid, x0)
    assert got.tobytes() == loop_dense_output(steps, grid, x0).tobytes()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_dense_output_matches_the_point_loop_on_random_steps(seed, n):
    rng = np.random.default_rng([seed, n])
    t0 = float(rng.uniform(-5.0, 5.0))
    steps = random_steps(rng, n, int(rng.integers(1, 40)), t0)
    x0 = rng.standard_normal(n)
    end = steps[-1, 2]
    for t1 in (end, end + 1.0, t0 + (end - t0) / 2, float(rng.uniform(t0, end))):
        for points in (2, 3, 17, int(rng.integers(2, 500))):
            assert_dense_output_matches_loop(steps, np.linspace(t0, t1, points), x0)
    # points exactly at every step's start and end, and past the last one
    grid = np.unique(np.concatenate((steps[:, :3:2].ravel(), [end + 0.5])))
    assert_dense_output_matches_loop(steps, grid, x0)


def test_dense_output_clamps_theta_as_the_point_loop():
    rng = np.random.default_rng(7)
    steps = random_steps(rng, 2, 200, 0.0)
    # each step's start and end, and the point an ulp past each end
    grid = np.unique(np.concatenate((steps[:, :3:2].ravel(), np.nextafter(steps[:, 2], np.inf))))
    read = steps[np.searchsorted(steps[:, 2], grid[1:-1])]
    theta = (grid[1:-1] - read[:, 0]) / read[:, 1]
    assert (theta > 1).any() and (theta < 0).any()
    assert_dense_output_matches_loop(steps, grid, rng.standard_normal(2))


def test_dense_output_of_a_one_point_grid_is_the_initial_state():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(3)
    for steps in (random_steps(rng, 3, 5, 0.0), np.empty((0, 3 + 5 * 3))):
        got = integrate_module._dense_output(steps, np.array([0.0]), x0)
        assert got.tobytes() == x0.reshape(1, 3).tobytes()
        assert_dense_output_matches_loop(steps, np.array([0.0]), x0)


@pytest.mark.parametrize(
    "rhs, x0, config",
    [
        (lambda t, x: x * x, [1.0], None),
        (_nan_after_half, [0.0], None),
        (lambda t, x: x * x, [1.0] * 9, None),
        (lotka_volterra().rhs, [1.0, 1.0], IntegratorConfig(max_steps=5)),
        (lotka_volterra().rhs, [1.0, 1.0], IntegratorConfig(max_steps=40)),
        (lambda t, x: -x, [1.0, 0.0], IntegratorConfig(atol=0.0)),
    ],
    ids=["blowup", "nan", "blowup-9", "max_steps=5", "max_steps=40", "atol=0"],
)
@pytest.mark.parametrize("sample_dt", [0.1, 0.025])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dense_output_matches_the_point_loop_on_partial_states(rhs, x0, config, sample_dt):
    cfg = config if config is not None else IntegratorConfig()
    x = np.array(x0, dtype=float)
    steps, failure = integrate_module._accepted_steps(rhs, x, 0.0, 2.0, cfg)
    assert failure is not None
    grid = sample_grid(0.0, 2.0, sample_dt)
    assert_dense_output_matches_loop(steps, grid, x)
    with pytest.raises(IntegrationError) as error:
        integrate(rhs, x0, (0.0, 2.0), sample_dt, config)
    reference = loop_dense_output(steps, grid, x)
    assert error.value.partial.states.tobytes() == reference.tobytes()


# ------------------------------ rollouts join the splits; spans kept apart


@pytest.fixture
def integrations(monkeypatch):
    """Every call to the integrate module's integrate: its span and what it
    returned."""
    calls = []
    original = integrate_module.integrate

    def watched(rhs, x0, span, *args, **kwargs):
        call = {"span": tuple(span), "result": None}
        calls.append(call)
        call["result"] = original(rhs, x0, span, *args, **kwargs)
        return call["result"]

    monkeypatch.setattr(integrate_module, "integrate", watched)
    return calls


def fresh_splits(rhs, x0, train_span, test_span, sample_dt):
    """The train span integrated from x0 and the test span from its end
    state, joined at the train end."""
    train = integrate(rhs, x0, train_span, sample_dt)
    test = integrate(rhs, train.states[-1], test_span, sample_dt)
    return Trajectory(
        np.concatenate((train.times, test.times[1:])),
        np.concatenate((train.states, test.states[1:])),
    )


@pytest.mark.parametrize("sample_dt", [0.1, 0.05, 0.025])
@pytest.mark.parametrize(
    "case", ["lotka_volterra", "simple_pendulum", "cart_pole", "pendulum_expr", "linear-9"]
)
def test_full_span_continues_the_train_span(integrations, case, sample_dt):
    # the default rollout's truth is the train split followed by the test
    # split, which starts from the train end state
    sys = _case_system(case)
    truth = rollout_with_estimate(Const(0.0), sys, sample_dt=sample_dt).truth
    train = make_trajectory(sys, "train", sample_dt)
    test = make_trajectory(sys, "test", sample_dt)
    assert truth.times.tobytes() == np.concatenate((train.times, test.times[1:])).tobytes()
    assert truth.states.tobytes() == np.concatenate((train.states, test.states[1:])).tobytes()
    assert_same_bits(
        truth, fresh_splits(sys.rhs, sys.initial_state, sys.train_span, sys.test_span, sample_dt)
    )
    assert not truth.times.flags.writeable
    assert not truth.states.flags.writeable
    # no integration covers the full span
    assert [c["span"] for c in integrations[:2]] == [sys.train_span, sys.test_span]
    full = (sys.train_span[0], sys.test_span[1])
    assert full not in [c["span"] for c in integrations]


def test_rollout_truth_continues_the_train_split(integrations):
    sys = lotka_volterra()
    truth = parse_expr(GROUND_TRUTH_EXPRESSIONS["lotka_volterra"], sys.variable_names)
    held_out_error(truth, sys, 0.05)
    result = rollout_with_estimate(truth, sys, sample_dt=0.05)
    # the truth reads the splits test_error integrated; only the hybrid's
    # splits are integrated
    assert [c["span"] for c in integrations] == [sys.train_span, sys.test_span] * 2
    fresh = fresh_splits(sys.rhs, sys.initial_state, sys.train_span, sys.test_span, 0.05)
    assert_same_bits(result.truth, fresh)


def check_integrates_afresh(integrations, rhs, x0, spans, sample_dt, config=None):
    """shared_trajectory over each span in turn, on one rhs object: every
    span is integrated from its start, with the fresh integration's step
    rows and rhs evaluations, and gives its bits."""
    calls = []
    shared_rhs = recording(rhs, calls)
    for span in spans:
        before = len(calls)
        got = shared_trajectory(shared_rhs, x0, span, sample_dt, config)
        call = integrations[-1]
        assert call["span"] == span
        fresh_calls = []
        fresh = integrate(recording(rhs, fresh_calls), x0, span, sample_dt, config)
        assert_same_bits(got, fresh)
        assert call["result"].steps.tobytes() == fresh.steps.tobytes()
        assert calls[before:] == fresh_calls
    assert len(integrations) == len(spans)
    return shared_rhs


def _decay(t, x):
    return -x


def test_no_continuation_after_a_clipped_initial_step(integrations):
    short = shared_trajectory(_decay, [1.0], (0, 1e-6), 1e-6)
    long = shared_trajectory(_decay, [1.0], (0, 1), 0.1)
    assert [c["span"] for c in integrations] == [(0, 1e-6), (0, 1)]
    assert_same_bits(short, integrate(_decay, [1.0], (0, 1e-6), 1e-6))
    assert_same_bits(long, integrate(_decay, [1.0], (0, 1), 0.1))


def _longer_span_failure(rhs, x0, short, long, sample_dt, config):
    """shared_trajectory over short, then the IntegrationError of long,
    checked against a fresh integration's."""
    shared_trajectory(rhs, x0, short, sample_dt, config)
    with pytest.raises(IntegrationError) as got:
        shared_trajectory(rhs, x0, long, sample_dt, config)
    with pytest.raises(IntegrationError) as fresh:
        integrate(rhs, x0, long, sample_dt, config)
    assert str(got.value) == str(fresh.value)
    assert got.value.last_time.hex() == fresh.value.last_time.hex()
    assert_same_bits(got.value.partial, fresh.value.partial)
    return got.value


def _attempts(rhs, x0, span):
    """The step attempts integrate makes over span: the initial slope and
    the initial step estimate take one rhs evaluation each, an attempt six."""
    calls = []
    integrate(recording(rhs, calls), x0, span, 0.1)
    return (len(calls) - 2) // 6


@pytest.mark.parametrize("before_end", [0, 1, 5, 60])
def test_max_steps_exceeded_in_the_continued_part(integrations, before_end):
    # a budget the shorter span keeps to and the longer one runs out of in
    # its part past the shorter one's end
    sys = lotka_volterra()
    x0 = sys.initial_state
    budget = _attempts(sys.rhs, x0, (0.0, 15.0)) - 1 - before_end
    assert budget > _attempts(sys.rhs, x0, (0.0, 10.0)) + 1
    config = IntegratorConfig(max_steps=budget)
    error = _longer_span_failure(sys.rhs, x0, (0.0, 10.0), (0.0, 15.0), 0.1, config)
    assert str(error).startswith(f"exceeded max_steps={budget} ")
    assert error.last_time > 10.0
    assert [c["span"] for c in integrations] == [(0.0, 10.0), (0.0, 15.0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_short_span_then_a_longer_one(integrations):
    def blowup(t, x):
        return x * x

    with pytest.raises(IntegrationError):
        shared_trajectory(blowup, [0.5], (0.0, 3.0), 0.1)
    with pytest.raises(IntegrationError) as got:
        shared_trajectory(blowup, [0.5], (0.0, 4.0), 0.1)
    with pytest.raises(IntegrationError) as fresh:
        integrate(blowup, [0.5], (0.0, 4.0), 0.1)
    assert str(got.value) == str(fresh.value)
    assert_same_bits(got.value.partial, fresh.value.partial)
    # a span that fails is not kept, and one that succeeds is integrated
    shared_trajectory(blowup, [0.5], (0.0, 1.0), 0.1)
    shared_trajectory(blowup, [0.5], (0.0, 1.0), 0.1)
    assert [c["span"] for c in integrations] == [(0.0, 3.0), (0.0, 4.0), (0.0, 1.0)]


def test_longer_span_first_does_not_continue(integrations):
    sys = simple_pendulum()
    check_integrates_afresh(integrations, sys.rhs, sys.initial_state, [(0.0, 15.0), (0.0, 10.0)], 0.1)


def test_other_inputs_never_continue(integrations):
    sys = lotka_volterra()

    def trajectory(x0=(1.0, 1.0), span=(0.0, 3.0), config=None):
        got = shared_trajectory(sys.rhs, x0, span, 0.1, config)
        assert_same_bits(got, integrate(sys.rhs, x0, span, 0.1, config))

    trajectory(span=(0.0, 2.0))
    trajectory(x0=(1.0, 2.0))
    trajectory(x0=(1.0, -0.0))
    trajectory(span=(0.5, 3.0))
    trajectory(config=IntegratorConfig(rtol=1e-9))
    trajectory(config=IntegratorConfig(atol=1e-11))
    trajectory(config=IntegratorConfig(max_steps=999_999))
    # the inputs of the first span, with a later end, are integrated afresh
    trajectory()
    assert len(integrations) == 8

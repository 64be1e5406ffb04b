import gc
import math
import time
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from odesr.benchmark import run_fit
from odesr.benchmark import test_error as held_out_error
from odesr.expressions import parse_expr
from odesr.integrate import (
    IntegrationError,
    IntegratorConfig,
    RegressionDataset,
    Trajectory,
    _error_norm,
    finite_differences,
    integrate,
    integrate_fixed_step,
    make_dataset,
    make_trajectory,
    read_trajectory_csv,
    shared_trajectory,
    write_trajectory_csv,
)
from odesr.systems import cart_pole, get_system, lotka_volterra, simple_pendulum


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


def test_nan_rhs_truncates():
    def rhs(t, x):
        if t > 0.5:
            return np.array([math.nan])
        return np.array([1.0])

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, [0.0], (0.0, 1.0), 0.1)
    assert err.value.last_time <= 0.6


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
                assert _error_norm(err, scale).hex() == float(expected).hex()


def test_error_norm_sums_left_to_right():
    # adding the last three squares first changes the last bit of the norm
    err = np.array(
        [0.36457239618607573, 0.294132496655526, 0.02842224131579679, 0.5467129866124469]
    )
    scale = np.ones(4)
    squares = [v * v for v in err.tolist()]
    other_order = math.sqrt((squares[0] + (squares[1] + squares[2] + squares[3])) / 4)
    assert _error_norm(err, scale) == float(np.sqrt(np.mean((err / scale) ** 2)))
    assert _error_norm(err, scale) != other_order


def test_error_norm_zero_scale_takes_numpy_values():
    err = np.array([1.0, 0.0, -2.0])
    scale = np.array([0.0, 0.0, 1.0])
    with np.errstate(all="ignore"):
        assert math.isnan(_error_norm(err, scale))
        assert _error_norm(err[[0, 2]], scale[[0, 2]]) == math.inf


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
    trajectory(dt=0.05)
    trajectory(span=(0.0, 3.0))
    trajectory(config=IntegratorConfig(rtol=1e-9))
    trajectory(config=IntegratorConfig(max_steps=999_999))
    trajectory(rhs=lotka_volterra().rhs)
    trajectory(x0=(1.0, 2.0))
    assert len(integrate_calls) == 7
    # None and the default config are the same integration
    trajectory(config=IntegratorConfig())
    assert len(integrate_calls) == 7

    def decay(t, x):
        return -x

    plus = shared_trajectory(decay, [0.0, 1.0], (0.0, 1.0), 0.1)
    minus = shared_trajectory(decay, [-0.0, 1.0], (0.0, 1.0), 0.1)
    assert len(integrate_calls) == 9
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

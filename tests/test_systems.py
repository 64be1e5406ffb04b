import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odesr.expressions import compile_scalar, evaluate, evaluate_batch, parse_expr
from odesr.integrate import integrate, make_trajectory
from odesr.systems import (
    cart_pole,
    expression_system,
    get_system,
    lotka_volterra,
    simple_pendulum,
)


def test_lotka_volterra_rhs_values():
    sys = lotka_volterra()
    assert np.allclose(sys.rhs(0.0, np.array([1.0, 1.0])), [0.5, -2.0])
    # coexistence equilibrium
    assert np.allclose(sys.rhs(0.0, np.array([3.0, 1.5])), [0.0, 0.0])
    assert np.allclose(sys.rhs(0.0, np.array([0.0, 0.0])), [0.0, 0.0])


def test_lotka_volterra_metadata():
    sys = lotka_volterra()
    assert sys.dim == 2
    assert sys.target_dim == 1
    assert sys.variable_names == ("x", "y")
    assert sys.initial_state == (1.0, 1.0)
    assert sys.train_span == (0.0, 10.0)
    assert sys.test_span == (10.0, 15.0)


def test_pendulum_rhs_values():
    sys = simple_pendulum()
    assert np.allclose(sys.rhs(0.0, np.array([0.0, 0.0])), [0.0, 0.0])
    assert np.allclose(sys.rhs(0.0, np.array([math.pi / 2, 0.0])), [0.0, -9.81])
    assert np.allclose(sys.rhs(0.0, np.array([0.0, 1.0])), [1.0, -0.1])


def test_pendulum_metadata():
    sys = simple_pendulum()
    assert sys.dim == 2
    assert sys.target_dim == 1
    assert sys.variable_names == ("theta1", "theta2")
    assert sys.initial_state == (0.4 * math.pi, 1.0)


def test_cart_pole_rhs_at_origin():
    sys = cart_pole()
    got = sys.rhs(0.0, np.zeros(4))
    # F(0) = -0.2 enters both accelerations with opposite sign
    assert got[0] == 0.0
    assert got[1] == 0.0
    assert got[2] == pytest.approx(0.2, abs=1e-12)
    assert got[3] == pytest.approx(-0.2, abs=1e-12)


def test_cart_pole_zero_force_instant():
    # F(t) = -0.2 + 0.5 sin(6t) vanishes at t = asin(0.4)/6
    sys = cart_pole()
    t0 = math.asin(0.4) / 6.0
    got = sys.rhs(t0, np.array([0.0, 1.7, 0.0, -0.3]))
    assert got[2] == pytest.approx(0.0, abs=1e-12)


def test_cart_pole_metadata():
    sys = cart_pole()
    assert sys.dim == 4
    assert sys.target_dim == 2
    assert sys.variable_names == ("w", "x", "y", "z")
    assert sys.initial_state == (0.3, 0.0, 1.0, 0.0)


def test_cart_pole_acceleration_closed_form():
    # theta-acceleration written as one expression over (w, x, y, z, t)
    sys = cart_pole()
    expr = parse_expr(
        "(-1.0) * (cos(w)*(-0.2 + 0.5*sin(6.0*t)) + 19.62*sin(w)"
        " - cos(w)*sin(w)*y^2) * (1.0 / (2.0 - cos(w)^2))",
        sys.variable_names,
    )
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = rng.uniform(-3.0, 3.0, size=4)
        t = rng.uniform(0.0, 15.0)
        assert evaluate(expr, t, state) == pytest.approx(
            sys.rhs(t, state)[2], abs=1e-9
        )


@given(
    st.floats(0.05, 8.0),
    st.floats(0.05, 8.0),
)
@settings(max_examples=200, deadline=None)
def test_lotka_volterra_conserved_quantity(x, y):
    # C = 3 ln x - x + 1.5 ln y - y is constant along trajectories
    sys = lotka_volterra()
    dx, dy = sys.rhs(0.0, np.array([x, y]))
    grad = np.array([3.0 / x - 1.0, 1.5 / y - 1.0])
    assert abs(grad[0] * dx + grad[1] * dy) < 1e-12


@given(st.floats(-10.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_cart_pole_denominator_positive(w):
    assert 2.0 - math.cos(w) ** 2 >= 1.0


def test_undamped_pendulum_conserves_energy_pointwise():
    # with damping removed, dE/dt = v * a + g sin(theta) * v = 0
    g = 9.81

    def rhs(t, s):
        return np.array([s[1], -g * math.sin(s[0])])

    rng = np.random.default_rng(3)
    for _ in range(50):
        th, v = rng.uniform(-3, 3, size=2)
        a = rhs(0.0, np.array([th, v]))[1]
        assert abs(v * a + g * math.sin(th) * v) < 1e-12


def test_get_system_lookup():
    assert get_system("lotka_volterra").name == "lotka_volterra"
    assert get_system("simple_pendulum").name == "simple_pendulum"
    assert get_system("cart_pole").name == "cart_pole"
    with pytest.raises(KeyError):
        get_system("rossler")


def test_expression_system_matches_per_call_reference():
    # the right-hand side as it was before each dimension was compiled:
    # one 1-row evaluate_batch call per dimension per evaluation
    names = ("theta1", "theta2")
    texts = ("theta2", "-0.1 * theta2 - 9.81 * sin(theta1)")
    pendulum = simple_pendulum()
    system = expression_system(
        "pendulum_expr", texts, pendulum.initial_state, variable_names=names
    )
    exprs = [parse_expr(text, names) for text in texts]

    scalars = [compile_scalar(e) for e in exprs]

    def reference_rhs(t, s):
        return np.array([evaluate_batch(e, [t], [s])[0] for e in exprs])

    # and as it was before the state was converted once per evaluation
    def per_component_rhs(t, s):
        return np.array([f(t, s) for f in scalars])

    got = make_trajectory(system, "train", 0.1)
    for rhs in (reference_rhs, per_component_rhs):
        want = integrate(rhs, pendulum.initial_state, system.train_span, 0.1)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
    for t, s in [(0.5, np.array([0.3, -1.2])), (1, [2, 0]), (0.0, (math.inf, 1.0))]:
        assert system.rhs(t, s).tobytes() == per_component_rhs(t, s).tobytes()


@pytest.mark.parametrize(
    "train_span, test_span",
    [((0, 10), (20, 25)), ((0, 10), (5, 15)), ((0, 4), (10.0, 15.0))],
    ids=["gap", "overlap", "old default after a shorter train span"],
)
def test_expression_system_refuses_a_test_span_that_does_not_start_at_the_train_end(
    train_span, test_span
):
    # the test split is integrated on from the last train state, so a gap
    # scored a time-dependent right-hand side on a trajectory it never made
    with pytest.raises(ValueError, match=r"test_span must start where train_span ends, at "):
        expression_system("decay", ["-0.5 * x1 + sin(t)"], [1.0], train_span, test_span)


@pytest.mark.parametrize(
    "names", [("x", "x"), ("a b", "y"), ("x", "2x")], ids=["twice", "space", "leading digit"]
)
def test_expression_system_refuses_names_that_do_not_read_back(names):
    # a repeated name parsed to the first variable, so the second could not
    # be referenced, and a non-identifier printed text parse_expr rejects
    with pytest.raises(ValueError, match=r"^variable names must be distinct identifiers, got \("):
        expression_system("s", ["x1", "x2"], [1.0, 0.0], variable_names=names)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"test_span": (12.0, 15.0)},
         r"^test_span must start where train_span ends, at 10\.0, got \(12\.0, 15\.0\)$"),
        ({"train_span": (10.0, 0.0)}, r"^train_span must increase, got \(10\.0, 0\.0\)$"),
        ({"test_span": (10.0, 10.0)}, r"^test_span must increase, got \(10\.0, 10\.0\)$"),
        ({"target_dim": 2}, "^target_dim out of range$"),
        ({"target_dim": -1}, "^target_dim out of range$"),
        ({"name": "a/b"}, r"^name must be an identifier, got 'a/b'$"),
        ({"name": "lotka volterra"}, r"^name must be an identifier, got 'lotka volterra'$"),
        ({"variable_names": ("x",)}, "^one variable name per dimension$"),
        ({"variable_names": ("x", "y", "z")}, "^one variable name per dimension$"),
        ({"variable_names": ("x", "x")},
         r"^variable names must be distinct identifiers, got \('x', 'x'\)$"),
        ({"test_span": (10.0, math.inf)}, r"^test_span must have finite ends, got \(10\.0, inf\)$"),
        ({"initial_state": (math.nan, 1.0)}, r"^initial_state must be finite, got \(nan, 1\.0\)$"),
        ({"initial_state": (1.0, -math.inf)}, r"^initial_state must be finite, got \(1\.0, -inf\)$"),
    ],
    ids=["test span after a gap", "train span reversed", "empty test span",
         "target past the state", "negative target", "slash in the name",
         "space in the name", "too few variable names", "too many variable names",
         "variable name twice", "infinite test span end", "nan initial state",
         "infinite initial state"],
)
def test_system_variants_must_keep_the_trajectory_rules(changes, message):
    # a test split after a gap started from the train end state, so the
    # truth's test_error read 0.0; a target past the state raised IndexError;
    # a name with a slash wrote table.csv, then failed opening its run files;
    # a short names tuple failed in print_expr after the fit, and an infinite
    # span end in sample_grid with an OverflowError; a state that is not
    # finite was refused only by integrate, in a message that named no key
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(lotka_volterra(), **changes)


def test_expression_system_test_span_defaults_to_half_the_train_span_after_it():
    assert expression_system("decay", ["-0.5 * x1"], [1.0]).test_span == (10.0, 15.0)
    system = expression_system("decay", ["-0.5 * x1"], [1.0], train_span=(1, 5))
    assert (system.train_span, system.test_span) == ((1.0, 5.0), (5.0, 7.0))
    given = expression_system("decay", ["-0.5 * x1"], [1.0], (0, 4), (4, 20))
    assert given.test_span == (4.0, 20.0)

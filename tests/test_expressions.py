import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odesr.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    Binary,
    Const,
    ParseError,
    Time,
    Unary,
    Var,
    _contain,
    compile_scalar,
    complexity,
    evaluate,
    evaluate_batch,
    parse_expr,
    print_expr,
)
from odesr.genomes import decode, grammar_for_system, random_genome
from odesr.systems import SYSTEM_NAMES

PEND_NAMES = ("theta1", "theta2")


def finite_consts():
    return st.floats(allow_nan=False, allow_infinity=False, width=64).map(Const)


def exprs(max_vars=3):
    leaves = st.one_of(
        finite_consts(),
        st.integers(0, max_vars - 1).map(Var),
        st.just(Time()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(UNARY_OPS), children),
            st.builds(Binary, st.sampled_from(BINARY_OPS), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


# ---------------------------------------------------------------- evaluation


def test_evaluate_linear_pendulum_form_at_zero_velocity():
    e = parse_expr("(-1.0) + theta2 * (-9.81)", PEND_NAMES)
    assert evaluate(e, 0.0, [0.7, 0.0]) == -1.0


def test_identity_passes_value_through():
    e = Unary("identity", Var(0))
    assert evaluate(e, 0.0, [7.25]) == 7.25


def test_log_of_negative_is_nan():
    e = Unary("log", Var(0))
    assert math.isnan(evaluate(e, 0.0, [-2.0]))
    assert math.isnan(evaluate(e, 0.0, [0.0]))


def test_division_by_zero_is_nan():
    e = Binary("div", Const(1.0), Var(0))
    assert math.isnan(evaluate(e, 0.0, [0.0]))
    assert evaluate(e, 0.0, [4.0]) == 0.25


def test_pow_domain_rules():
    # negative base with integer exponent is fine, non-integer is not
    assert evaluate(Binary("pow", Const(-3.0), Const(1.0)), 0.0, [0.0]) == -3.0
    assert evaluate(Binary("pow", Const(-2.0), Const(3.0)), 0.0, [0.0]) == -8.0
    assert math.isnan(evaluate(Binary("pow", Const(-8.0), Const(0.5)), 0.0, [0.0]))
    assert math.isnan(evaluate(Binary("pow", Const(0.0), Const(-1.0)), 0.0, [0.0]))


def test_integer_pow_is_repeated_multiplication():
    x = math.pi
    e = Binary("pow", Var(0), Const(4.0))
    assert evaluate(e, 0.0, [x]) == ((x * x) * x) * x


def test_overflow_is_contained_not_absorbed():
    # exp overflow poisons the whole tree; 1/exp(huge) must not silently become 0
    inner = Unary("exp", Const(800.0))
    assert math.isnan(evaluate(inner, 0.0, [0.0]))
    outer = Binary("div", Const(1.0), inner)
    assert math.isnan(evaluate(outer, 0.0, [0.0]))


@pytest.mark.parametrize("op", ["sin", "cos", "exp", "log", "identity"])
def test_nan_subexpression_poisons_unary(op):
    poisoned = Binary("div", Const(1.0), Const(0.0))
    assert math.isnan(evaluate(Unary(op, poisoned), 0.0, [1.0]))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "pow"])
def test_nan_subexpression_poisons_binary(op):
    poisoned = Unary("log", Const(-1.0))
    assert math.isnan(evaluate(Binary(op, Const(1.0), poisoned), 0.0, [1.0]))
    assert math.isnan(evaluate(Binary(op, poisoned, Const(1.0)), 0.0, [1.0]))


def test_time_node_reads_t():
    assert evaluate(Time(), 3.5, [0.0]) == 3.5
    e = parse_expr("-0.2 + 0.5*sin(6.0*t)")
    assert evaluate(e, 0.0, [0.0]) == pytest.approx(-0.2)


def test_var_index_out_of_range_raises():
    with pytest.raises(ValueError):
        evaluate(Var(2), 0.0, [1.0, 2.0])


def test_batch_shape_mismatch_raises():
    with pytest.raises(ValueError):
        evaluate_batch(Var(0), np.zeros(3), np.zeros((2, 1)))


@given(exprs(), st.lists(st.floats(-3, 3), min_size=3, max_size=3), st.floats(-3, 3))
@settings(max_examples=150, deadline=None)
def test_batch_agrees_with_scalar(e, x, t):
    batch = evaluate_batch(e, np.array([t, t]), np.array([x, x]))
    scalar = evaluate(e, t, x)
    for got in batch:
        assert (math.isnan(got) and math.isnan(scalar)) or got == scalar


@given(exprs(), st.lists(st.floats(-3, 3), min_size=3, max_size=3), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_evaluation_is_pure(e, x, t):
    ts = np.array([t])
    xs = np.array([x])
    a = evaluate_batch(e, ts, xs)
    b = evaluate_batch(e, ts, xs)
    assert np.array_equal(a, b, equal_nan=True)


@given(exprs(), st.lists(st.floats(-3, 3), min_size=3, max_size=3), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_identity_is_transparent(e, x, t):
    wrapped = Unary("identity", e)
    a = evaluate(wrapped, t, x)
    b = evaluate(e, t, x)
    assert (math.isnan(a) and math.isnan(b)) or a == b
    assert complexity(wrapped) == complexity(e)


# ------------------------------------------------------- compiled scalar path

SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1e308, -1e308, 5e-324, -5e-324, 1.0, -1.0, 709.5, -745.0,
)


def points():
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-5, 5), st.floats())


def wide_exprs(max_vars=3):
    # constants take special values and integers on both sides of the
    # integer-pow limit; pow with a non-constant right side takes np.power
    consts = st.one_of(points(), st.integers(-70, 70).map(float)).map(Const)
    leaves = st.one_of(consts, st.integers(0, max_vars - 1).map(Var), st.just(Time()))

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(UNARY_OPS), children),
            st.builds(Binary, st.sampled_from(BINARY_OPS), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes()
    )


def assert_compiled_matches_batch(e, t, x):
    want = evaluate_batch(e, [t], [x])[0]
    # evaluate_batch silences floating-point errors; so must the compiled path
    with np.errstate(all="raise"):
        got = compile_scalar(e)(t, x)
    assert type(got) is float
    assert same_bits(got, want), (print_expr(e), t, x, got, want)


@given(wide_exprs(), st.lists(points(), min_size=3, max_size=3), points())
@settings(max_examples=400, deadline=None)
@example(Binary("pow", Var(0), Const(-2.0)), [math.inf, 0.0, 0.0], 0.0)
@example(Binary("pow", Var(0), Const(0.0)), [-math.inf, 0.0, 0.0], 0.0)
@example(Binary("pow", Var(0), Const(-2.0)), [1e200, 0.0, 0.0], 0.0)
@example(Binary("pow", Const(1.0), Var(1)), [0.0, math.nan, 0.0], 0.0)
@example(Binary("pow", Var(0), Const(0.5)), [-8.0, 0.0, 0.0], 0.0)
@example(Binary("pow", Var(0), Var(1)), [0.0, -1.5, 0.0], 0.0)
@example(Binary("pow", Var(0), Const(0.5)), [2.77902166, 0.0, 0.0], 0.0)
@example(Binary("pow", Var(0), Var(1)), [1.234567, 2.0, 0.0], 0.0)
@example(Binary("div", Var(0), Var(1)), [1.0, math.inf, 0.0], 0.0)
@example(Binary("div", Var(0), Var(1)), [1.0, -0.0, 0.0], 0.0)
@example(Binary("mul", Var(0), Var(1)), [1e200, 1e200, 0.0], 0.0)
@example(Unary("exp", Var(0)), [-math.inf, 0.0, 0.0], 0.0)
@example(Unary("exp", Var(0)), [709.9, 0.0, 0.0], 0.0)
@example(Unary("exp", Var(0)), [-745.0, 0.0, 0.0], 0.0)
@example(Unary("log", Var(0)), [0.0, 0.0, 0.0], 0.0)
@example(Unary("sin", Var(0)), [5e-324, 0.0, 0.0], 0.0)
@example(Unary("identity", Var(0)), [-0.0, 0.0, 0.0], 0.0)
def test_compiled_matches_batch(e, x, t):
    assert_compiled_matches_batch(e, t, x)


@given(
    st.sampled_from(SYSTEM_NAMES),
    st.integers(0, 2**32 - 1),
    st.lists(points(), min_size=4, max_size=4),
    points(),
)
@settings(max_examples=300, deadline=None)
def test_compiled_matches_batch_on_decoded_genomes(name, seed, x, t):
    grammar = grammar_for_system(name)
    e = decode(random_genome(60, grammar, np.random.default_rng(seed)), grammar)
    assert_compiled_matches_batch(e, t, x[: grammar.variable_count])


@pytest.mark.parametrize("op", [op for op in UNARY_OPS if op != "identity"])
def test_compiled_unary_sweep_matches_batch(op):
    # math.exp and numpy's exp differ in the last bit on a few percent of
    # these points, so the sweep pins the ufunc itself
    rng = np.random.default_rng(20261018)
    pts = np.concatenate([rng.uniform(-30.0, 30.0, 5000), rng.uniform(-700.0, 700.0, 5000)])
    if op == "log":
        pts = np.abs(pts)
    e = Unary(op, Var(0))
    f = compile_scalar(e)
    mismatched = [
        p for p in pts if not same_bits(f(0.0, [p]), evaluate_batch(e, [0.0], [[p]])[0])
    ]
    assert mismatched == []


@pytest.mark.parametrize("exponent", [0.5, -0.5, 2.0, -1.0, 1.0 / 3.0, 5.0, -7.0, 100.5])
@pytest.mark.parametrize("const", [False, True], ids=["var", "const"])
def test_compiled_power_sweep_matches_batch(exponent, const):
    # numpy computes x ** 0.5, x ** -1 and x ** 2 on scalars by sqrt,
    # reciprocal and square; the batch path runs the power loop instead.
    # A Var exponent takes np.power even at integer values; an integer
    # Const exponent takes _int_pow's multiplication order.
    rng = np.random.default_rng(20261018)
    pts = rng.uniform(0.0, 3.0, 2000)
    e = Binary("pow", Var(0), Const(exponent) if const else Var(1))
    f = compile_scalar(e)
    mismatched = [
        p
        for p in pts
        if not same_bits(f(0.0, [p, exponent]), evaluate_batch(e, [0.0], [[p, exponent]])[0])
    ]
    assert mismatched == []


def test_compiled_var_out_of_range_raises_like_batch():
    e = Binary("add", Unary("log", Const(-1.0)), Var(2))
    with pytest.raises(ValueError) as batch_err:
        evaluate_batch(e, [0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError) as scalar_err:
        compile_scalar(e)(0.0, [1.0, 2.0])
    assert str(scalar_err.value) == str(batch_err.value)


# ---------------------------------------------------------------- complexity


def test_complexity_counts_nodes():
    assert complexity(Const(2.0)) == 1
    assert complexity(parse_expr("(-1.0) + theta2 * (-9.81)", PEND_NAMES)) == 5
    assert complexity(Unary("identity", Unary("sin", Var(0)))) == 2


# ---------------------------------------------------------------- print/parse


def test_print_const():
    assert print_expr(Const(2.0)) == "2.0"


def test_print_uses_variable_names():
    e = Binary("mul", Var(0), Unary("sin", Var(2)))
    assert print_expr(e, ("w", "x", "y", "z")) == "(w * sin(y))"
    assert print_expr(e) == "(x1 * sin(x3))"


def test_parse_structure():
    got = parse_expr("x1*(1.5 - x2)")
    want = Binary("mul", Var(0), Binary("sub", Const(1.5), Var(1)))
    assert got == want


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expr("sin(")
    assert err.value.position == 4


def test_parse_unknown_identifier_names_token():
    with pytest.raises(ParseError, match="foo"):
        parse_expr("foo + 1.0")
    with pytest.raises(ParseError, match="tan"):
        parse_expr("tan(x1)")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expr("1.0 2.0")
    with pytest.raises(ParseError):
        parse_expr("")


def test_precedence_mul_over_add():
    got = parse_expr("2.0 + 3.0*x1")
    assert got == Binary("add", Const(2.0), Binary("mul", Const(3.0), Var(0)))


def test_pow_is_left_associative():
    e = parse_expr("2.0 ^ 3.0 ^ 2.0")
    assert evaluate(e, 0.0, [0.0]) == 64.0


def test_sub_is_left_associative():
    e = parse_expr("1.0 - 2.0 - 3.0")
    assert evaluate(e, 0.0, [0.0]) == -4.0


def test_unary_minus_binds_looser_than_pow():
    e = parse_expr("-x1^2.0")
    assert evaluate(e, 0.0, [3.0]) == -9.0


def test_unary_minus_after_operator():
    assert evaluate(parse_expr("2.0 * -3.0"), 0.0, [0.0]) == -6.0
    # exponent may carry a sign
    assert evaluate(parse_expr("2.0 ^ -1.0"), 0.0, [0.0]) == 0.5


def test_parse_with_system_names():
    e = parse_expr("cos(w)*z + y^2", ("w", "x", "y", "z"))
    assert e == Binary(
        "add",
        Binary("mul", Unary("cos", Var(0)), Var(3)),
        Binary("pow", Var(2), Const(2.0)),
    )


@given(exprs())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e)) == e


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_round_trip_with_named_variables(e):
    names = ("theta1", "theta2", "zz")
    assert parse_expr(print_expr(e, names), names) == e


def reference_contain(out, *parents):
    bad = ~np.isfinite(out)
    for p in parents:
        bad |= ~np.isfinite(p)
    if bad.any():
        out = np.where(bad, np.nan, out)
    return out


BIG = np.finfo(float).max
# nan, infinities, subnormals and finite values whose sums overflow
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, BIG, -BIG, 1e308]),
)


@given(data=st.data(), size=st.integers(0, 40), n_parents=st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_contain_matches_the_mask_formula(data, size, n_parents):
    arrays = [
        np.array(data.draw(st.lists(EDGE_FLOATS, min_size=size, max_size=size)), dtype=float)
        for _ in range(1 + n_parents)
    ]
    out, *parents = arrays
    with np.errstate(all="ignore"):  # as evaluate_batch calls it
        got = _contain(out, *parents)
    expected = reference_contain(out, *parents)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]
    assert (got is out) == (expected is out)


def test_contain_passes_finite_values_with_an_overflowing_sum():
    out = np.full(4, BIG)
    with np.errstate(all="ignore"):
        assert _contain(out, np.full(4, -BIG)) is out
        masked = _contain(out, np.array([1.0, 2.0, np.inf, 4.0]))
    assert [math.isnan(v) for v in masked] == [False, False, True, False]

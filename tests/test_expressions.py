import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odesr.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    UNARY_UFUNC,
    Binary,
    Const,
    ParseError,
    Time,
    Unary,
    Var,
    _contain,
    _int_exponent,
    _int_pow,
    _power,
    compile_components,
    compile_scalar,
    complexity,
    evaluate,
    evaluate_batch,
    parse_expr,
    print_expr,
)
from odesr.genomes import decode, grammar_for_system, random_genome
from odesr.systems import SYSTEM_NAMES, expression_system

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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Var(-1), "variable index must be >= 0, got -1"),
        (lambda: Unary("tan", Var(0)), "unknown unary op 'tan'"),
        (lambda: Binary("mod", Var(0), Var(1)), "unknown binary op 'mod'"),
    ],
    ids=["negative variable", "unary op", "binary op"],
)
def test_nodes_reject_invalid_fields(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_var_index_out_of_range_raises():
    with pytest.raises(ValueError):
        evaluate(Var(2), 0.0, [1.0, 2.0])


def test_batch_shape_mismatch_raises():
    with pytest.raises(ValueError):
        evaluate_batch(Var(0), np.zeros(3), np.zeros((2, 1)))


def test_batch_takes_1d_states_as_one_variable():
    e = parse_expr("2.0 * x1 + t")
    got = evaluate_batch(e, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert got.tolist() == [2.0, 5.0, 8.0]
    column = evaluate_batch(e, [0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]])
    assert got.tolist() == column.tolist()


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


# The reference for the generated functions: a closure per node over
# Python floats, each keeping _eval's rules on its own.

_SCALAR_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}
_TINY = float(np.finfo(float).tiny)
_QUIET_ARG = {
    "sin": lambda a: a == 0.0 or abs(a) >= _TINY,
    "cos": lambda a: True,
    "log": lambda a: a > 0.0,
    "exp": lambda a: -708.0 < a < 709.0,
}


def closure_compile(expr):
    node = closure_node(expr)

    def scalar(t, x):
        return node(float(t), np.asarray(x, dtype=float).ravel().tolist())

    return scalar


def closure_node(expr):
    if isinstance(expr, Const):
        value = expr.value
        return lambda t, xs: value
    if isinstance(expr, Var):
        index = expr.index

        def var(t, xs):
            try:
                return xs[index]
            except IndexError:
                raise ValueError(
                    f"variable index {index} out of range for "
                    f"state dimension {len(xs)}"
                ) from None

        return var
    if isinstance(expr, Time):
        return lambda t, xs: t
    if isinstance(expr, Unary):
        arg = closure_node(expr.arg)
        if expr.op == "identity":
            return arg
        ufunc, quiet = UNARY_UFUNC[expr.op], _QUIET_ARG[expr.op]

        def unary(t, xs):
            a = arg(t, xs)
            if not math.isfinite(a):
                return math.nan
            if quiet(a):
                out = float(ufunc(a))
            else:
                with np.errstate(all="ignore"):
                    out = float(ufunc(a))
            return out if math.isfinite(out) else math.nan

        return unary
    left, right = closure_node(expr.left), closure_node(expr.right)
    op = closure_binary(expr)

    def binary(t, xs):
        # both sides run first, so an out-of-range Var raises as in _eval
        l = left(t, xs)
        r = right(t, xs)
        if not (math.isfinite(l) and math.isfinite(r)):
            return math.nan
        try:
            out = op(l, r)
        except ZeroDivisionError:
            return math.nan
        return out if math.isfinite(out) else math.nan

    return binary


def closure_binary(expr):
    if expr.op != "pow":
        return _SCALAR_BINARY[expr.op]
    n = _int_exponent(expr)
    if n is None:
        return _power
    if n == 0:
        return lambda l, r: 1.0
    return lambda l, r: _int_pow(l, n)


def assert_generated_matches_closures(e, points):
    """compile_scalar(e) against the closures, bit for bit, at (t, x) points,
    with floating-point errors raising."""
    generated, reference = compile_scalar(e), closure_compile(e)
    with np.errstate(all="raise"):
        for t, x in points:
            got, want = generated(t, x), reference(t, x)
            assert type(got) is float
            assert same_bits(got, want), (print_expr(e), t, x, got, want)


GRAMMAR_POINT_VALUES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    1e200, -1e200, 1.0, -1.0, 1.5, -3.0, 0.5, 2.5, 709.5, -745.5,
)


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum"])
def test_generated_matches_closures_on_every_small_grammar_tree(name):
    from test_candidates import small_grammar_trees

    rng = np.random.default_rng(20261019)
    values = np.array(GRAMMAR_POINT_VALUES)
    pairs = [[v, v] for v in GRAMMAR_POINT_VALUES]  # equal sides: x - y divides by 0
    pairs += rng.choice(values, size=(24, 2)).tolist()
    pairs += rng.uniform(-4.0, 4.0, size=(8, 2)).tolist()
    points = [(0.0, x) for x in pairs]
    trees = small_grammar_trees(grammar_for_system(name))
    assert len(trees) == 3816
    for tree in trees:
        assert_generated_matches_closures(tree, points)


def test_an_out_of_range_var_after_a_nonfinite_node_names_the_first_in_order():
    # the log is nan before either Var is read, and Var(3) comes before Var(2)
    e = Binary(
        "add",
        Binary("mul", Unary("log", Const(-1.0)), Binary("sub", Var(0), Var(3))),
        Unary("sin", Binary("div", Var(2), Unary("log", Var(1)))),
    )
    messages = []
    for f in (
        lambda: compile_scalar(e)(0.0, [1.0, 0.0]),
        lambda: closure_compile(e)(0.0, [1.0, 0.0]),
        lambda: evaluate_batch(e, [0.0], [[1.0, 0.0]]),
        lambda: compile_components([Var(1), e, Var(5)])(0.0, [1.0, 0.0]),
    ):
        with pytest.raises(ValueError) as err:
            f()
        messages.append(str(err.value))
    assert messages == ["variable index 3 out of range for state dimension 2"] * 4


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324])
def test_generated_keeps_every_bit_of_a_constant(value):
    c = Const(value)
    trees = [
        c,
        Unary("identity", c),
        Binary("add", Var(0), c),
        Binary("mul", c, Var(0)),
        Binary("div", Var(0), c),
        Binary("pow", Var(0), c),
        Unary("exp", c),
        Unary("sin", Unary("identity", c)),
    ]
    for x in (1.0, -0.0, 3.0e-310, math.inf):
        for tree in trees:
            want = evaluate_batch(tree, [0.0], [[x]])[0]
            got = compile_scalar(tree)(0.0, [x])
            assert same_bits(got, want), (print_expr(tree), x, got, want)
            assert same_bits(got, closure_compile(tree)(0.0, [x]))
    # a constant at the root is returned as it is, every bit of it
    assert np.float64(compile_scalar(c)(0.0, [1.0])).tobytes() == np.float64(value).tobytes()


def test_expression_system_rhs_equals_its_components_compiled_one_by_one():
    names = ("a", "b", "c", "d", "e", "f")
    texts = (
        "b",  # a leaf
        "-0.1 * b - 9.81 * sin(a)",
        "a / (b - c) + log(c) * t",
        "exp(c ^ 2.0) - d ^ -3.0 + b ^ e",
        "2.0 ^ 0.5 + 0.0 * f",
        "t",
    )
    system = expression_system("mixed", texts, (1.0,) * 6, variable_names=names)
    scalars = [compile_scalar(parse_expr(text, names)) for text in texts]
    rng = np.random.default_rng(20261019)
    values = np.array(SPECIAL_FLOATS + (2.0, 0.5, -3.0))
    points = [(0.5, [0.3, -1.2, 2.0] * 2), (1.0, [0.0, 2.0, 2.0] * 2), (-0.0, [math.inf, 1.0, 0.0] * 2)]
    points += [(t, list(x)) for t, x in zip(rng.choice(values, 200), rng.choice(values, (200, 6)))]
    with np.errstate(all="raise"):
        for t, x in points:
            got = system.rhs(t, np.array(x))
            want = np.array([f(t, x) for f in scalars])
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (t, x, got, want)


def test_repeated_subtrees_match_closures():
    # equal subtrees share one local; constants that compare equal but
    # differ in sign do not: x*0.0 - x*(-0.0) is -0.0 at x = -1, and 0.0
    # if both products were one
    x, y = Var(0), Var(1)
    s, c = Unary("sin", x), Unary("cos", x)
    trees = [
        Binary("add", Binary("mul", s, c), Binary("div", Binary("pow", s, Const(2.0)), c)),
        Binary("sub", Binary("mul", x, Const(0.0)), Binary("mul", x, Const(-0.0))),
        Binary("mul", Unary("log", Binary("div", x, y)), Unary("exp", Binary("div", x, y))),
        Binary("pow", Binary("pow", x, y), Binary("pow", x, y)),
    ]
    points = [(0.0, [a, b]) for a in (-1.0, 0.0, -0.0, 0.5, 800.0, math.inf) for b in (0.0, 2.0, -3.0)]
    for tree in trees:
        assert_generated_matches_closures(tree, points)


def test_components_share_no_subtree_with_one_that_stopped_early():
    # the first component stops at log(x1) before it reaches exp(x2); the
    # second still computes exp(x2) itself
    shared = Unary("exp", Var(1))
    exprs = [Binary("add", Unary("log", Var(0)), shared), Binary("mul", shared, Const(2.0))]
    rhs = compile_components(exprs)
    for x in ([-1.0, 0.5], [2.0, 0.5], [-1.0, 800.0]):
        want = np.array([closure_compile(e)(0.0, x) for e in exprs])
        assert rhs(0.0, x).tobytes() == want.tobytes()


def test_generated_handles_a_depth_400_chain():
    e = Var(0)
    for i in range(400):
        e = Unary("sin", e) if i % 2 else Binary("add", e, Const(1e-3))
    points = [(0.0, [x]) for x in (0.0, -0.0, 0.7, -2.5, 5e-324, math.inf, math.nan)]
    assert_generated_matches_closures(e, points)
    for t, x in points:
        assert same_bits(compile_scalar(e)(t, x), evaluate_batch(e, [t], [x])[0])


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


def test_parse_ignores_trailing_whitespace():
    assert parse_expr("x1 ") == Var(0)
    assert parse_expr(" x1 * 2.0\t\n") == Binary("mul", Var(0), Const(2.0))


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expr("1.0 2.0")
    with pytest.raises(ParseError):
        parse_expr("")


@pytest.mark.parametrize(
    "text, message",
    [("x1 $", "unexpected character '$' at position 3"), ("(x1", "expected ')' at position 3")],
)
def test_parse_error_names_the_problem_and_its_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == message
    assert err.value.position == 3


def test_pow_with_a_negated_exponent_parses_and_round_trips():
    e = parse_expr("x1^-x2")
    assert e == Binary("pow", Var(0), Binary("mul", Const(-1.0), Var(1)))
    assert print_expr(e) == "(x1 ^ ((-1.0) * x2))"
    assert parse_expr(print_expr(e)) == e


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

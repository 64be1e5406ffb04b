import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expressions import wide_exprs

from odesr.benchmark import GROUND_TRUTH_EXPRESSIONS, run_fit
from odesr.benchmark import test_error as held_out_error
from odesr.candidates import Scorer, _finite_rmse, fitness, score
from odesr.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    UNARY_UFUNC,
    Binary,
    Const,
    Time,
    Unary,
    Var,
    evaluate_batch,
    parse_expr,
    print_expr,
)
from odesr.genomes import Grammar, grammar_for_system
from odesr.integrate import make_dataset, make_trajectory
from odesr.systems import get_system

BIG = np.finfo(float).max
# nan, infinities, subnormals and finite values whose sums overflow
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, BIG, -BIG, 1e308]),
)
FINITE_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, BIG, -BIG, 1e308]),
)


def reference_rmse(pred, targets):
    if not np.all(np.isfinite(pred)):
        return math.inf
    with np.errstate(over="ignore"):
        err = pred - targets
        value = float(np.sqrt(np.mean(err * err)))
    return value if math.isfinite(value) else math.inf


@given(
    size=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-310, 1.0, 1e150, 1e307]),
    edits=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 299), st.just(True), FINITE_EDGE_FLOATS),
            st.tuples(st.integers(0, 299), st.just(False), EDGE_FLOATS),
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_rmse_matches_sqrt_of_mean(size, seed, scale, edits):
    # normal values at several scales (subnormal, ordinary, squares that
    # overflow, sums that overflow), with a few edge values set in either
    # array, finite ones in the predictions: Scorer's loss once a walk has
    # found every value finite
    rng = np.random.default_rng(seed)
    pred, targets = rng.normal(size=size) * scale, rng.normal(size=size)
    for index, in_pred, value in edits:
        (pred if in_pred else targets)[index % size] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = reference_rmse(pred, targets)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        assert _finite_rmse(pred, targets).hex() == expected.hex()


def test_rmse_of_finite_values_whose_sum_overflows():
    pred = np.full(10, BIG)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        assert _finite_rmse(pred, pred) == reference_rmse(pred, pred) == 0.0
        assert _finite_rmse(pred, np.zeros(10)) == math.inf


def test_rmse_of_nothing_is_inf():
    with np.errstate(over="ignore", invalid="ignore"):
        assert _finite_rmse(np.array([]), np.array([])) == math.inf


def test_fitness_of_huge_finite_values_warns_as_before():
    data = make_dataset(get_system("lotka_volterra"), 0.1, "train")
    huge = Binary("mul", Const(1.5e307), Var(0))  # its sum overflows, its values do not
    cases = {
        huge: math.inf,  # the squared error overflows
        Binary("sub", huge, huge): reference_rmse(np.zeros(len(data.targets)), data.targets),
    }
    for expr, expected in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fitness(expr, data) == expected


# ------------------------------------------------- score against the reference

LV_TRAIN = make_dataset(get_system("lotka_volterra"), 0.1, "train")


def reference_fitness(expr, times, states, targets):
    return reference_rmse(evaluate_batch(expr, times, states), targets)


def checked_fitness(expr, data):
    """fitness(expr, data), once it is found equal to the reference bit for
    bit and to raise no RuntimeWarning."""
    expected = reference_fitness(expr, data.times, data.states, data.targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fitness(expr, data)
    assert got.hex() == expected.hex(), print_expr(expr)
    return got


def grammar_trees(leaves: tuple, size: int) -> list:
    """Every tree of `size` nodes over a GA grammar's leaf objects and
    operators, identity counted as a node."""
    if size == 1:
        return list(leaves)
    out = [Unary(op, a) for op in UNARY_OPS for a in grammar_trees(leaves, size - 1)]
    for op in BINARY_OPS:
        for left in range(1, size - 1):
            for a in grammar_trees(leaves, left):
                for b in grammar_trees(leaves, size - 1 - left):
                    out.append(Binary(op, a, b))
    return out


def small_grammar_trees(grammar, max_size=4) -> list:
    return [tree for size in range(1, max_size + 1) for tree in grammar_trees(grammar.leaves, size)]


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum"])
def test_fitness_matches_reference_on_every_small_grammar_tree(name):
    data = make_dataset(get_system(name), 0.1, "train")
    trees = small_grammar_trees(grammar_for_system(name))
    assert len(trees) == 3816
    scores = [checked_fitness(tree, data) for tree in trees]
    assert any(s == math.inf for s in scores) and any(s < math.inf for s in scores)


def checked_scores(scorer, trees, times, states, targets) -> list[float]:
    """scorer(tree) for each tree, called as run_ga calls it (under
    np.errstate(all="ignore")), once each is found equal to the reference
    bit for bit and to raise no RuntimeWarning."""
    out = []
    for tree in trees:
        expected = reference_fitness(tree, times, states, targets)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            got = scorer(tree)
        assert got.hex() == expected.hex(), print_expr(tree)
        out.append(got)
    return out


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum"])
def test_one_scorer_matches_reference_on_every_small_grammar_tree(name):
    # as a GA run scores: one scorer, every tree over the grammar's leaf objects
    data = make_dataset(get_system(name), 0.1, "train")
    grammar = grammar_for_system(name)
    scorer = Scorer(data.times, data.states, data.targets)
    trees = small_grammar_trees(grammar)
    scores = checked_scores(scorer, trees, data.times, data.states, data.targets)
    assert any(s == math.inf for s in scores) and any(s < math.inf for s in scores)
    # each leaf was bound once
    assert sorted(map(id, scorer._held)) == sorted(map(id, grammar.leaves))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_scorer_gives_inf_for_every_tree_over_a_nonfinite_pool_constant(bad):
    grammar = Grammar(variable_count=2, constant_pool=(1.5, bad))
    scorer = Scorer(LV_TRAIN.times, LV_TRAIN.states, LV_TRAIN.targets)
    trees = small_grammar_trees(grammar, max_size=3)
    scores = checked_scores(scorer, trees, LV_TRAIN.times, LV_TRAIN.states, LV_TRAIN.targets)
    for tree, value in zip(trees, scores):
        if repr(bad) in print_expr(tree):
            assert value == math.inf, print_expr(tree)
    assert any(s < math.inf for s in scores)
    assert scorer.leaf(grammar.leaves[3]) is None


def test_scorer_reads_time_leaves_and_leaves_the_callers_arrays_writeable():
    system = get_system("cart_pole")  # its force depends on t
    data = make_dataset(system, 0.1, "train")
    assert data.times.flags.writeable and data.states.flags.writeable
    scorer = Scorer(data.times, data.states, data.targets)
    t = Time()
    trees = [
        t,
        Unary("sin", Binary("mul", Const(6.0), t)),
        Binary("add", Var(2), Binary("mul", Const(0.5), Unary("sin", Binary("mul", Const(6.0), t)))),
        Binary("div", Var(0), Binary("sub", t, t)),
        Unary("log", Binary("sub", t, Const(5.0))),
    ]
    scores = checked_scores(scorer, trees, data.times, data.states, data.targets)
    assert scores[-2:] == [math.inf, math.inf] and all(s < math.inf for s in scores[:3])
    assert data.times.flags.writeable and data.states.flags.writeable
    assert np.shares_memory(scorer.leaf(t), data.times)


def test_cached_leaf_arrays_are_read_only_views():
    states = LV_TRAIN.states.copy()
    scorer = Scorer(LV_TRAIN.times, states, LV_TRAIN.targets)
    x2, c, t = Var(1), Const(-3.0), Time()
    for leaf in (x2, c, t):
        values = scorer.leaf(leaf)
        assert scorer.leaf(leaf) is values  # bound once
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    assert np.shares_memory(scorer.leaf(x2), states)
    assert scorer.leaf(x2).tobytes() == states[:, 1].tobytes()
    assert scorer.leaf(c).tobytes() == np.full(len(states), -3.0).tobytes()
    states[0, 1] = 7.0  # the caller's array is not frozen
    with pytest.raises(ValueError, match="out of range"):
        scorer.leaf(Var(2))


def test_scorer_binds_a_finite_leaf_whose_sum_of_squares_overflows():
    # 1e200 squared overflows, so the leaf's dot product is inf while every
    # value is finite: the exact check must keep it
    states = LV_TRAIN.states.copy()
    states[:, 0] *= 1e200
    scorer = Scorer(LV_TRAIN.times, states, LV_TRAIN.targets)
    trees = [Var(0), Binary("mul", Const(1e-200), Var(0)), Binary("sub", Var(0), Var(0))]
    scores = checked_scores(scorer, trees, LV_TRAIN.times, states, LV_TRAIN.targets)
    assert scorer.leaf(trees[0]) is not None
    assert scores[0] == math.inf and scores[1] < math.inf and scores[2] < math.inf


def test_scorer_tells_signed_zero_constants_apart():
    # equal as dataclasses, so a cache keyed by value would give -0.0 the
    # array of 0.0
    scorer = Scorer(LV_TRAIN.times, LV_TRAIN.states, LV_TRAIN.targets)
    zero, negative = Const(0.0), Const(-0.0)
    assert zero == negative
    assert np.signbit(scorer.leaf(negative)).all() and not np.signbit(scorer.leaf(zero)).any()


STATE_EDGES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 0.0)


@given(
    wide_exprs(max_vars=2),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 1), st.sampled_from(STATE_EDGES)),
        max_size=3,
    ),
)
@settings(max_examples=400, deadline=None)
def test_score_matches_reference_on_hypothesis_trees(expr, edits):
    # the Lotka-Volterra train set, with a few state entries set to edge values
    states = LV_TRAIN.states.copy()
    for row, column, value in edits:
        states[row % len(states), column] = value
    expected = reference_fitness(expr, LV_TRAIN.times, states, LV_TRAIN.targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = score(expr, LV_TRAIN.times, states, LV_TRAIN.targets)
    assert got.hex() == expected.hex(), print_expr(expr)


HUGE = Binary("mul", Const(1.5e307), Var(0))  # finite values whose sum overflows
EXP_EXP = Unary("exp", Unary("exp", Binary("mul", Const(7.0), Var(0))))  # inf where x1 > 0.94
EDGE_EXPRS = {
    "const inf": Const(math.inf),
    "const nan": Const(math.nan),
    "identity of const inf": Unary("identity", Const(math.inf)),
    "one over const inf": Binary("div", Const(1.0), Const(math.inf)),
    "exp of const -inf": Unary("exp", Const(-math.inf)),
    "x ^ 0 over nan": Binary("pow", Unary("log", Binary("sub", Var(0), Const(3.0))), Const(0.0)),
    "x ^ 0": Binary("pow", Var(1), Const(0.0)),
    "sum overflows": HUGE,
    "sum overflows, values cancel": Binary("sub", HUGE, HUGE),
    "exp(-exp(exp(x))) absorbs inf": Unary("exp", Binary("mul", Const(-1.0), EXP_EXP)),
    "1 / exp(exp(x)) absorbs inf": Binary("div", Var(1), EXP_EXP),
}


@pytest.mark.parametrize("name", EDGE_EXPRS)
def test_fitness_matches_reference_on_edge_cases(name):
    got = checked_fitness(EDGE_EXPRS[name], LV_TRAIN)
    assert (got < math.inf) == (name in {"x ^ 0", "sum overflows, values cancel"})


@pytest.mark.parametrize(
    "expr",
    [Var(0), Binary("div", Const(1.0), Var(0)), Unary("exp", Binary("mul", Const(-1.0), Var(0)))],
    ids=["x", "1 / x", "exp(-x)"],
)
def test_fitness_of_a_state_column_holding_inf(expr):
    # the old check caught 1 / inf and exp(-inf) only at the parent node
    states = LV_TRAIN.states.copy()
    states[7, 0] = math.inf
    assert checked_fitness(expr, dataclasses.replace(LV_TRAIN, states=states)) == math.inf


@pytest.mark.parametrize(
    "expr",
    [
        Binary("add", Unary("log", Const(-1.0)), Var(5)),
        Binary("mul", Binary("add", Const(math.inf), Var(0)), Unary("sin", Var(3))),
        Binary("sub", Binary("div", Var(0), Const(0.0)), Binary("add", Var(1), Var(2))),
    ],
    ids=["log(-1) + x6", "(inf + x1) * sin(x4)", "x1 / 0 - (x2 + x3)"],
)
def test_out_of_range_var_after_a_nonfinite_operand_raises(expr):
    with pytest.raises(ValueError) as reference:
        evaluate_batch(expr, LV_TRAIN.times, LV_TRAIN.states)
    with pytest.raises(ValueError) as got:
        fitness(expr, LV_TRAIN)
    assert str(got.value) == str(reference.value)


def test_fitness_stops_at_the_first_nonfinite_node(monkeypatch):
    calls = []

    def counting_sin(a):
        calls.append(a)
        return np.sin(a)

    monkeypatch.setitem(UNARY_UFUNC, "sin", counting_sin)
    expr = Binary("add", Unary("log", Const(-1.0)), Unary("sin", Var(0)))
    assert fitness(expr, LV_TRAIN) == math.inf
    assert calls == []
    assert fitness(Unary("sin", Var(0)), LV_TRAIN) < math.inf
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_test_error_matches_reference_on_the_truth(name):
    system = get_system(name)
    expr = parse_expr(GROUND_TRUTH_EXPRESSIONS[name], system.variable_names)
    traj = make_trajectory(system, "test", 0.1)
    times, states = traj.times[:-1], traj.states[:-1]
    truth = np.array([system.rhs(t, s)[system.target_dim] for t, s in zip(times, states)])
    expected = reference_fitness(expr, times, states, truth)
    assert held_out_error(expr, system).hex() == expected.hex()


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum", "cart_pole"])
def test_one_off_score_matches_a_scorer_on_a_sindy_fit(name):
    # a SINDy fit holds many leaves, each met once; the one-off score makes
    # them where it meets them and leaves the caller's arrays as they were
    system = get_system(name)
    data = make_dataset(system, 0.1, "train")
    expr = parse_expr(run_fit("sindy", system, sample_dt=0.1)["expression"], system.variable_names)
    got = score(expr, data.times, data.states, data.targets)
    assert got.hex() == Scorer(data.times, data.states, data.targets)(expr).hex()
    assert got.hex() == reference_fitness(expr, data.times, data.states, data.targets).hex()
    assert data.times.flags.writeable and data.states.flags.writeable

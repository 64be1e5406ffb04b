import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from odesr.expressions import (
    Binary,
    Const,
    Unary,
    Var,
    complexity,
    evaluate_batch,
    parse_expr,
    print_expr,
)
from odesr.feynman import (
    _CHUNK_ROWS,
    FeynmanConfig,
    ParetoFront,
    brute_force,
    monomial_exponents,
    pareto_front,
    pareto_rows,
    polyfit,
    run_pipeline,
    separability_split,
    write_pareto_rows,
)
from odesr import feynman
from odesr.candidates import CandidateSolution, fitness, make_candidate
from odesr.integrate import RegressionDataset, make_dataset
from odesr.systems import get_system, lotka_volterra


def dataset_from(states, targets, times=None):
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if times is None:
        times = np.arange(len(states), dtype=float) * 0.1
    return RegressionDataset(times, states, targets, 0.1, 0)


@pytest.fixture
def planted_poly():
    # targets are exactly 1.5*x - x*y, a degree-2 polynomial
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2.0, 2.0, size=(50, 2))
    t = 1.5 * xs[:, 0] - xs[:, 0] * xs[:, 1]
    return dataset_from(xs, t)


@pytest.fixture
def planted_sine():
    # targets are exactly -9.81*sin(x1)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-2.0, 2.0, size=(80, 2))
    t = -9.81 * np.sin(xs[:, 0])
    return dataset_from(xs, t)


# ------------------------------------------------------------------ polyfit


def test_monomial_exponents_order_and_count():
    exps = monomial_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    # C(k + d, d) monomials in k variables up to total degree d
    assert len(monomial_exponents(4, 4)) == math.comb(8, 4)


def test_polyfit_recovers_planted_coefficients(planted_poly):
    cand, coeffs = polyfit(planted_poly, 2, return_coefficients=True)
    exps = monomial_exponents(2, 2)
    table = dict(zip(exps, coeffs))
    assert table[(1, 0)] == pytest.approx(1.5, abs=1e-8)
    assert table[(1, 1)] == pytest.approx(-1.0, abs=1e-8)
    others = [c for e, c in table.items() if e not in ((1, 0), (1, 1))]
    assert max(abs(c) for c in others) < 1e-8
    assert cand.train_rmse < 1e-8


def test_polyfit_expression_matches_fit(planted_poly):
    cand = polyfit(planted_poly, 2)
    # the returned expression reproduces the fitted values
    assert fitness(cand.expr, planted_poly) == pytest.approx(
        cand.train_rmse, abs=1e-10
    )
    pred = evaluate_batch(cand.expr, planted_poly.times, planted_poly.states)
    assert np.allclose(pred, planted_poly.targets, atol=1e-7)


def test_polyfit_zero_targets_gives_zero_constant(planted_poly):
    data = dataset_from(planted_poly.states, np.zeros(len(planted_poly.targets)))
    cand = polyfit(data, 3)
    assert cand.expr == Const(0.0)
    assert cand.train_rmse == 0.0
    assert cand.complexity == 1


def test_polyfit_underdetermined_raises():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 2))
    data = dataset_from(xs, xs[:, 0])
    # degree 2 in two variables needs more than 6 samples
    with pytest.raises(ValueError, match="6"):
        polyfit(data, 2)


def test_polyfit_rmse_monotone_in_degree():
    data = make_dataset(lotka_volterra(), 0.1, "train")
    rmses = [polyfit(data, d).train_rmse for d in range(1, 5)]
    for lo, hi in zip(rmses[1:], rmses[:-1]):
        assert lo <= hi + 1e-12


def test_polyfit_restricted_variables(planted_sine):
    # fitting on x2 alone cannot explain a function of x1
    full = polyfit(planted_sine, 3)
    only_x2 = polyfit(planted_sine, 3, variables=(1,))
    assert only_x2.train_rmse > 1.0
    assert full.train_rmse < only_x2.train_rmse


# -------------------------------------------------------------- brute force


def test_brute_force_single_node_is_scaled_variables(planted_sine):
    cands = brute_force(planted_sine, FeynmanConfig(max_brute_nodes=1))
    skeletons = sorted(print_expr(c.expr.right) for c in cands)
    assert skeletons == ["x1", "x2"]
    for c in cands:
        assert isinstance(c.expr, Binary) and c.expr.op == "mul"
        assert isinstance(c.expr.left, Const)


def test_brute_force_recovers_planted_sine(planted_sine):
    cands = brute_force(planted_sine, FeynmanConfig(max_brute_nodes=3))
    best = min(cands, key=lambda c: (c.train_rmse, c.complexity))
    assert best.train_rmse < 1e-6
    assert best.expr.right == Unary("sin", Var(0))
    assert best.expr.left.value == pytest.approx(-9.81, abs=1e-6)


def test_brute_force_matches_exhaustive_enumeration(planted_sine):
    """Cross-check the generator against a direct recursive enumeration
    with canonical commutative ordering."""
    cfg = FeynmanConfig(max_brute_nodes=4)
    data = planted_sine

    def canonical(expr):
        if isinstance(expr, Unary):
            return Unary(expr.op, canonical(expr.arg))
        if isinstance(expr, Binary):
            left, right = canonical(expr.left), canonical(expr.right)
            if expr.op in ("add", "mul") and print_expr(left) > print_expr(right):
                left, right = right, left
            return Binary(expr.op, left, right)
        return expr

    def all_trees(size):
        if size == 1:
            return [Var(0), Var(1)]
        out = []
        for op in cfg.unary_set:
            out.extend(Unary(op, a) for a in all_trees(size - 1))
        for op in cfg.binary_set:
            for ls in range(1, size - 1):
                for a in all_trees(ls):
                    for b in all_trees(size - 1 - ls):
                        out.append(Binary(op, a, b))
        return out

    expected = set()
    for size in range(1, cfg.max_brute_nodes + 1):
        for tree in all_trees(size):
            vals = evaluate_batch(tree, data.times, data.states)
            if np.all(np.isfinite(vals)) and float(vals @ vals) > 0.0:
                expected.add(print_expr(canonical(tree)))

    got = [print_expr(c.expr.right) for c in brute_force(data, cfg)]
    assert len(got) == len(set(got))
    assert set(got) == expected


def reference_brute_force(data, cfg, variables=None):
    """The per-skeleton loop that brute_force's block evaluation replaced:
    one numpy call and one closed-form fit per candidate. Returns the
    candidates as (expr, train_rmse) pairs, the number of skeletons dropped
    for leaving the reals, and the largest number of skeletons built from
    one (operator, left size) group."""
    unary_fn = {"sin": np.sin, "cos": np.cos, "log": np.log, "exp": np.exp}
    binary_fn = {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
        "div": np.true_divide,
    }
    targets = np.asarray(data.targets, dtype=float)
    n = len(targets)
    vars_ = tuple(range(data.states.shape[1])) if variables is None else variables
    out = []
    dropped = 0
    largest_group = 0

    def emit(expr, values):
        gg = float(values @ values)
        if not math.isfinite(gg) or gg <= 0.0:
            return
        c = float(targets @ values) / gg
        if not math.isfinite(c):
            return
        resid = c * values - targets
        rmse = math.sqrt(float(resid @ resid) / n)
        if not math.isfinite(rmse):
            return
        out.append((Binary("mul", Const(c), expr), rmse))

    table = {1: []}
    with np.errstate(all="ignore"):
        for v in vars_:
            values = data.states[:, v].astype(float)
            table[1].append((Var(v), print_expr(Var(v)), values))
            emit(Var(v), values)
        for size in range(2, cfg.max_brute_nodes + 1):
            entries = []
            for op in cfg.unary_set:
                largest_group = max(largest_group, len(table[size - 1]))
                for child, _, child_values in table[size - 1]:
                    values = unary_fn[op](child_values)
                    if not np.isfinite(values).all():
                        dropped += 1
                        continue
                    expr = Unary(op, child)
                    entries.append((expr, print_expr(expr), values))
                    emit(expr, values)
            for op in cfg.binary_set:
                for left_size in range(1, size - 1):
                    group = 0
                    right_table = table[size - 1 - left_size]
                    for left, left_str, left_values in table[left_size]:
                        for right, right_str, right_values in right_table:
                            if op in ("add", "mul") and left_str > right_str:
                                continue
                            group += 1
                            values = binary_fn[op](left_values, right_values)
                            if not np.isfinite(values).all():
                                dropped += 1
                                continue
                            expr = Binary(op, left, right)
                            entries.append((expr, print_expr(expr), values))
                            emit(expr, values)
                    largest_group = max(largest_group, group)
            table[size] = entries
    return out, dropped, largest_group


def mixed_sign_dataset():
    rng = np.random.default_rng(12)
    # x2 and x3 take negative values, so log() of them leaves the reals
    xs = rng.uniform(-1.5, 2.0, size=(60, 3))
    xs[:, 0] = np.abs(xs[:, 0]) + 0.1
    targets = 0.7 * xs[:, 0] * np.sin(xs[:, 1]) - xs[:, 2] ** 2
    return dataset_from(xs, targets)


def assert_matches_reference(got, want):
    assert [print_expr(c.expr) for c in got] == [print_expr(e) for e, _ in want]
    assert [c.train_rmse for c in got] == [rmse for _, rmse in want]
    assert all(type(c.train_rmse) is float for c in got)
    assert [c.complexity for c in got] == [complexity(c.expr) for c in got]


@pytest.mark.parametrize("variables", [None, (0, 2)])
def test_brute_force_matches_per_candidate_reference(variables):
    """Block evaluation returns exactly the per-skeleton loop's candidates:
    the same printed forms in the same order and the same RMSE bits."""
    data = mixed_sign_dataset()
    cfg = FeynmanConfig(max_brute_nodes=6)
    want, dropped, largest_group = reference_brute_force(data, cfg, variables)
    assert dropped > 0
    assert largest_group > _CHUNK_ROWS
    assert_matches_reference(brute_force(data, cfg, variables), want)


SMALL_CONFIGS = {
    "1-node": dict(max_brute_nodes=1),
    "2-node": dict(max_brute_nodes=2),
    "3-node": dict(max_brute_nodes=3),
    "5-node-exp-sin": dict(
        max_brute_nodes=5, unary_set=("exp", "sin"), binary_set=("mul", "sub")
    ),
}


@pytest.mark.parametrize("variables", [None, (2,), (0, 2)])
@pytest.mark.parametrize("config", list(SMALL_CONFIGS))
def test_brute_force_matches_reference_at_small_sizes(config, variables):
    """The top size's unary skeletons are fitted from the blocks of the size
    below: with one node there is none, with two the size below is the
    variables, with three it has unary skeletons only. The order (unary
    ops in unary_set order) and the RMSE bits still match the per-skeleton
    loop."""
    data = mixed_sign_dataset()
    cfg = FeynmanConfig(**SMALL_CONFIGS[config])
    want, _, _ = reference_brute_force(data, cfg, variables)
    assert_matches_reference(brute_force(data, cfg, variables), want)


def exact_top_skeleton_dataset(scale=1.0):
    # targets are 1.7 * ((x1 * x2) * x3) times scale: at a top size of 5
    # several skeletons ((x1 * x3) * x2, x1 * (x2 * x3), ...) fit them to
    # rounding, so their residual sums are all rounding
    rng = np.random.default_rng(31)
    xs = rng.uniform(0.5, 2.0, size=(50, 3))
    return dataset_from(xs, scale * (1.7 * ((xs[:, 0] * xs[:, 1]) * xs[:, 2])))


def huge_states_dataset():
    # x1 is near 1e200: top-size rows such as (x1 + sin(x2)) are finite,
    # but their gg overflows
    rng = np.random.default_rng(32)
    xs = rng.uniform(0.5, 2.0, size=(50, 3))
    xs[:, 0] *= 1e200
    return dataset_from(xs, np.sin(xs[:, 1]) * xs[:, 2] + xs[:, 0] * 1e-200)


def subnormal_gg_dataset():
    # x1 is x2 times 1e-161, so the gg of x1 is a subnormal number, and its
    # few significant bits put the fitted constant of x1 percents off
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.5, 2.0, size=(50, 3))
    xs[:, 0] = xs[:, 1] * 1e-161
    return dataset_from(xs, xs[:, 1] + 1e-3 * np.sin(xs[:, 2]))


def top_size_nonfinite_dataset():
    # every variable is finite and, at a top size of 3, x1 / x1 is nan
    # where x1 is 0, exp(exp(x2)) overflows and log(sin(x1)) leaves the
    # reals where x1 < 0; the values stay small enough for a degree-4
    # polynomial fit
    rng = np.random.default_rng(33)
    xs = rng.uniform(-1.0, 1.0, size=(50, 3))
    xs[:, 1] = rng.uniform(300.0, 320.0, size=50)
    xs[7, 0] = 0.0
    return dataset_from(xs, np.cos(xs[:, 0]) - 0.01 * xs[:, 1] * xs[:, 2])


TOP_SIZE_EDGES = {
    "exact-5": (exact_top_skeleton_dataset, 5),
    "exact_times_1e150-5": (lambda: exact_top_skeleton_dataset(1e150), 5),
    "exact_times_1e-150-5": (lambda: exact_top_skeleton_dataset(1e-150), 5),
    "states_near_1e200-5": (huge_states_dataset, 5),
    "subnormal_gg-5": (subnormal_gg_dataset, 5),
    "nonfinite_at_top-3": (top_size_nonfinite_dataset, 3),
    "nonfinite_at_top-4": (top_size_nonfinite_dataset, 4),
}


@pytest.mark.parametrize("case", list(TOP_SIZE_EDGES))
def test_brute_force_matches_reference_at_top_size_edges(case):
    """Top-size blocks are fitted without dropping their non-finite rows
    first, and each row's exact residual is computed on its own. The
    candidates, constants and RMSE bits still match the per-skeleton loop,
    and the best fit at each complexity that run_pipeline's consumer keeps
    is the full list's."""
    make_data, nodes = TOP_SIZE_EDGES[case]
    data = make_data()
    cfg = FeynmanConfig(max_brute_nodes=nodes)
    want, _, _ = reference_brute_force(data, cfg)
    got = brute_force(data, cfg)
    assert_matches_reference(got, want)
    assert [c.expr.left.value.hex() for c in got] == [e.left.value.hex() for e, _ in want]

    bests = feynman._BestPerComplexity()
    feynman._enumerate(data, cfg, None, bests.block)
    full = [CandidateSolution(e, rmse, complexity(e)) for e, rmse in want]
    assert {
        comp: (c.train_rmse.hex(), print_expr(c.expr)) for comp, c in bests.at.items()
    } == {
        comp: (c.train_rmse.hex(), print_expr(c.expr))
        for comp, c in reference_best_at(full).items()
    }


def test_top_size_edges_reach_their_edges():
    """The edge inputs hold what their comments say."""
    cfg = FeynmanConfig(max_brute_nodes=5)
    exact = brute_force(exact_top_skeleton_dataset(), cfg)
    near_zero = [c for c in exact if c.complexity == 7 and c.train_rmse < 1e-14]
    assert len({c.train_rmse for c in near_zero}) > 1

    with np.errstate(all="ignore"):
        huge = huge_states_dataset().states
        row = huge[:, 0] + np.sin(huge[:, 1])
        assert np.isfinite(row).all() and not np.isfinite(row @ row)
        small = subnormal_gg_dataset().states[:, 0]
        assert 0.0 < small @ small < np.finfo(float).tiny

        xs = top_size_nonfinite_dataset().states
        assert np.isfinite(xs).all()
        assert np.isnan(xs[:, 0] / xs[:, 0]).any()
        assert np.isfinite(np.exp(xs[:, 1])).all()
        assert np.isinf(np.exp(np.exp(xs[:, 1]))).all()
    polyfit(top_size_nonfinite_dataset(), 4)


def test_brute_force_discards_domain_violations():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2.0, -0.5, size=(40, 1))
    data = dataset_from(xs, xs[:, 0] ** 2)
    cands = brute_force(data, FeynmanConfig(max_brute_nodes=2))
    skeletons = {print_expr(c.expr.right) for c in cands}
    assert "log(x1)" not in skeletons
    assert "cos(x1)" in skeletons
    for c in cands:
        pred = evaluate_batch(c.expr, data.times, data.states)
        assert np.all(np.isfinite(pred))


def test_brute_force_stored_rmse_matches_reevaluation(planted_sine):
    cands = brute_force(planted_sine, FeynmanConfig(max_brute_nodes=3))
    for c in cands[::7]:
        assert fitness(c.expr, planted_sine) == pytest.approx(
            c.train_rmse, rel=1e-12, abs=1e-12
        )
        assert c.complexity == complexity(c.expr)


def test_brute_force_deterministic(planted_sine):
    cfg = FeynmanConfig(max_brute_nodes=4)
    a = brute_force(planted_sine, cfg)
    b = brute_force(planted_sine, cfg)
    assert [print_expr(c.expr) for c in a] == [print_expr(c.expr) for c in b]
    assert [c.train_rmse for c in a] == [c.train_rmse for c in b]


def test_pipeline_never_holds_the_top_size_table():
    """run_pipeline's allocation peak on the cart-pole train set stays below
    what the values of its 30,488 finite size-6 skeletons (the size below
    the default top of 7) would take: 100 samples of 8 bytes each."""
    data = benchmark_train_set("cart_pole")
    assert len(data.targets) == 100
    tracemalloc.start()
    try:
        run_pipeline(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30_488 * 100 * 8


# ------------------------------------------------------------- separability


def separable_dataset():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, size=(120, 2))
    t = np.sin(xs[:, 0]) + xs[:, 1] ** 2
    return dataset_from(xs, t)


def test_separability_split_finds_additive_structure():
    split = separability_split(separable_dataset())
    assert split is not None
    vars_a, vars_b, ds_a, ds_b = split
    assert vars_a == (0,)
    assert vars_b == (1,)
    # block B carries the quadratic once block A's share is removed
    cand_b = polyfit(ds_b, 2, variables=vars_b)
    pred = evaluate_batch(cand_b.expr, ds_b.times, ds_b.states)
    assert np.sqrt(np.mean((pred - ds_b.targets) ** 2)) < 0.05
    # block A's centred target is the sine up to surrogate error
    g = np.sin(ds_a.states[:, 0])
    c = float(ds_a.targets @ g) / float(g @ g)
    assert c == pytest.approx(1.0, abs=0.05)


def test_separability_rejects_product():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2.0, 2.0, size=(120, 2))
    data = dataset_from(xs, xs[:, 0] * xs[:, 1])
    assert separability_split(data) is None


def test_separability_needs_two_variables():
    rng = np.random.default_rng(2)
    xs = rng.uniform(-2.0, 2.0, size=(40, 1))
    data = dataset_from(xs, np.sin(xs[:, 0]))
    assert separability_split(data) is None


def test_separability_exact_polynomial_reassembles():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.0, 2.0, size=(120, 2))
    t = 1.0 + xs[:, 0] ** 2 + xs[:, 1] ** 2
    split = separability_split(dataset_from(xs, t))
    assert split is not None
    vars_a, vars_b, ds_a, ds_b = split
    ca = polyfit(ds_a, 2, variables=vars_a)
    cb = polyfit(ds_b, 2, variables=vars_b)
    total = Binary("add", ca.expr, cb.expr)
    pred = evaluate_batch(total, ds_a.times, ds_a.states)
    assert np.max(np.abs(pred - t)) < 1e-8


def test_separability_needs_more_samples_than_the_surrogates_monomials():
    # the degree-4 surrogate in two variables has 15 monomials
    assert len(monomial_exponents(2, 4)) == 15
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2.0, 2.0, size=(16, 2))
    t = xs[:, 0] ** 2 + xs[:, 1] ** 3
    assert separability_split(dataset_from(xs[:15], t[:15])) is None
    assert separability_split(dataset_from(xs, t)) is not None


def reference_monomial_exponents(n_vars, degree):
    """monomial_exponents as first written, through a set."""
    exps = set()
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            e = [0] * n_vars
            for v in combo:
                e[v] += 1
            exps.add(tuple(e))
    return sorted(exps)


def reference_separability_split(data, tolerance=1e-2):
    """separability_split as first written: its own surrogate fit, and
    three list scans of the exponents for each bipartition."""
    states = data.states
    targets = np.asarray(data.targets, dtype=float)
    k = states.shape[1]
    if k < 2:
        return None
    exps = reference_monomial_exponents(k, 4)
    if len(targets) <= len(exps):
        return None
    cols = feynman._design_columns(states, tuple(range(k)), exps)
    w, *_ = np.linalg.lstsq(cols, targets, rcond=None)
    total = float(np.linalg.norm(w))
    if total == 0.0:
        return None
    best = None
    for mask in range(1, 2**k - 1):
        if not mask & 1:
            continue
        vars_a = tuple(i for i in range(k) if mask >> i & 1)
        vars_b = tuple(i for i in range(k) if not mask >> i & 1)
        mixed = [
            i
            for i, e in enumerate(exps)
            if any(e[j] for j in vars_a) and any(e[j] for j in vars_b)
        ]
        ratio = float(np.linalg.norm(w[mixed])) / total
        if best is None or ratio < best[0]:
            best = (ratio, vars_a, vars_b)
    ratio, vars_a, vars_b = best
    if ratio >= tolerance:
        return None
    const_idx = exps.index((0,) * k)
    pure_a = [
        i
        for i, e in enumerate(exps)
        if i != const_idx and all(e[j] == 0 for j in vars_b)
    ]
    pure_b = [
        i
        for i, e in enumerate(exps)
        if i != const_idx and all(e[j] == 0 for j in vars_a)
    ]
    part_a = cols[:, pure_a] @ w[pure_a]
    part_b = cols[:, pure_b] @ w[pure_b]
    data_a = RegressionDataset(
        data.times, states, targets - part_b - w[const_idx], data.dt, data.target_dim
    )
    data_b = RegressionDataset(
        data.times, states, targets - part_a, data.dt, data.target_dim
    )
    return vars_a, vars_b, data_a, data_b


def test_monomial_exponents_match_the_set_construction():
    for n_vars in range(6):
        for degree in range(6):
            want = reference_monomial_exponents(n_vars, degree)
            assert monomial_exponents(n_vars, degree) == want


def test_separability_tie_goes_to_the_first_bipartition():
    # x2 and x3 are 0 throughout, so every monomial that mixes two blocks
    # has a coefficient of exactly 0 and all three bipartitions tie at 0
    rng = np.random.default_rng(6)
    xs = rng.uniform(-2.0, 2.0, size=(80, 3))
    xs[:, 1:] = 0.0
    data = dataset_from(xs, xs[:, 0] ** 2)
    split = separability_split(data)
    assert split[:2] == reference_separability_split(data)[:2] == ((0,), (1, 2))


def random_split_dataset(seed):
    """Seeded data in 1 to 4 variables with 5 to 149 samples, of one of
    four kinds by seed: a sum of functions of two blocks of variables, a
    weighted sum of squares, a product, or noise; scaled by a power of 10."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = int(rng.integers(5, 150))
    xs = rng.uniform(-2.0, 2.0, size=(n, k))
    kind = seed % 4
    if kind == 0:
        in_a = rng.random(k) < 0.5
        t = np.cos(xs[:, in_a].sum(axis=1)) + 0.3 * (xs[:, ~in_a] ** 3).sum(axis=1)
    elif kind == 1:
        t = xs**2 @ rng.normal(size=k) + rng.normal()
    elif kind == 2:
        t = np.prod(xs, axis=1)
    else:
        t = rng.normal(size=n)
    return dataset_from(xs, t * 10.0 ** int(rng.integers(-3, 4)))


def test_separability_split_matches_the_list_scans():
    """On 400 seeded datasets the split is the first written one's: the
    same variables, the same halves' targets bit for bit, and None in the
    same cases."""
    found = 0
    for seed in range(400):
        data = random_split_dataset(seed)
        got, want = separability_split(data), reference_separability_split(data)
        assert (got is None) == (want is None), seed
        if got is None:
            continue
        found += 1
        assert got[:2] == want[:2], seed
        assert all(type(v) is int for v in got[0] + got[1])
        for half, ref in zip(got[2:], want[2:]):
            assert half.targets.tobytes() == ref.targets.tobytes(), seed
            assert half.states is data.states and half.times is data.times
            assert (half.dt, half.target_dim) == (data.dt, data.target_dim)
    # both outcomes are well represented
    assert 50 < found < 350


# ------------------------------------------------------------- pareto front


def solution(comp, rmse, tag=0.0):
    return CandidateSolution(Const(tag), rmse, comp)


def test_pareto_front_drops_dominated():
    cands = [solution(1, 5.0), solution(2, 3.0), solution(3, 4.0)]
    front = pareto_front(cands)
    assert [(c.complexity, c.train_rmse) for c in front.candidates] == [
        (1, 5.0),
        (2, 3.0),
    ]


def test_pareto_front_single_candidate():
    front = pareto_front([solution(4, 2.0)])
    assert len(front.candidates) == 1


def test_pareto_front_tie_breaks_on_printed_form():
    a = CandidateSolution(Const(2.0), 1.0, 1)
    b = CandidateSolution(Const(10.0), 1.0, 1)
    front = pareto_front([b, a])
    assert front.candidates == (b,)  # "10.0" < "2.0" lexicographically


def test_pareto_front_validates_invariants():
    good = pareto_front([solution(1, 5.0), solution(2, 3.0)])
    with pytest.raises(ValueError):
        ParetoFront(candidates=tuple(reversed(good.candidates)))
    with pytest.raises(ValueError):
        ParetoFront(candidates=(solution(1, 3.0), solution(2, 3.0)))


def test_pareto_front_matches_quadratic_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        cands = [
            solution(
                int(rng.integers(1, 10)),
                float(rng.choice([0.5, 1.0, 2.0, 4.0, 8.0])),
                tag=float(rng.integers(0, 5)),
            )
            for _ in range(n)
        ]

        def dominates(p, q):
            return (
                p.complexity <= q.complexity
                and p.train_rmse <= q.train_rmse
                and (p.complexity < q.complexity or p.train_rmse < q.train_rmse)
            )

        surviving = [
            c for c in cands if not any(dominates(o, c) for o in cands)
        ]
        by_key = {}
        for c in surviving:
            key = (c.complexity, c.train_rmse)
            if key not in by_key or print_expr(c.expr) < print_expr(
                by_key[key].expr
            ):
                by_key[key] = c
        expected = sorted(
            ((c.complexity, c.train_rmse, print_expr(c.expr)) for c in by_key.values())
        )
        got = [
            (c.complexity, c.train_rmse, print_expr(c.expr))
            for c in pareto_front(cands).candidates
        ]
        assert got == expected


# ----------------------------------------------------------------- pipeline


def test_pipeline_zero_targets():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-1.0, 1.0, size=(60, 2))
    data = dataset_from(xs, np.zeros(60))
    best, front = run_pipeline(data, FeynmanConfig(max_brute_nodes=3))
    assert best.expr == Const(0.0)
    assert best.train_rmse == 0.0
    assert front.candidates[0] is best


def test_pipeline_best_lies_on_front(planted_sine):
    best, front = run_pipeline(planted_sine, FeynmanConfig(max_brute_nodes=3))
    assert best in front.candidates
    assert best.train_rmse == min(c.train_rmse for c in front.candidates)
    assert best.train_rmse < 1e-6


def test_pipeline_combines_separable_blocks():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, size=(120, 2))
    t = 3.0 * np.sin(xs[:, 0]) + np.exp(np.cos(xs[:, 1]))
    data = dataset_from(xs, t)
    best, front = run_pipeline(data, FeynmanConfig(max_brute_nodes=5))
    assert best.train_rmse < 0.01
    text = print_expr(best.expr, ("x1", "x2"))
    assert "sin(x1)" in text and "exp(cos(x2))" in text


def test_pipeline_deterministic(planted_poly):
    cfg = FeynmanConfig(max_brute_nodes=4)
    best1, front1 = run_pipeline(planted_poly, cfg)
    best2, front2 = run_pipeline(planted_poly, cfg)
    assert print_expr(best1.expr) == print_expr(best2.expr)
    assert [print_expr(c.expr) for c in front1.candidates] == [
        print_expr(c.expr) for c in front2.candidates
    ]


def test_pipeline_lotka_volterra_polynomial():
    data = make_dataset(lotka_volterra(), 0.1, "train")
    best, front = run_pipeline(data, FeynmanConfig(max_brute_nodes=4))
    assert best.train_rmse < 0.5
    assert len(front.candidates) >= 2


def reference_best(candidates):
    """The pick run_pipeline made from the full candidate list."""

    def key(cand):
        return (cand.train_rmse, cand.complexity)

    top = min(candidates, key=key)
    ties = [c for c in candidates if key(c) == key(top)]
    if len(ties) == 1:
        return top
    return min(ties, key=lambda c: print_expr(c.expr))


def reference_best_at(candidates):
    """The best candidate at each complexity: lowest RMSE, then smallest
    printed form, then first seen."""
    best_at = {}
    for cand in candidates:
        cur = best_at.get(cand.complexity)
        if (
            cur is None
            or cand.train_rmse < cur.train_rmse
            or (
                cand.train_rmse == cur.train_rmse
                and print_expr(cand.expr) < print_expr(cur.expr)
            )
        ):
            best_at[cand.complexity] = cand
    return best_at


def reference_pareto_front(candidates):
    """pareto_front over the full candidate list, as a list."""
    best_at = reference_best_at(candidates)
    kept = []
    last = math.inf
    for comp in sorted(best_at):
        if best_at[comp].train_rmse < last:
            kept.append(best_at[comp])
            last = best_at[comp].train_rmse
    return kept


def reference_run_pipeline(data, cfg):
    """The consumer run_pipeline replaced: every polyfit and brute_force
    candidate in one list, then reference_best and reference_pareto_front.
    Also returns how many brute-force candidates tie or beat every earlier
    candidate of their search at their complexity; run_pipeline builds a
    tree for no other candidate."""
    records = 0

    def search(data_x, vars_x):
        nonlocal records
        polys = [
            polyfit(data_x, degree, variables=vars_x)
            for degree in range(1, cfg.max_poly_degree + 1)
        ]
        brute = brute_force(data_x, cfg, variables=vars_x)
        low = {}
        for i, cand in enumerate(polys + brute):
            if cand.train_rmse <= low.get(cand.complexity, math.inf):
                low[cand.complexity] = cand.train_rmse
                records += i >= len(polys)
        return polys + brute

    candidates = search(data, None)
    split = separability_split(data)
    if split is not None:
        vars_a, vars_b, data_a, data_b = split
        parts = [
            reference_best(search(data_x, vars_x))
            for vars_x, data_x in ((vars_a, data_a), (vars_b, data_b))
        ]
        combined = Binary("add", parts[0].expr, parts[1].expr)
        candidates.append(make_candidate(combined, data))
    return reference_best(candidates), reference_pareto_front(candidates), records


def benchmark_train_set(name):
    return make_dataset(get_system(name), 0.1, "train")


def zero_target_dataset():
    rng = np.random.default_rng(6)
    return dataset_from(rng.uniform(-1.0, 1.0, size=(60, 2)), np.zeros(60))


def tie_across_blocks_dataset():
    # x2 duplicates x1, so every skeleton in x1 ties bit for bit with the
    # same skeleton in x2; the target's skeleton also ties with its
    # negation, whose constant is -1.0 and prints first
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.5, 2.0, size=(140, 5))
    xs[:, 1] = xs[:, 0]
    return dataset_from(xs, xs[:, 0] - np.sin(np.sin(np.sin(xs[:, 0]))))


PIPELINE_INPUTS = {
    "lotka_volterra-6": (lambda: benchmark_train_set("lotka_volterra"), 6),
    "simple_pendulum-6": (lambda: benchmark_train_set("simple_pendulum"), 6),
    "cart_pole-6": (lambda: benchmark_train_set("cart_pole"), 6),
    "lotka_volterra-7": (lambda: benchmark_train_set("lotka_volterra"), 7),
    "separable-6": (separable_dataset, 6),
    "zero_targets-5": (zero_target_dataset, 5),
    "tie_across_blocks-6": (tie_across_blocks_dataset, 6),
    "exact_top_skeleton-5": (exact_top_skeleton_dataset, 5),
    "exact_top_skeleton_times_1e150-5": (lambda: exact_top_skeleton_dataset(1e150), 5),
    "exact_top_skeleton_times_1e-150-5": (lambda: exact_top_skeleton_dataset(1e-150), 5),
    "nonfinite_at_top-3": (top_size_nonfinite_dataset, 3),
    "nonfinite_at_top-4": (top_size_nonfinite_dataset, 4),
}


@pytest.mark.parametrize("case", list(PIPELINE_INPUTS))
def test_run_pipeline_matches_full_list_reference(case, monkeypatch):
    """Keeping only the best fit per complexity picks the same best and the
    same front as the full candidate list, and builds a tree only for a
    candidate that ties or beats every earlier one at its complexity."""
    make_data, nodes = PIPELINE_INPUTS[case]
    data = make_data()
    cfg = FeynmanConfig(max_brute_nodes=nodes)
    want_best, want_front, records = reference_run_pipeline(data, cfg)

    built = 0

    def counted(*args):
        nonlocal built
        built += 1
        return CandidateSolution(*args)

    monkeypatch.setattr(feynman, "CandidateSolution", counted)
    best, front = run_pipeline(data, cfg)
    monkeypatch.undo()

    assert print_expr(best.expr) == print_expr(want_best.expr)
    assert best.train_rmse.hex() == want_best.train_rmse.hex()
    assert best.complexity == want_best.complexity
    assert [
        (c.complexity, c.train_rmse.hex(), print_expr(c.expr)) for c in front.candidates
    ] == [(c.complexity, c.train_rmse.hex(), print_expr(c.expr)) for c in want_front]
    assert 0 < built <= records


def test_reference_inputs_cover_split_and_ties():
    """The pipeline inputs reach the separability branch, an all-zero tie,
    and an exact tie between rows of different blocks that a later,
    smaller printed form wins."""
    assert separability_split(separable_dataset()) is not None
    zero = brute_force(zero_target_dataset(), FeynmanConfig(max_brute_nodes=5))
    assert {c.train_rmse for c in zero} == {0.0}

    cands = brute_force(tie_across_blocks_dataset(), FeynmanConfig(max_brute_nodes=6))
    at = [i for i, c in enumerate(cands) if c.complexity == 8]
    low = min(cands[i].train_rmse for i in at)
    tied = [i for i in at if cands[i].train_rmse == low]
    position = {print_expr(cands[i].expr): i for i in tied}
    first = position["(1.0 * (x1 - sin(sin(sin(x1)))))"]
    assert position["(1.0 * (x2 - sin(sin(sin(x2)))))"] - first >= _CHUNK_ROWS
    winner = min(position)
    assert winner == "((-1.0) * (sin(sin(sin(x1))) - x1))"
    assert position[winner] > first == tied[0]


def test_top_size_is_fitted_as_evaluated_with_few_exact_residuals(monkeypatch):
    """On the cart-pole train set no top-size block goes through
    _finite_rows (every block of a size from 2 to the one below the top
    does, once), and run_pipeline computes an exact residual for a small
    share of the rows it fits: most blocks lose to the current best by
    more than the margin and get none."""
    top = FeynmanConfig().max_brute_nodes
    compactions = 0
    finite_rows = feynman._finite_rows

    def counted_finite_rows(block, out):
        nonlocal compactions
        compactions += 1
        return finite_rows(block, out)

    comps = []
    fitted = exact = blocks_with_exact = 0
    block = feynman._BestPerComplexity.block

    def counting(self, comp, c, rmse, ok, contenders, skeletons):
        nonlocal fitted
        comps.append(comp)
        fitted += len(c)

        def counted_rmse(rows):
            nonlocal exact, blocks_with_exact
            exact += len(rows)
            blocks_with_exact += len(rows) > 0
            return rmse(rows)

        block(self, comp, c, counted_rmse, ok, contenders, skeletons)

    monkeypatch.setattr(feynman, "_finite_rows", counted_finite_rows)
    monkeypatch.setattr(feynman._BestPerComplexity, "block", counting)
    run_pipeline(benchmark_train_set("cart_pole"))

    assert compactions == sum(4 <= comp <= top + 1 for comp in comps) > 0
    assert comps.count(top + 2) > 0
    assert 0 < exact * 100 < fitted
    assert 0 < blocks_with_exact * 2 < len(comps)


def test_run_pipeline_does_not_build_the_full_list(monkeypatch, planted_sine):
    def full_list(*args, **kwargs):
        raise AssertionError("run_pipeline called brute_force")

    monkeypatch.setattr(feynman, "brute_force", full_list)
    best, _ = run_pipeline(planted_sine, FeynmanConfig(max_brute_nodes=3))
    assert best.train_rmse < 1e-6


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        FeynmanConfig(max_poly_degree=0)
    with pytest.raises(ValueError):
        FeynmanConfig(max_brute_nodes=0)
    with pytest.raises(ValueError):
        FeynmanConfig(unary_set=("sinh",))
    with pytest.raises(ValueError):
        FeynmanConfig(binary_set=("pow2",))
    # an expression operator without a brute-force ufunc
    with pytest.raises(ValueError):
        FeynmanConfig(binary_set=("pow",))
    # a repeated op would fit each of its skeletons twice
    with pytest.raises(ValueError, match="listed twice"):
        FeynmanConfig(unary_set=("sin", "cos", "sin"))
    with pytest.raises(ValueError, match="listed twice"):
        FeynmanConfig(binary_set=("add", "add"))


def test_pareto_csv_round_trip(tmp_path, planted_sine):
    _, front = run_pipeline(planted_sine, FeynmanConfig(max_brute_nodes=3))
    path = tmp_path / "front.csv"
    write_pareto_rows(pareto_rows(front, ("x1", "x2")), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "complexity,train_rmse,expression"
    assert len(lines) == len(front.candidates) + 1
    comp, rmse, text = lines[1].split(",", 2)
    first = front.candidates[0]
    assert int(comp) == first.complexity
    assert float(rmse) == pytest.approx(first.train_rmse)
    assert text.strip('"') == print_expr(first.expr, ("x1", "x2"))


@pytest.mark.parametrize("max_brute_nodes", [4], ids=["complete"])
def test_enumeration_leaves_no_reference_cycle(max_brute_nodes):
    # a cycle would keep the block buffers and node tables of each
    # enumeration until the next cyclic collection, so the allocations made
    # before a fit would set its peak memory
    data = make_dataset(get_system("cart_pole"), 0.1, "train")
    cfg = FeynmanConfig(max_brute_nodes=max_brute_nodes)
    gc.collect()
    gc.disable()
    try:
        run_pipeline(data, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()

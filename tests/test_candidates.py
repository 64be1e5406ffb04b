import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from odesr.candidates import fitness, rmse
from odesr.expressions import Binary, Const, Var
from odesr.integrate import make_dataset
from odesr.systems import get_system

BIG = np.finfo(float).max
# nan, infinities, subnormals and finite values whose sums overflow
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, BIG, -BIG, 1e308]),
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
    edits=st.lists(st.tuples(st.integers(0, 299), st.booleans(), EDGE_FLOATS), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_rmse_matches_sqrt_of_mean(size, seed, scale, edits):
    # normal values at several scales (subnormal, ordinary, squares that
    # overflow, sums that overflow), with a few edge values set in either array
    rng = np.random.default_rng(seed)
    pred, targets = rng.normal(size=size) * scale, rng.normal(size=size)
    for index, in_pred, value in edits:
        (pred if in_pred else targets)[index % size] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = reference_rmse(pred, targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert rmse(pred, targets).hex() == expected.hex()


def test_rmse_of_finite_values_whose_sum_overflows():
    pred = np.full(10, BIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert rmse(pred, pred) == reference_rmse(pred, pred) == 0.0
        assert rmse(pred, np.zeros(10)) == math.inf


def test_rmse_of_nothing_is_inf():
    assert rmse(np.array([]), np.array([])) == math.inf


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

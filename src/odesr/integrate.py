"""Adaptive Dormand-Prince 5(4) integration and dataset assembly.

The solver keeps a PI-controlled step size and records each accepted
step; a uniform sample grid is then filled from the steps' fifth-order
dense interpolants, every grid point at once. The step sequence does not
depend on the grid, so trajectory files never depend on it either, and
one integration can be sampled at any sample_dt. Failures (blowup, nan
dynamics, step underflow, step budget) raise IntegrationError carrying
the read-only portion of the grid that was reached. shared_trajectory
integrates each trajectory once per right-hand-side object, whatever the
sample_dt; make_trajectory reads the train and test splits from it, and
joined_splits joins them for rollouts, integrating each split once.
"""

from __future__ import annotations

import array
import math
import struct
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .systems import SystemSpec

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# difference between the 5th- and embedded 4th-order weights
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# dense-output polynomial, one row per stage, columns are theta^1..theta^4
_P = np.array(
    [
        [
            1.0,
            -8048581381 / 2820520608,
            8663915743 / 2820520608,
            -12715105075 / 11282082432,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ],
        [
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ],
        [
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ],
        [
            0.0,
            -282668133 / 205662961,
            2019193451 / 616988883,
            -1453857185 / 822651844,
        ],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
# the exponents of theta in _P's columns
_POWERS = np.arange(1, 5)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9

RHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class IntegratorConfig:
    """Step control: a step from x to x_new is accepted when the RMS of
    each component's error over atol + rtol * max(|x|, |x_new|) is at
    most 1."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        # with both zero every error scale is zero and no step is accepted
        if self.rtol == 0 and self.atol == 0:
            raise ValueError("rtol and atol must not both be zero")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    # integrate's accepted steps, one row each (see _accepted_steps), from
    # which _dense_output samples any grid of the span; None elsewhere
    steps: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class RegressionDataset:
    """Sampled (t, x) inputs with divided-difference derivative targets."""

    times: np.ndarray
    states: np.ndarray
    targets: np.ndarray
    dt: float
    target_dim: int


class IntegrationError(RuntimeError):
    def __init__(self, message: str, last_time: float, partial: Trajectory):
        super().__init__(f"{message} (integrated up to t={last_time:.6g})")
        self.last_time = last_time
        self.partial = partial


def sample_grid(t0: float, t1: float, sample_dt: float) -> np.ndarray:
    if not (0 < sample_dt < math.inf):  # NaN fails too
        raise ValueError("sample_dt must be positive and finite")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"span {(t0, t1)} must have finite ends")
    n_float = (t1 - t0) / sample_dt
    n = round(n_float)
    if n < 1 or abs(n_float - n) > 1e-9:
        raise ValueError(
            f"span {(t0, t1)} is not an integer multiple of sample_dt={sample_dt}"
        )
    return np.linspace(t0, t1, n + 1)


def _error_norm(
    x: list[float], x_new: list[float], err: list[float], atol: float, rtol: float
) -> float:
    """RMS of err / (atol + rtol * max(|x|, |x_new|)), elementwise, or inf
    when x_new or err has a component that is not finite.

    The norm is bit-identical to np.sqrt(np.mean((err / scale) ** 2)) with
    the scale formed in numpy. numpy adds fewer than 8 elements left to
    right and squares as r * r, so one pass over Python floats gives the
    same bits at a fraction of the cost on the small states integrated
    here. Longer vectors (numpy sums those pairwise) and a zero scale
    (numpy gives inf or nan and warns) take the numpy formula.
    """
    n = len(err)
    if n < 8:
        acc = 0.0
        try:
            for a, b, e in zip(x, x_new, err):
                if not (math.isfinite(b) and math.isfinite(e)):
                    return math.inf
                r = e / (atol + rtol * max(abs(a), abs(b)))
                acc += r * r
        except ZeroDivisionError:
            pass
        else:
            return math.sqrt(acc / n)
    x, x_new, err = np.array(x), np.array(x_new), np.array(err)
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(err))):
        return math.inf
    scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(
    rhs: RHS, t0: float, x0: np.ndarray, f0: np.ndarray, cfg: IntegratorConfig
) -> float:
    xs = x0.tolist()
    # x0 at both ends of the step gives the scale atol + rtol * |x0|
    d0 = _error_norm(xs, xs, xs, cfg.atol, cfg.rtol)
    d1 = _error_norm(xs, xs, f0.tolist(), cfg.atol, cfg.rtol)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if h0 == 0.0:
        # d1 is inf or near it (a zero atol and a tiny state component);
        # integrate reports the step size underflow
        return h0
    f1 = np.asarray(rhs(t0 + h0, x0 + h0 * f0), dtype=float)
    if not np.all(np.isfinite(f1)):
        return h0
    d2 = _error_norm(xs, xs, (f1 - f0).tolist(), cfg.atol, cfg.rtol) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def integrate(
    rhs: RHS,
    x0: Sequence[float],
    span: tuple[float, float],
    sample_dt: float,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate rhs over span and sample on a uniform grid.

    rhs is called as rhs(t, x) with t a Python float and x a float64
    ndarray of the state's length, and returns the derivative as a
    sequence of the same length. rhs may return one array that it
    overwrites on every call, and may keep each x, which is never written
    after the call. rhs must not write x itself: the x of a step's last
    stage becomes the accepted state. The returned Trajectory also holds
    the accepted steps, from which shared_trajectory samples the span's
    other grids.
    """
    cfg = config if config is not None else IntegratorConfig()
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError(f"span must increase, got {span}")
    grid = sample_grid(t0, t1, sample_dt)
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not x.size or not np.all(np.isfinite(x)):
        raise ValueError("initial state must be a non-empty finite vector")
    steps, failure = _accepted_steps(rhs, x, t0, t1, cfg)
    states = _dense_output(steps, grid, x)
    if failure is not None:
        message, t = failure
        raise IntegrationError(message, t, _read_only(grid[: len(states)].copy(), states))
    return Trajectory(grid, states, steps)


def _read_only(times: np.ndarray, states: np.ndarray) -> Trajectory:
    """A Trajectory over times and states, both made read-only."""
    for a in (times, states):
        a.flags.writeable = False
    return Trajectory(times, states)


def _accepted_steps(
    rhs: RHS, x: np.ndarray, t0: float, t1: float, cfg: IntegratorConfig
) -> tuple[np.ndarray, tuple[str, float] | None]:
    """Step from (t0, x) to t1. Returns one row per accepted step, holding
    what its dense output reads: t, h, t_new, the state x at t, and
    q = k.T.dot(_P) flattened; and the (message, time) of the failure that
    stopped the loop, or None when it reached t1.

    Row 0 of k holds the slope at the accepted state: it is set once, and
    copied from the last stage at each acceptance. A rejected attempt
    writes rows 1 to 6 only, so the next attempt restarts from that slope.
    The method is first same as last: stage 6's state, x + h *
    _A[6].dot(k[:6]), is the fifth-order solution, so the state of the
    last stage is kept as x_new, and stage 6's slope is the next step's
    first. The products use ndarray.dot where it gives @'s bits (see
    _stages), and h is a 0-d float64 array filled once per attempt: the
    same multiplications as the Python float h, at a lower call cost."""
    n = len(x)
    rows = array.array("d")

    def record(failure=None):
        return np.array(rows).reshape(-1, 3 + 5 * n), failure

    t = t0
    # a copy, as rhs may return one array that it overwrites on every call
    f = np.array(rhs(t, x), dtype=float)
    if not np.all(np.isfinite(f)):
        return record(("dynamics not finite at initial state", t))
    h = min(_initial_step(rhs, t, x, f, cfg), t1 - t0)
    err_old = 1.0
    steps = 0
    k = np.empty((7, n))
    k[0] = f
    stages = _stages(k)
    hf = np.empty(())
    xs = x.tolist()
    # the last grid point is t1 itself, so the grid is filled once t reaches it
    while t < t1:
        steps += 1
        if steps > cfg.max_steps:
            return record((f"exceeded max_steps={cfg.max_steps}", t))
        # also catches a nan h, which a zero error scale (atol=0) can give
        if not h >= 1e-14 * max(abs(t), 1.0):
            return record((f"step size underflow (h={h:.3g})", t))
        reached_end = h >= t1 - t
        if reached_end:
            h = t1 - t
        hf[()] = h
        # the state of stage 6, the last, is the fifth-order solution x_new
        for i, c, product, ki in stages:
            x_new = x + hf * product(ki)
            k[i] = rhs(t + c * h, x_new)
        err = hf * _E.dot(k)
        xs_new = x_new.tolist()
        err_norm = _error_norm(xs, xs_new, err.tolist(), cfg.atol, cfg.rtol)
        if not math.isfinite(err_norm):
            h *= _MIN_FACTOR
            continue
        if err_norm > 1.0:
            h *= max(_MIN_FACTOR, min(1.0, _SAFETY * err_norm ** (-0.7 / 5)))
            continue
        t_new = t1 if reached_end else t + h
        rows.extend((t, h, t_new, *xs))
        rows.frombytes(k.T.dot(_P).tobytes())
        t, x, xs = t_new, x_new, xs_new
        k[0] = k[6]
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** (-0.7 / 5) * err_old ** (0.4 / 5)
        h *= max(_MIN_FACTOR, min(_MAX_FACTOR, factor))
        err_old = max(err_norm, 1e-14)
    return record()


def _stages(k: np.ndarray) -> list:
    """Stages 1 to 6 of a step whose slopes are k's rows: (its row of k,
    its node, a function that weighs rows by its weights, the rows k[:i]
    it weighs). Each weighing gives the bits of _A[i] @ k[:i]. It is
    ndarray.dot, which takes the same BLAS kernels at a lower call cost,
    except for stage 1, which stays @ at every state size: with one
    weight, dot forms each product as a lone multiplication, which keeps
    the -0.0 of a product that underflows, where @'s sum gives 0.0."""
    return [
        (i, c, a.__matmul__ if a.size == 1 else a.dot, k[:i])
        for i, (c, a) in enumerate(zip(_C.tolist(), _A))
        if i
    ]


def _dense_output(steps: np.ndarray, grid: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The states at grid[0] (x0) and at every later grid point up to the
    last step's end. Each point is read from the first step that ends at or
    after it, with that step's fifth-order interpolant
    x + h * (q @ theta**[1, 2, 3, 4]), theta clamped to [0, 1].

    All points are filled in one pass of array operations, each the same
    IEEE operation per point as a loop over the points would do; the
    products q @ p are one stacked matmul, which takes the same BLAS
    kernel as a single q @ p, so the states are that loop's bit for bit.
    """
    n = len(x0)
    ends = steps[:, 2]
    # the grid points at or before the last step's end
    count = np.searchsorted(grid, ends[-1], side="right") if len(ends) else 1
    points = grid[1:count]
    # the step each point is read from. Only the columns read are gathered,
    # each as it is used, and the products are scaled in place: the
    # temporaries are the peak of a run's memory, and multiplication and
    # addition commute bit for bit
    read = np.searchsorted(ends, points, side="left")
    h = steps[read, 1]
    theta = np.minimum(np.maximum((points - steps[read, 0]) / h, 0.0), 1.0)
    p = theta[:, None] ** _POWERS
    qp = np.matmul(steps[read, 3 + n :].reshape(-1, n, 4), p[..., None])[..., 0]
    qp *= h[:, None]
    states = np.empty((count, n))
    states[0] = x0
    np.add(steps[read, 3 : 3 + n], qp, out=states[1:])
    return states


# rhs object -> {inputs but sample_dt: (steps, {grid length: (times, states)})};
# entries die with the rhs
_TRAJECTORIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def shared_trajectory(
    rhs: RHS,
    x0: Sequence[float],
    span: tuple[float, float],
    sample_dt: float,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """integrate(rhs, x0, span, sample_dt, config), integrated once per rhs
    object and inputs other than sample_dt.

    The accepted steps do not depend on the sample grid, so they are kept
    as long as rhs lives and each new sample_dt is read from their dense
    output; rhs must therefore be a pure function of (t, x). Each span is
    its own integration. Each call returns a new Trajectory over the same
    read-only arrays. A failed integration is not kept and fails again on
    the next call, at any sample_dt. An rhs that cannot be weakly
    referenced, and inputs that give no key (integrate then raises its own
    error), go to integrate on every call.
    """
    try:
        memo = _TRAJECTORIES.setdefault(rhs, {})
        # the exact bits of every input integrate reads besides rhs and sample_dt
        cfg = config if config is not None else IntegratorConfig()
        x = np.array(x0, dtype=float)
        t0, t1, rtol, atol = (float(v) for v in (span[0], span[1], cfg.rtol, cfg.atol))
        key = (x.shape, x.tobytes(), struct.pack("<4d", t0, t1, rtol, atol), cfg.max_steps)
    except (TypeError, ValueError):
        return integrate(rhs, x0, span, sample_dt, config)
    entry = memo.get(key)
    if entry is None:
        # the module global, looked up now, so a wrapper sees each integration
        traj = integrate(rhs, x0, span, sample_dt, config)
        entry = memo[key] = (traj.steps, {})
        arrays = (traj.times, traj.states)
    else:
        # an entry means span and x0 were valid, so only the grid can fail
        grid = sample_grid(t0, t1, sample_dt)
        arrays = entry[1].get(len(grid))
        if arrays is not None:
            return Trajectory(*arrays)
        arrays = (grid, _dense_output(entry[0], grid, x))
    entry[1][len(arrays[0])] = arrays
    return _read_only(*arrays)


def integrate_fixed_step(
    rhs: RHS, x0: Sequence[float], span: tuple[float, float], n_steps: int
) -> np.ndarray:
    """Fixed-step variant (no controller) of _accepted_steps' stages: each
    step ends at stage 6's state, without its slope. Returns the final state.
    A state that is not finite is never passed to rhs: it raises
    IntegrationError, carrying the states that steps reached."""
    t0, t1 = float(span[0]), float(span[1])
    h = (t1 - t0) / n_steps
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not x.size or not np.all(np.isfinite(x)):
        raise ValueError("initial state must be a non-empty finite vector")
    k = np.empty((7, len(x)))
    *stages, (_, _, solution, rows) = _stages(k)
    reached = [x]

    def finite(state: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(state)):
            times = t0 + h * np.arange(len(reached))
            raise IntegrationError(
                "state not finite", float(times[-1]), _read_only(times, np.array(reached))
            )
        return state

    for step in range(n_steps):
        t = t0 + step * h
        k[0] = rhs(t, x)
        for i, c, product, ki in stages:
            k[i] = rhs(t + c * h, finite(x + h * product(ki)))
        x = finite(x + h * solution(rows))
        reached.append(x)
    return x


# ------------------------------------------------------------------ datasets


def finite_differences(traj: Trajectory, target_dim: int) -> RegressionDataset:
    """Forward divided differences of one coordinate, anchored at the left."""
    if traj.times.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not 0 <= target_dim < traj.states.shape[1]:
        raise ValueError(f"target_dim {target_dim} out of range")
    targets = np.diff(traj.states[:, target_dim]) / np.diff(traj.times)
    dt = float((traj.times[-1] - traj.times[0]) / (len(traj.times) - 1))
    return RegressionDataset(
        times=traj.times[:-1].copy(),
        states=traj.states[:-1].copy(),
        targets=targets,
        dt=dt,
        target_dim=target_dim,
    )


def make_trajectory(
    system: SystemSpec,
    split: str = "train",
    sample_dt: float = 0.1,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Simulate one split; the test split continues from the train end state.
    Both come from shared_trajectory, so they are read-only."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    traj = shared_trajectory(
        system.rhs, system.initial_state, system.train_span, sample_dt, config
    )
    return _test_split(system, traj, sample_dt, config) if split == "test" else traj


def _test_split(
    system: SystemSpec, train: Trajectory, sample_dt: float, config: IntegratorConfig | None
) -> Trajectory:
    """The test split, started from the end state of the train split in hand."""
    return shared_trajectory(system.rhs, train.states[-1], system.test_span, sample_dt, config)


def joined_splits(
    system: SystemSpec, sample_dt: float, config: IntegratorConfig | None
) -> Trajectory:
    """The train split and then the test split past its first point, the
    train end state, as one read-only trajectory. Each split is integrated
    once. A test split that fails raises its IntegrationError with the train
    split joined to its partial."""
    train = make_trajectory(system, "train", sample_dt, config)
    try:
        test = _test_split(system, train, sample_dt, config)
    except IntegrationError as err:
        err.partial = _joined(train, err.partial)
        raise
    return _joined(train, test)


def _joined(train: Trajectory, test: Trajectory) -> Trajectory:
    return _read_only(
        np.concatenate((train.times, test.times[1:])),
        np.concatenate((train.states, test.states[1:])),
    )


def make_dataset(
    system: SystemSpec,
    sample_dt: float = 0.1,
    split: str = "train",
    config: IntegratorConfig | None = None,
) -> RegressionDataset:
    traj = make_trajectory(system, split, sample_dt, config)
    return finite_differences(traj, system.target_dim)


# ----------------------------------------------------------------- file I/O


def write_csv(path, names: Sequence[str], *columns: np.ndarray) -> None:
    """One row per sample: the columns side by side under a header of names,
    every value with 17 significant digits so that it reads back exactly."""
    rows, header = np.column_stack(columns), ",".join(names)
    with open(path, "w") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def write_trajectory_csv(traj: Trajectory, variable_names: Sequence[str], path) -> None:
    write_csv(path, ("t", *variable_names), traj.times, traj.states)


def read_trajectory_csv(path) -> tuple[tuple[str, ...], Trajectory]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    names = tuple(header[1:])
    return names, Trajectory(data[:, 0], data[:, 1:])

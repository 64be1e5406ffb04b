"""Adaptive Dormand-Prince 5(4) integration and dataset assembly.

The solver keeps a PI-controlled step size and records each accepted
step; a uniform sample grid is then filled from the steps' fifth-order
dense interpolants, every grid point at once. The step sequence does not
depend on the grid, so trajectory files never depend on it either, and
one integration can be sampled at any sample_dt. Failures (blowup, nan
dynamics, step underflow, step budget) raise IntegrationError carrying the
portion of the grid that was reached. shared_trajectory integrates each
trajectory once per right-hand-side object, whatever the sample_dt, and a
longer span continues from the steps of a shorter one with the same
start; dataset splits, rollout truths and hybrid rollouts are read from it.
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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
    # integrate's loop state before its first step clipped to the span's
    # end, from which a longer span continues (see _accepted_steps)
    resume: tuple | None = field(default=None, compare=False, repr=False)


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
    *,
    start: tuple[np.ndarray, tuple] | None = None,
) -> Trajectory:
    """Integrate rhs over span and sample on a uniform grid.

    rhs is called as rhs(t, x) with t a Python float and x a float64
    ndarray of the state's length, and returns the derivative as a
    sequence of the same length. The returned Trajectory also holds the
    accepted steps, from which shared_trajectory samples the span's other
    grids, and the loop state from which a longer span continues.

    start, which shared_trajectory passes, is the (steps, resume) of an
    earlier integration of rhs with the same x0, span start and config over
    a shorter span: the loop then resumes from that state, after those
    steps, and takes the same steps as a fresh integration would.
    """
    cfg = config if config is not None else IntegratorConfig()
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError(f"span must increase, got {span}")
    grid = sample_grid(t0, t1, sample_dt)
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not x.size or not np.all(np.isfinite(x)):
        raise ValueError("initial state must be a non-empty finite vector")
    if start is None:
        steps, failure, resume = _accepted_steps(rhs, x, t0, t1, cfg)
    else:
        earlier, state = start
        steps, failure, resume = _accepted_steps(rhs, x, t0, t1, cfg, state)
        steps = np.concatenate((earlier[: state[0]], steps))
    states = _dense_output(steps, grid, x)
    if failure is not None:
        message, t = failure
        partial = Trajectory(grid[: len(states)].copy(), states)
        raise IntegrationError(message, t, partial)
    return Trajectory(grid, states, steps, resume)


def _accepted_steps(
    rhs: RHS,
    x: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    state: tuple | None = None,
) -> tuple[np.ndarray, tuple[str, float] | None, tuple | None]:
    """Step from (t0, x) to t1, or from a resume state of an integration
    over a shorter span. Returns one row per accepted step, holding what
    its dense output reads: t, h, t_new, the state x at t, and
    q = k.T @ _P flattened; the (message, time) of the failure that
    stopped the loop, or None when it reached t1; and the resume state.

    Every attempt before the first one whose step is clipped to t1 is the
    same for any later t1, so the resume state is the loop state at that
    attempt: (rows before it, counting any a resumed loop was given, t, x,
    f, the unclipped h, err_old, attempts before it). It is None when the
    initial step was already clipped, since a longer span starts from a
    larger one."""
    n = len(x)
    rows = array.array("d")
    resume = None

    def record(failure=None):
        return np.array(rows).reshape(-1, 3 + 5 * n), failure, resume

    if state is None:
        t = t0
        f = np.asarray(rhs(t, x), dtype=float)
        if not np.all(np.isfinite(f)):
            return record(("dynamics not finite at initial state", t))
        h = _initial_step(rhs, t, x, f, cfg)
        # a longer span would not clip this step
        resumable = not h > t1 - t0
        h = min(h, t1 - t0)
        err_old = 1.0
        done = steps = 0
    else:
        done, t, x, f, h, err_old, steps = state
        resumable = True
    k = np.empty((7, n))
    # stage i: (its row of k, its node, its weights, the rows they weigh)
    stages = [(i, c, _A[i], k[:i]) for i, c in enumerate(_C.tolist()) if i]
    k6 = k[:6]
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
            if resumable:
                count = done + len(rows) // (3 + 5 * n)
                resume = (count, t, x, f.copy(), h, err_old, steps - 1)
                resumable = False
            h = t1 - t
        k[0] = f
        for i, c, a, ki in stages:
            k[i] = rhs(t + c * h, x + h * (a @ ki))
        x_new = x + h * (_A[6] @ k6)
        err = h * (_E @ k)
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
        rows.frombytes((k.T @ _P).tobytes())
        t, x, xs, f = t_new, x_new, xs_new, k[6].copy()
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** (-0.7 / 5) * err_old ** (0.4 / 5)
        h *= max(_MIN_FACTOR, min(_MAX_FACTOR, factor))
        err_old = max(err_norm, 1e-14)
    return record()


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


# rhs object -> {inputs but the span's end and sample_dt: {bits of the span's
# end: (span end, steps, resume state, {grid length: (times, states)})}};
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
    output; rhs must therefore be a pure function of (t, x). A span that
    extends a kept one (the same x0, span start and config, a later end)
    continues from the longest such: integrate resumes from its loop state
    and takes only the steps past its end, the same steps a fresh
    integration would take. Each call returns a new Trajectory over the
    same read-only arrays. A failed integration is not kept and fails
    again on the next call, at any sample_dt. An rhs that cannot be weakly
    referenced, and inputs that give no key (integrate then raises its own
    error), go to integrate on every call.
    """
    try:
        memo = _TRAJECTORIES.setdefault(rhs, {})
        # the exact bits of every input integrate reads besides rhs and sample_dt
        cfg = config if config is not None else IntegratorConfig()
        x = np.array(x0, dtype=float)
        t0, t1, rtol, atol = (float(v) for v in (span[0], span[1], cfg.rtol, cfg.atol))
        key = (x.shape, x.tobytes(), struct.pack("<3d", t0, rtol, atol), cfg.max_steps)
        end = struct.pack("<d", t1)
    except (TypeError, ValueError):
        return integrate(rhs, x0, span, sample_dt, config)
    spans = memo.setdefault(key, {})
    entry = spans.get(end)
    if entry is None:
        shorter = [e for e in spans.values() if e[0] < t1 and e[2] is not None]
        # the module global, looked up now, so a wrapper sees each integration
        if shorter:
            _, steps, resume, _ = max(shorter, key=lambda e: e[0])
            traj = integrate(rhs, x0, span, sample_dt, config, start=(steps, resume))
        else:
            traj = integrate(rhs, x0, span, sample_dt, config)
        entry = spans[end] = (t1, traj.steps, traj.resume, {})
        arrays = (traj.times, traj.states)
    else:
        # an entry means span and x0 were valid, so only the grid can fail
        grid = sample_grid(t0, t1, sample_dt)
        arrays = entry[3].get(len(grid))
        if arrays is not None:
            return Trajectory(*arrays)
        arrays = (grid, _dense_output(entry[1], grid, x))
    for a in arrays:
        a.flags.writeable = False
    entry[3][len(arrays[0])] = arrays
    return Trajectory(*arrays)


def integrate_fixed_step(
    rhs: RHS, x0: Sequence[float], span: tuple[float, float], n_steps: int
) -> np.ndarray:
    """Fixed-step variant (no controller); returns the final state."""
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
    if split == "test":
        traj = shared_trajectory(
            system.rhs, traj.states[-1], system.test_span, sample_dt, config
        )
    return traj


def make_dataset(
    system: SystemSpec,
    sample_dt: float = 0.1,
    split: str = "train",
    config: IntegratorConfig | None = None,
) -> RegressionDataset:
    traj = make_trajectory(system, split, sample_dt, config)
    return finite_differences(traj, system.target_dim)


# ----------------------------------------------------------------- file I/O


def write_trajectory_csv(traj: Trajectory, variable_names: Sequence[str], path) -> None:
    with open(path, "w") as fh:
        fh.write("t," + ",".join(variable_names) + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")


def read_trajectory_csv(path) -> tuple[tuple[str, ...], Trajectory]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    names = tuple(header[1:])
    return names, Trajectory(data[:, 0], data[:, 1:])

"""Host-speed calibration: a fixed kernel, timed at regular moments while a
workload's operations run, that turns their measured seconds into seconds
at a reference speed; and a reference process that does the same for
set-up time.

The shared host this benchmark was written on changes the speed of a
single-threaded process by up to 2x, in phases from a second to minutes
long, while CPU time tracks wall time (the process is not descheduled; it
runs slower). No median over one run removes a phase longer than the run.
The kernel below does not use odesr, so the program's own speed never
changes it. A workload interval timed between two kernel samples is scaled
by CALIBRATION_REF_S over their mean, so a change to the program moves the
scaled time as it moves the raw one.

The kernel mixes what odesr spends its time on: recursive evaluation of a
small expression tree over Python floats (the scalar `evaluate` path), an
RK4 loop on a 4-vector of numpy floats (`integrate` with a Python
right-hand side), and elementwise numpy over 20k floats (`evaluate_batch`
and brute force).
"""

from __future__ import annotations

import gc
import math
import signal
from time import perf_counter

import numpy as np

# the kernel's time on the machine the benchmark was written on, in its
# faster phase (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
CALIBRATION_REF_S = 0.0027
SAMPLE_EVERY_S = 0.05  # timer period while the operations run

# Set-up time (interpreter start, imports, page faults of a new process)
# moves with the host in phases of its own that the kernel does not see: it
# went from 0.22 to 0.145 s while the kernel's time held. A bare interpreter
# that imports numpy, the first part of every set-up, is started just
# before each set-up sample, and the sample is scaled by STARTUP_REF_S over
# its start-up time (from spawn to the print).
STARTUP_CODE = "import time, numpy; print(repr(time.perf_counter()))"
STARTUP_REF_S = 0.1

_TREE = ("+", ("*", ("sin", "x"), ("cos", "y")), ("-", ("*", 0.5, "x"), ("exp", ("*", -0.1, "y"))))
_UNARY = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_ARRAY = np.linspace(-3.0, 3.0, 20_000)


def _eval(node, env):
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    op = node[0]
    if op in _UNARY:
        return _UNARY[op](_eval(node[1], env))
    a, b = _eval(node[1], env), _eval(node[2], env)
    return a + b if op == "+" else a - b if op == "-" else a * b


def _rhs(state):
    return np.array([state[1], -0.1 * state[1] - 9.81 * math.sin(state[0]), state[3], -state[2]])


def kernel() -> float:
    """Run the fixed work once; return a value so it cannot be skipped."""
    acc = 0.0
    for i in range(500):
        acc += _eval(_TREE, {"x": i * 0.006, "y": 1.0 - i * 0.002})
    state, h = np.array([0.3, 0.0, 1.0, 0.0]), 0.01
    for _ in range(120):
        k1 = _rhs(state)
        k2 = _rhs(state + 0.5 * h * k1)
        k3 = _rhs(state + 0.5 * h * k2)
        k4 = _rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y = np.sin(_ARRAY) * np.cos(0.5 * _ARRAY) + np.exp(-0.1 * _ARRAY * _ARRAY)
    acc += float(np.sqrt(np.mean((y - _ARRAY) ** 2)))
    return acc + float(state[0])


class Clock:
    """Kernel samples: `ticks` holds (start, end, kernel seconds) of each.

    `tick()` takes one sample. Between `start()` and `stop()` a real-time
    timer takes one every SAMPLE_EVERY_S from a signal handler, which
    Python runs in the main thread between bytecodes. The intervals between
    consecutive samples are the workload's time; the samples are not.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []
        self._previous = None

    def tick(self, *_signal) -> None:
        if not self.ticks:
            kernel()  # warm-up: first calls into numpy and the interpreter caches
        # a collection the workload's allocations are due would land in the
        # sample; it runs after it instead
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.ticks.append((start, end, end - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def scaled_setup(setup_s: float, startup_s: float) -> float:
    """Set-up time at the reference start-up speed."""
    return setup_s * STARTUP_REF_S / startup_s


def scaled(ticks: list[list[float]]) -> tuple[float, float]:
    """Raw and scaled time of the intervals between consecutive ticks."""
    raw = scaled_s = 0.0
    for (_, end, c0), (start, _, c1) in zip(ticks, ticks[1:]):
        raw += start - end
        scaled_s += (start - end) * CALIBRATION_REF_S / ((c0 + c1) / 2)
    return raw, scaled_s


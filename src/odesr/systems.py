"""Benchmark dynamical systems and their sampling windows.

Each system fixes the state layout, the simulation windows used for
fitting and held-out scoring, and which state dimension's derivative
the search strategies try to recover (target_dim).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .expressions import NAME, compile_components, parse_expr


@dataclass(frozen=True)
class SystemSpec:
    """One benchmark system. rhs(t, x) is called with t a Python float and
    x a float64 ndarray of length dim, and returns the derivative as an
    ndarray of length dim. The test split is integrated on from the last
    train state, so test_span must start where train_span ends. The name
    is an identifier, as it is part of the run files' names, and so is each
    variable name, one per dimension, as printed expressions must parse
    back."""

    name: str
    rhs: Callable[[float, np.ndarray], np.ndarray]
    initial_state: tuple[float, ...]
    train_span: tuple[float, float]
    test_span: tuple[float, float]
    target_dim: int
    variable_names: tuple[str, ...]

    def __post_init__(self):
        if not re.fullmatch(NAME, self.name):
            raise ValueError(f"name must be an identifier, got {self.name!r}")
        if not 0 <= self.target_dim < self.dim:
            raise ValueError("target_dim out of range")
        names = self.variable_names
        if len(names) != self.dim:
            raise ValueError("one variable name per dimension")
        if len(set(names)) < len(names) or not all(re.fullmatch(NAME, v) for v in names):
            raise ValueError(f"variable names must be distinct identifiers, got {names}")
        for key in ("train_span", "test_span"):
            span = getattr(self, key)
            if not span[1] > span[0]:  # NaN fails too
                raise ValueError(f"{key} must increase, got {span}")
            if not (math.isfinite(span[0]) and math.isfinite(span[1])):
                raise ValueError(f"{key} must have finite ends, got {span}")
        if self.test_span[0] != self.train_span[1]:
            raise ValueError(
                "test_span must start where train_span ends, "
                f"at {self.train_span[1]}, got {self.test_span}"
            )

    @property
    def dim(self) -> int:
        return len(self.initial_state)


def lotka_volterra() -> SystemSpec:
    """Predator-prey: dx/dt = x(1.5 - y), dy/dt = -y(3 - x)."""
    alpha, beta, gamma, delta = 1.5, 1.0, 3.0, 1.0

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        x, y = s.tolist()
        return np.array([x * (alpha - beta * y), -y * (gamma - delta * x)])

    return SystemSpec(
        name="lotka_volterra",
        rhs=rhs,
        initial_state=(1.0, 1.0),
        train_span=(0.0, 10.0),
        test_span=(10.0, 15.0),
        target_dim=1,
        variable_names=("x", "y"),
    )


def simple_pendulum() -> SystemSpec:
    """Damped pendulum: theta1' = theta2, theta2' = -b theta2 - g sin(theta1)."""
    g, b = 9.81, 0.1

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        theta, omega = s.tolist()
        return np.array([omega, -b * omega - g * math.sin(theta)])

    return SystemSpec(
        name="simple_pendulum",
        rhs=rhs,
        initial_state=(0.4 * math.pi, 1.0),
        train_span=(0.0, 10.0),
        test_span=(10.0, 15.0),
        target_dim=1,
        variable_names=("theta1", "theta2"),
    )


def cart_pole_force(t: float) -> float:
    """External push on the cart."""
    return -0.2 + 0.5 * math.sin(6.0 * t)


def cart_pole() -> SystemSpec:
    """Forced cart-pole with unit masses and pole length.

    State is (w, x, y, z) = (pole angle, cart position, angular
    velocity, cart velocity); both accelerations share the
    denominator 2 - cos^2(w).
    """
    g = 9.81

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        w, x, y, z = s.tolist()
        force = cart_pole_force(t)
        sw, cw = math.sin(w), math.cos(w)
        den = 2.0 - cw * cw
        w_acc = (-2.0 * g * sw - force * cw + sw * cw * y * y) / den
        x_acc = (sw * y * y + force + g * sw * cw) / den
        return np.array([y, z, w_acc, x_acc])

    return SystemSpec(
        name="cart_pole",
        rhs=rhs,
        initial_state=(0.3, 0.0, 1.0, 0.0),
        train_span=(0.0, 10.0),
        test_span=(10.0, 15.0),
        target_dim=2,
        variable_names=("w", "x", "y", "z"),
    )


_FACTORIES = {
    "lotka_volterra": lotka_volterra,
    "simple_pendulum": simple_pendulum,
    "cart_pole": cart_pole,
}

SYSTEM_NAMES = tuple(_FACTORIES)


def get_system(name: str) -> SystemSpec:
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown system {name!r}; expected one of {', '.join(_FACTORIES)}"
        )
    return _FACTORIES[name]()


def expression_system(
    name: str,
    rhs_strings,
    initial_state,
    train_span=(0.0, 10.0),
    test_span=None,
    target_dim: int | None = None,
    variable_names=None,
) -> SystemSpec:
    """Build a system whose right-hand side is given as one expression
    string per dimension, e.g. ("x2", "-9.81 * sin(x1)").

    Without a test_span, the test split starts where train_span ends and
    lasts half as long, as for the built-in systems."""
    rhs_strings = tuple(rhs_strings)
    k = len(rhs_strings)
    if k == 0:
        raise ValueError("need at least one dimension")
    initial_state = tuple(float(v) for v in initial_state)
    if len(initial_state) != k:
        raise ValueError("initial_state length must match dimension count")
    if variable_names is None:
        variable_names = tuple(f"x{i + 1}" for i in range(k))
    if target_dim is None:
        target_dim = k - 1
    train_span = (float(train_span[0]), float(train_span[1]))
    if test_span is None:
        test_span = (train_span[1], train_span[1] + (train_span[1] - train_span[0]) / 2)
    test_span = (float(test_span[0]), float(test_span[1]))
    system = SystemSpec(
        name=name,
        rhs=None,
        initial_state=initial_state,
        train_span=train_span,
        test_span=test_span,
        target_dim=int(target_dim),
        variable_names=tuple(variable_names),
    )
    # parsed once the names are checked, so that a bad name is refused as
    # such and not as an unknown identifier in the strings
    exprs = tuple(parse_expr(s, system.variable_names) for s in rhs_strings)
    return replace(system, rhs=compile_components(exprs))

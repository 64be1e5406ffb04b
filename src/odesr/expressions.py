"""Expression trees over state variables, time, and constants.

Trees are immutable and structurally comparable.  Evaluation is
vectorised over sample points and never raises on bad math: any point
where a subexpression leaves the reals (log of a non-positive value,
division by zero, overflow, a fractional power of a negative base)
evaluates to nan, and nan propagates to the root.  Callers treat nan
as "invalid here" rather than catching exceptions.  For one point at a
time (an ODE right-hand side), compile_scalar turns a tree into nested
closures over Python floats that follow the same rules bit for bit.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from math import isfinite, nan
from typing import Callable, Sequence, Union

import numpy as np

UNARY_OPS = ("sin", "cos", "log", "exp", "identity")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
_SYMBOL_BINARY = {v: k for k, v in _BINARY_SYMBOL.items()}

# the numpy ufunc behind each operator; identity and pow are special-cased
# in _eval and _binary, and results still pass through _contain's nan rule
UNARY_UFUNC = {"sin": np.sin, "cos": np.cos, "log": np.log, "exp": np.exp}
BINARY_UFUNC = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
}

# exponents treated as exact integers; larger ones fall back to np.power
_MAX_INT_POW = 64


@dataclass(frozen=True, slots=True)
class Const:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True)
class Var:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"variable index must be >= 0, got {self.index}")


@dataclass(frozen=True, slots=True)
class Time:
    pass


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    arg: "Expr"

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")


Expr = Union[Const, Var, Time, Unary, Binary]


# ------------------------------------------------------------------ evaluate


def evaluate_batch(expr: Expr, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Evaluate expr at rows of (times, states); invalid points become nan."""
    times, states = batch_inputs(times, states)
    with np.errstate(all="ignore"):
        return _eval(expr, times, states)


def batch_inputs(times, states) -> tuple[np.ndarray, np.ndarray]:
    """times as a 1-d float array and states as a 2-d one with a row per
    time; a ValueError if they do not align."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states.reshape(-1, 1)
    if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.shape[0]:
        raise ValueError(
            f"times {times.shape} and states {states.shape} do not align"
        )
    return times, states


def evaluate(expr: Expr, t: float, x: Sequence[float]) -> float:
    """Scalar evaluation; nan marks an invalid point.  To evaluate one
    tree at many points, compile it once with compile_scalar."""
    return compile_scalar(expr)(t, x)


def _contain(out: np.ndarray, *parents: np.ndarray) -> np.ndarray:
    # overflow and domain errors both collapse to nan, and nan inputs
    # always poison the output (np.power(1, nan) would otherwise be 1).
    # A float sum with an inf or nan term is inf or nan, so a finite sum of
    # every element proves there is nothing to mask. A sum of finite values
    # that overflows is inf too, and takes the exact path below (under
    # evaluate_batch's errstate, so the overflow does not warn).
    total = float(np.add.reduce(out))
    for p in parents:
        total += float(np.add.reduce(p))
    if isfinite(total):
        return out
    bad = ~np.isfinite(out)
    for p in parents:
        bad |= ~np.isfinite(p)
    if bad.any():
        out = np.where(bad, np.nan, out)
    return out


def _int_pow(base, n: int):
    # arrays in _eval, finite floats in compile_scalar (n != 0 there)
    if n == 0:
        return np.ones_like(base)
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    if n < 0:
        out = 1.0 / out
    return out


def _eval(expr: Expr, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    if isinstance(expr, Unary):
        a = _eval(expr.arg, ts, xs)
        if expr.op == "identity":
            return a
        return _contain(UNARY_UFUNC[expr.op](a), a)
    if isinstance(expr, Binary):
        l = _eval(expr.left, ts, xs)
        r = _eval(expr.right, ts, xs)
        return _contain(_binary(expr, l, r), l, r)
    return _leaf(expr, ts, xs)


def _leaf(expr: Expr, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    if isinstance(expr, Const):
        out = np.empty(ts.shape)  # np.full, without its dtype inference
        out.fill(expr.value)
        return out
    if isinstance(expr, Var):
        if expr.index >= xs.shape[1]:
            raise ValueError(
                f"variable index {expr.index} out of range for "
                f"state dimension {xs.shape[1]}"
            )
        return xs[:, expr.index]
    return ts


def _binary(expr: Binary, l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The raw value of a binary node, before any nan rule."""
    if expr.op != "pow":
        return BINARY_UFUNC[expr.op](l, r)
    n = _int_exponent(expr)
    return np.power(l, r) if n is None else _int_pow(l, n)


def _int_exponent(expr: Binary) -> int | None:
    """The exponent of a pow node if it is an exact integer constant."""
    rc = expr.right
    if (
        isinstance(rc, Const)
        and float(rc.value).is_integer()
        and abs(rc.value) <= _MAX_INT_POW
    ):
        return int(rc.value)
    return None


class _NotFinite(Exception):
    """A node of the tree is not finite at some row."""


def finite_values(
    expr: Expr, leaf: Callable[[Expr], np.ndarray | None]
) -> np.ndarray | None:
    """_eval(expr, ts, xs) if every node of expr, leaves included, is finite
    at every row; None from the first node that is not, and the rest of the
    tree is not evaluated.

    leaf(node) gives a leaf's values, _leaf(node, ts, xs) or an array equal
    to it, when they are all finite and None when they are not; it raises
    _leaf's ValueError for an out-of-range Var. Where evaluate_batch's
    result is finite it is this array bit for bit: with every node finite,
    _contain masks nothing. Everywhere else that result is not finite,
    because each node passes a non-finite operand on as nan. Each inner
    node is checked once, by one reduction of its own values. An
    out-of-range Var raises even after an earlier node was found not
    finite. Call it under np.errstate(all="ignore").
    """
    try:
        return _finite(expr, leaf)
    except _NotFinite:
        _check_indices(expr, leaf)
        return None


def _finite(expr: Expr, leaf: Callable[[Expr], np.ndarray | None]) -> np.ndarray:
    kind = type(expr)
    if kind is Binary:
        out = _binary(expr, _finite(expr.left, leaf), _finite(expr.right, leaf))
    elif kind is Unary:
        out = _finite(expr.arg, leaf)
        if expr.op == "identity":
            return out
        out = UNARY_UFUNC[expr.op](out)
    else:
        out = leaf(expr)
        if out is None:
            raise _NotFinite
        return out
    # the sum of squares has an inf or nan term, and so is inf or nan, if
    # any value is not finite; one of finite values that overflows takes the
    # exact check. A dot product is one reduction, and cheaper than add.reduce
    if isfinite(out.dot(out)) or np.isfinite(out).all():
        return out
    raise _NotFinite


def _check_indices(expr: Expr, leaf: Callable[[Expr], np.ndarray | None]) -> None:
    """Raise _leaf's ValueError for the first out-of-range Var, in _eval's order."""
    if isinstance(expr, Unary):
        _check_indices(expr.arg, leaf)
    elif isinstance(expr, Binary):
        _check_indices(expr.left, leaf)
        _check_indices(expr.right, leaf)
    elif isinstance(expr, Var):
        leaf(expr)


# ----------------------------------------------------------- scalar compile

# float versions of BINARY_UFUNC; ZeroDivisionError stands for numpy's
# +-inf or nan, which _contain turns into nan
_SCALAR_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}

# arguments on which each unary ufunc raises no floating-point exception
# (sin underflows on subnormals); any other argument is evaluated under
# errstate, as in evaluate_batch, so the value is the ufunc's either way
_TINY = float(np.finfo(float).tiny)
_QUIET_ARG = {
    "sin": lambda a: a == 0.0 or abs(a) >= _TINY,
    "cos": lambda a: True,
    "log": lambda a: a > 0.0,
    "exp": lambda a: -708.0 < a < 709.0,
}


def compile_scalar(expr: Expr) -> Callable[[float, Sequence[float]], float]:
    """Compile expr once into a function of (t, x) at one point.

    Each node becomes a closure over Python floats that keeps _eval's
    rules: the same ufuncs for unary ops, IEEE arithmetic, _int_pow's
    multiplication order, and nan wherever an operand or a result is not
    finite.  The function returns evaluate_batch(expr, [t], [x])[0] bit
    for bit without building an array per node.
    """
    node = _compile(expr)

    def scalar(t: float, x: Sequence[float]) -> float:
        return node(float(t), np.asarray(x, dtype=float).ravel().tolist())

    return scalar


def _compile(expr: Expr) -> Callable[[float, list[float]], float]:
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
        arg = _compile(expr.arg)
        if expr.op == "identity":
            return arg
        ufunc, quiet = UNARY_UFUNC[expr.op], _QUIET_ARG[expr.op]

        def unary(t, xs):
            a = arg(t, xs)
            if not isfinite(a):
                return nan
            if quiet(a):
                out = float(ufunc(a))
            else:
                with np.errstate(all="ignore"):
                    out = float(ufunc(a))
            return out if isfinite(out) else nan

        return unary
    left, right = _compile(expr.left), _compile(expr.right)
    op = _scalar_binary(expr)

    def binary(t, xs):
        # both sides run first, so an out-of-range Var raises as in _eval
        l = left(t, xs)
        r = right(t, xs)
        if not (isfinite(l) and isfinite(r)):
            return nan
        try:
            out = op(l, r)
        except ZeroDivisionError:
            return nan
        return out if isfinite(out) else nan

    return binary


def _scalar_binary(expr: Binary) -> Callable[[float, float], float]:
    if expr.op != "pow":
        return _SCALAR_BINARY[expr.op]
    n = _int_exponent(expr)
    if n is None:
        return _power
    if n == 0:
        return lambda l, r: 1.0  # _int_pow's ones_like, as a float
    return lambda l, r: _int_pow(l, n)


def _power(l: float, r: float) -> float:
    # 1-element arrays, as in _eval: on scalars and 0-d arrays numpy turns
    # exponents 0.5, -1 and 2 into sqrt, reciprocal and square, whose last
    # bit can differ from the power loop's
    with np.errstate(all="ignore"):
        return float(np.power(np.array([l]), np.array([r]))[0])


# ---------------------------------------------------------------- complexity


def complexity(expr: Expr) -> int:
    """Node count; identity is free but its argument still counts."""
    if isinstance(expr, Unary):
        inner = complexity(expr.arg)
        return inner if expr.op == "identity" else 1 + inner
    if isinstance(expr, Binary):
        return 1 + complexity(expr.left) + complexity(expr.right)
    return 1


# --------------------------------------------------------------- print/parse


def print_expr(expr: Expr, variable_names: Sequence[str] | None = None) -> str:
    """Fully parenthesised infix form; parse_expr inverts it exactly."""
    if isinstance(expr, Const):
        s = repr(expr.value)
        # a bare leading minus would rebind as unary minus under ^
        return f"({s})" if s.startswith("-") else s
    if isinstance(expr, Var):
        if variable_names is not None:
            return variable_names[expr.index]
        return f"x{expr.index + 1}"
    if isinstance(expr, Time):
        return "t"
    if isinstance(expr, Unary):
        return f"{expr.op}({print_expr(expr.arg, variable_names)})"
    left = print_expr(expr.left, variable_names)
    right = print_expr(expr.right, variable_names)
    return f"({left} {_BINARY_SYMBOL[expr.op]} {right})"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent.  Precedence, tightest first: ^ (left-assoc),
    unary minus, * /, + - (all left-assoc)."""

    def __init__(self, text: str, variable_names: Sequence[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = tuple(variable_names) if variable_names is not None else None

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.next()

    def parse(self) -> Expr:
        e = self.sum()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.next()
                e = Binary(_SYMBOL_BINARY[value], e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.signed()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.next()
                e = Binary(_SYMBOL_BINARY[value], e, self.signed())
            else:
                return e

    def signed(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            inner = self.signed()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Binary("mul", Const(-1.0), inner)
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.next()
                e = Binary("pow", e, self.exponent())
            else:
                return e

    def exponent(self) -> Expr:
        # allow a signed literal or atom directly after ^
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            inner = self.exponent()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Binary("mul", Const(-1.0), inner)
        return self.atom()

    def atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "num":
            return Const(float(value))
        if kind == "op" and value == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in UNARY_OPS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.next()
                arg = self.sum()
                self.expect_op(")")
                return Unary(value, arg)
            return self.variable(value, pos)
        raise ParseError(
            f"expected expression, got {value!r}" if value else "expected expression",
            pos,
        )

    def variable(self, name: str, pos: int) -> Expr:
        if self.names is not None:
            if name in self.names:
                return Var(self.names.index(name))
            if name == "t":
                return Time()
            raise ParseError(f"unknown identifier {name!r}", pos)
        if name == "t":
            return Time()
        m = re.fullmatch(r"x(\d+)", name)
        if m and int(m.group(1)) >= 1:
            return Var(int(m.group(1)) - 1)
        raise ParseError(f"unknown identifier {name!r}", pos)


def parse_expr(text: str, variable_names: Sequence[str] | None = None) -> Expr:
    """Parse the infix syntax produced by print_expr.

    With variable_names given, bare identifiers resolve to their index in
    that sequence; otherwise x1, x2, ... map to Var(0), Var(1), ...  The
    name t is the time node unless shadowed by a variable name.
    """
    return _Parser(text, variable_names).parse()

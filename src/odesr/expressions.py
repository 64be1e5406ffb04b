"""Expression trees over state variables, time, and constants.

Trees are immutable and structurally comparable.  Evaluation is
vectorised over sample points and never raises on bad math: any point
where a subexpression leaves the reals (log of a non-positive value,
division by zero, overflow, a fractional power of a negative base)
evaluates to nan, and nan propagates to the root.  Callers treat nan
as "invalid here" rather than catching exceptions.  For one point at a
time (an ODE right-hand side), compile_scalar generates the source of one
Python function over floats, with a local per distinct inner node, that
follows the same rules bit for bit; compile_components does the same for
the components of a system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
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


def left_fold(op: str, operands: Sequence[Expr]) -> Expr:
    """The operands joined by op, left-nested: ((a op b) op c) ...; one
    operand is itself, and none is Const(0.0), the empty sum."""
    return reduce(partial(Binary, op), operands) if operands else Const(0.0)


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
    """Scalar evaluation; nan marks an invalid point.  It is
    evaluate_batch at one point, which costs less than generating
    compile_scalar's source; to evaluate one tree at many points one at a
    time, compile it once with compile_scalar."""
    return float(evaluate_batch(expr, [t], [x])[0])


def _all_finite(values: np.ndarray) -> bool:
    # the sum of squares has an inf or nan term, and so is inf or nan, if
    # any value is not finite; one of finite values that overflows takes the
    # exact check. A dot product is one reduction, and cheaper than add.reduce.
    # Callers hold np.errstate, so that overflow does not warn
    return isfinite(values.dot(values)) or bool(np.isfinite(values).all())


def _contain(out: np.ndarray, *parents: np.ndarray) -> np.ndarray:
    # overflow and domain errors both collapse to nan, and nan inputs
    # always poison the output (np.power(1, nan) would otherwise be 1).
    if _all_finite(out) and all(map(_all_finite, parents)):
        return out
    bad = ~np.isfinite(out)
    for p in parents:
        bad |= ~np.isfinite(p)
    if bad.any():
        out = np.where(bad, np.nan, out)
    return out


def _int_pow(base, n: int):
    # on arrays; compile_scalar's source writes out the same products
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
            raise _out_of_range((expr.index,), xs.shape[1])
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
    if _all_finite(out):
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

# arguments on which each unary ufunc raises no floating-point exception
# (sin underflows on subnormals), as source over the argument {a}; any other
# argument is evaluated under errstate, as in evaluate_batch, so the value
# is the ufunc's either way. cos raises on no finite argument
_QUIET_TEST = {
    "sin": "{a} == 0.0 or abs({a}) >= tiny",
    "log": "{a} > 0.0",
    "exp": "-708.0 < {a} < 709.0",
}


def _quietly(ufunc, a: float) -> float:
    with np.errstate(all="ignore"):
        return float(ufunc(a))


def _power(l: float, r: float) -> float:
    # 1-element arrays, as in _eval: on scalars and 0-d arrays numpy turns
    # exponents 0.5, -1 and 2 into sqrt, reciprocal and square, whose last
    # bit can differ from the power loop's
    with np.errstate(all="ignore"):
        return float(np.power(np.array([l]), np.array([r]))[0])


def _out_of_range(indices: tuple[int, ...], size: int) -> ValueError:
    """The error for the first of indices that a state of size values lacks."""
    index = next(i for i in indices if i >= size)
    return ValueError(
        f"variable index {index} out of range for state dimension {size}"
    )


# the globals of every generated function, before its constants
_GLOBALS = {
    "array": np.array,
    "asarray": np.asarray,
    "isfinite": isfinite,
    "nan": nan,
    "out_of_range": _out_of_range,
    "power": _power,
    "quietly": _quietly,
    "tiny": float(np.finfo(float).tiny),
    **UNARY_UFUNC,
}


def compile_scalar(expr: Expr) -> Callable[[float, Sequence[float]], float]:
    """Compile expr once into a function of (t, x) at one point.

    The function is generated Python source with one local per distinct
    inner node, and keeps _eval's rules: the same ufuncs for unary ops, IEEE
    arithmetic, _int_pow's multiplication order, and nan wherever an
    operand or a result is not finite.  It returns
    evaluate_batch(expr, [t], [x])[0] bit for bit, and raises its
    ValueError for an out-of-range Var, without an array per node.
    Generating the source costs hundreds of calls, so a tree needed at a
    few points only is cheaper to evaluate with evaluate_batch.
    """
    return _generate([expr], vector=False)


def compile_components(
    exprs: Sequence[Expr],
) -> Callable[[float, Sequence[float]], np.ndarray]:
    """One generated function of (t, x) that returns the array of
    compile_scalar(e)(t, x) for e in exprs, bit for bit, converting the
    state once per call."""
    return _generate(exprs, vector=True)


def _generate(exprs: Sequence[Expr], vector: bool) -> Callable:
    """The function of (t, x) that compile_scalar (exprs holds one tree) or
    compile_components returns.

    Its source reads every state value a tree uses, in _eval's order, then
    computes each tree's inner nodes into locals, leaving a tree at its
    first node that is not finite: a function of one tree returns nan, and
    a component breaks out of a loop that runs once with nan as its value.
    """
    source = _Source()
    body, values = [], []
    for i, expr in enumerate(exprs):
        fail = (f"y{i} = nan", "break") if vector else ("return nan",)
        lines, value = source.tree(expr, fail)
        if vector and lines:
            body += ["while True:", *(f"    {line}" for line in lines)]
            body += [f"    y{i} = {value}", "    break"]
            value = f"y{i}"
        else:
            body += lines
        values.append(value)
    head = ["t = float(t)", "xs = asarray(x, dtype=float).ravel().tolist()"]
    if source.reads:
        # every Var is read before any node is evaluated, so an out-of-range
        # one raises even where an earlier node is not finite
        head += [
            "try:",
            *(f"    {name} = xs[{index}]" for index, name in source.reads.items()),
            "except IndexError:",
            f"    raise out_of_range({tuple(source.reads)}, len(xs)) from None",
        ]
    tail = f"return array([{', '.join(values)}])" if vector else f"return {values[0]}"
    code = "".join(f"    {line}\n" for line in (*head, *body, tail))
    exec(compile(f"def generated(t, x):\n{code}", "<generated>", "exec"), source.env)
    return source.env["generated"]


class _Source:
    """What the trees of one generated function share: its globals, with a
    name per constant, the state values it reads, by index in _eval's
    order, and a count of its locals."""

    def __init__(self):
        self.env = dict(_GLOBALS)
        self.reads: dict[int, str] = {}
        self.nodes = 0

    def leaf(self, expr: Expr) -> str:
        if type(expr) is Const:
            # bound by name, never printed, so nan, -0.0 and every bit survive
            name = f"c{len(self.env) - len(_GLOBALS)}"
            self.env[name] = expr.value
            return name
        if type(expr) is Var:
            return self.reads.setdefault(expr.index, f"v{expr.index}")
        return "t"

    def tree(self, expr: Expr, fail: tuple[str, ...]) -> tuple[list[str], str]:
        """The lines that compute expr and the name of its value. The lines
        run fail at the first node that is not finite; a leaf at the root,
        under identity nodes only, is the value as it is."""
        root = _unwrap(expr)
        if type(root) not in (Unary, Binary):
            return [], self.leaf(root)
        leaves = list(_leaves(root))
        if any(type(leaf) is Const and not isfinite(leaf.value) for leaf in leaves):
            # every node above a non-finite constant is nan
            for leaf in leaves:
                if type(leaf) is Var:
                    self.leaf(leaf)
            return [], "nan"
        lines: list[str] = []
        checked: set[str] = set()
        # an inner node equal to one computed before reuses its local: its
        # value is the same bits, and was found finite. Each constant has a
        # name of its own, so 0.0 and -0.0 never count as equal
        done: dict[tuple, str] = {}

        def fail_if(condition: str) -> None:
            lines.append(f"if {condition}:")
            lines.extend(f"    {line}" for line in fail)

        def node(expr: Expr) -> str:
            expr = _unwrap(expr)
            kind = type(expr)
            if kind not in (Unary, Binary):
                name = self.leaf(expr)
                if kind is not Const and name not in checked:
                    checked.add(name)
                    fail_if(f"not isfinite({name})")
                return name
            if kind is Unary:
                key = (expr.op, node(expr.arg), None)
            elif expr.op == "pow" and (n := _int_exponent(expr)) is not None:
                key = ("int_pow", node(expr.left), n)
            else:
                key = (expr.op, node(expr.left), node(expr.right))
            if key in done:
                return done[key]
            out = done[key] = self.local()
            op, a, b = key
            if kind is Unary:
                call = f"float({op}({a}))"
                if op in _QUIET_TEST:
                    lines.append(f"if {_QUIET_TEST[op].format(a=a)}:")
                    lines.append(f"    {out} = {call}")
                    lines.append("else:")
                    lines.append(f"    {out} = quietly({op}, {a})")
                else:
                    lines.append(f"{out} = {call}")
                if op in ("sin", "cos"):
                    return out  # finite, as its argument is
            elif op == "pow":
                lines.append(f"{out} = power({a}, {b})")
            elif op == "int_pow":
                if b == 0:
                    lines.append(f"{out} = 1.0")  # _int_pow's ones_like, as a float
                    return out
                # _int_pow's order, ((a * a) * a) * ..., then 1.0 / that
                lines.append(f"{out} = {' * '.join([a] * abs(b))}")
                if b < 0:
                    fail_if(f"{out} == 0.0")
                    lines.append(f"{out} = 1.0 / {out}")
            else:
                if op == "div":
                    # a zero divisor raises ZeroDivisionError where numpy
                    # gives +-inf or nan
                    fail_if(f"{b} == 0.0")
                lines.append(f"{out} = {a} {_BINARY_SYMBOL[op]} {b}")
            fail_if(f"not isfinite({out})")
            return out

        return lines, node(root)

    def local(self) -> str:
        self.nodes += 1
        return f"n{self.nodes}"


def _unwrap(expr: Expr) -> Expr:
    """expr without the identity nodes at its top, which return their argument."""
    while type(expr) is Unary and expr.op == "identity":
        expr = expr.arg
    return expr


def _leaves(expr: Expr):
    """The leaves of expr in _eval's order."""
    if type(expr) is Unary:
        yield from _leaves(expr.arg)
    elif type(expr) is Binary:
        yield from _leaves(expr.left)
        yield from _leaves(expr.right)
    else:
        yield expr


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
        return _unary_form(expr.op, print_expr(expr.arg, variable_names))
    left = print_expr(expr.left, variable_names)
    right = print_expr(expr.right, variable_names)
    return _binary_form(expr.op, left, right)


def _unary_form(op: str, arg: str) -> str:
    """print_expr's form of a unary node over its argument's printed form;
    feynman's brute-force table prints its skeletons through it."""
    return f"{op}({arg})"


def _binary_form(op: str, left: str, right: str) -> str:
    """print_expr's form of a binary node over its operands' printed forms;
    feynman's brute-force table prints its skeletons through it."""
    return f"({left} {_BINARY_SYMBOL[op]} {right})"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{NAME})"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("eof", "", len(text))."""
    tokens = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        kind = m.lastgroup
        tokens.append((kind, m[kind], m.start(kind)))
        pos = m.end()
    at = len(text) - len(text[pos:].lstrip())
    if at < len(text):
        raise ParseError(f"unexpected character {text[at]!r}", at)
    tokens.append(("eof", "", len(text)))
    return tokens


def _negated(e: Expr) -> Expr:
    """A leading minus: a Const folds its sign, anything else is (-1.0) * e."""
    return Const(-e.value) if isinstance(e, Const) else Binary("mul", Const(-1.0), e)


class _Parser:
    """Recursive descent.  The grammar, loosest level first:

        sum      = term {("+" | "-") term}
        term     = signed {("*" | "/") signed}
        signed   = "-" signed | power
        power    = atom {"^" exponent}
        exponent = "-" exponent | atom
        atom     = number | name | function "(" sum ")" | "(" sum ")"

    Each binary level is left-associative, and unary minus binds looser
    than ^ (-x^2 is -(x^2)); a signed literal or atom may follow ^ directly
    (x^-2.0)."""

    def __init__(self, text: str, variable_names: Sequence[str] | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = tuple(variable_names) if variable_names is not None else None

    def take(self, symbols: str) -> str | None:
        """The next token if it is an operator among symbols, consumed."""
        kind, value, _ = self.tokens[self.i]
        if kind == "op" and value in symbols:
            self.i += 1
            return value
        return None

    def parse(self) -> Expr:
        try:
            e = self.sum()
        except RecursionError:
            # each nesting level costs several frames of this descent
            at = self.tokens[min(self.i, len(self.tokens) - 1)][2]
            raise ParseError("expression nested too deeply", at) from None
        kind, value, pos = self.tokens[self.i]
        if kind != "eof":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def chain(self, e: Expr, symbols: str, operand: Callable[[], Expr]) -> Expr:
        """e, then each operator among symbols with its operand, left-associative."""
        while symbol := self.take(symbols):
            e = Binary(_SYMBOL_BINARY[symbol], e, operand())
        return e

    def sum(self) -> Expr:
        return self.chain(self.term(), "+-", self.term)

    def term(self) -> Expr:
        return self.chain(self.signed(), "*/", self.signed)

    def power(self) -> Expr:
        return self.chain(self.atom(), "^", self.exponent)

    def signed(self) -> Expr:
        return _negated(self.signed()) if self.take("-") else self.power()

    def exponent(self) -> Expr:
        return _negated(self.exponent()) if self.take("-") else self.atom()

    def atom(self) -> Expr:
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Const(float(value))
        if kind == "name":
            if not self.take("("):
                return self.variable(value, pos)
            if value not in UNARY_OPS:
                raise ParseError(f"unknown function {value!r}", pos)
        elif value != "(":
            got = f", got {value!r}" if value else ""
            raise ParseError(f"expected expression{got}", pos)
        e = self.sum()
        if not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.i][2])
        return Unary(value, e) if kind == "name" else e

    def variable(self, name: str, pos: int) -> Expr:
        """A variable name, else t, else (without variable names) x1, x2, ..."""
        if self.names is not None and name in self.names:
            return Var(self.names.index(name))
        if name == "t":
            return Time()
        if self.names is None and re.fullmatch(r"x0*[1-9]\d*", name):
            return Var(int(name[1:]) - 1)
        raise ParseError(f"unknown identifier {name!r}", pos)


def parse_expr(text: str, variable_names: Sequence[str] | None = None) -> Expr:
    """Parse the infix syntax produced by print_expr.

    With variable_names given, bare identifiers resolve to their index in
    that sequence; otherwise x1, x2, ... map to Var(0), Var(1), ...  The
    name t is the time node unless shadowed by a variable name.
    """
    return _Parser(text, variable_names).parse()

"""Grammatical-evolution genomes: fixed-length bitstrings decoded into
expression trees.

The grammar has four nonterminals; each choice consumes one fixed-width
codon (MSB first, value taken modulo the rule count):

    expr    ::= expr op expr | unary expr | leaf        (2-bit codon)
    op      ::= + | - | * | / | ^                       (3-bit codon)
    unary   ::= sin | cos | log | exp | identity        (3-bit codon)
    leaf    ::= x_1 ... x_k | constants from the pool   (width from k+|pool|)

Decoding expands the leftmost unresolved nonterminal first and fails
(returns None) when the bits run out; leftover bits are ignored.  There
is no wrap-around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expressions import BINARY_OPS, UNARY_OPS, Binary, Const, Expr, Unary, Var

CONSTANT_POOLS: dict[str, tuple[float, ...]] = {
    "lotka_volterra": (1.0, 1.5, -3.0, -1.0),
    "simple_pendulum": (-9.81, -0.1, -1.0, 1.0),
    "cart_pole": (-1.0, 0.5, 2.0, 6.0, 1.0, 9.81, 19.62),
}


class SamplingError(RuntimeError):
    """No valid genome was found within the attempt budget."""


def _codon_width(n_rules: int) -> int:
    return max(1, (n_rules - 1).bit_length())


@dataclass(frozen=True)
class Grammar:
    variable_count: int
    constant_pool: tuple[float, ...]
    # codon widths, derived once here rather than on every codon read; they
    # take no part in equality, hashing or repr
    expr_width: int = field(init=False, repr=False, compare=False)
    op_width: int = field(init=False, repr=False, compare=False)
    unary_width: int = field(init=False, repr=False, compare=False)
    var_width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        pool = tuple(self.constant_pool)
        object.__setattr__(self, "constant_pool", pool)
        object.__setattr__(self, "expr_width", _codon_width(3))
        object.__setattr__(self, "op_width", _codon_width(len(BINARY_OPS)))
        object.__setattr__(self, "unary_width", _codon_width(len(UNARY_OPS)))
        object.__setattr__(self, "var_width", _codon_width(self.variable_count + len(pool)))


def grammar_for_system(name: str, constant_pool: Sequence[float] | None = None) -> Grammar:
    from .systems import get_system

    system = get_system(name)
    pool = CONSTANT_POOLS[name] if constant_pool is None else tuple(constant_pool)
    return Grammar(variable_count=system.dim, constant_pool=pool)


@dataclass(frozen=True)
class Genome:
    bits: tuple[int, ...]

    def __post_init__(self):
        # types first: 1.0 == 1, so a value check alone lets floats through
        # and decode then fails on `int | float`
        if not all(issubclass(t, (int, np.integer)) for t in set(map(type, self.bits))):
            raise ValueError("genome bits must be integers 0 or 1")
        if not set(self.bits) <= {0, 1}:
            raise ValueError("genome bits must be 0 or 1")

    def to_string(self) -> str:
        return "".join("01"[b] for b in self.bits)

    @classmethod
    def from_string(cls, s: str) -> "Genome":
        if any(c not in "01" for c in s):
            raise ValueError(f"genome string must be 0/1, got {s!r}")
        return cls(tuple(int(c) for c in s))


def _consumed(bits: Sequence[int], grammar: Grammar) -> int | None:
    """Bits a decode of bits reads, or None when they run out; builds no tree.

    The inner loop reads an expr codon and descends into its leftmost child; a
    binary rule stacks its op codon width, skipped before the right operand.
    The expr codon is 2 bits for 3 rules: 00 and 11 binary, 01 unary, 10 leaf."""
    n_bits = len(bits)
    op_width, unary_width, var_width = grammar.op_width, grammar.unary_width, grammar.var_width
    pos = 0
    pending = [0]
    while pending:
        pos += pending.pop()
        while True:
            if pos + 2 > n_bits:
                return None
            high, low = bits[pos], bits[pos + 1]
            pos += 2
            if high == low:
                pending.append(op_width)
            elif low:
                pos += unary_width
            else:
                pos += var_width
                break
    return pos if pos <= n_bits else None


def _tree(bits: Sequence[int], grammar: Grammar) -> tuple[Expr, int]:
    """The expression of bits that _consumed accepts, and the bits it read."""
    n_leaves = grammar.variable_count + len(grammar.constant_pool)
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        value = 0
        for b in bits[pos : pos + width]:
            value = (value << 1) | b
        pos += width
        return value

    def expr() -> Expr:
        rule = take(grammar.expr_width) % 3
        if rule == 0:
            left = expr()
            op = BINARY_OPS[take(grammar.op_width) % len(BINARY_OPS)]
            return Binary(op, left, expr())
        if rule == 1:
            return Unary(UNARY_OPS[take(grammar.unary_width) % len(UNARY_OPS)], expr())
        index = take(grammar.var_width) % n_leaves
        if index < grammar.variable_count:
            return Var(index)
        return Const(grammar.constant_pool[index - grammar.variable_count])

    return expr(), pos


def _decode(bits: Sequence[int], grammar: Grammar) -> tuple[Expr | None, int | None]:
    """(expression, bits consumed), or (None, None) when the bits run out."""
    return (None, None) if _consumed(bits, grammar) is None else _tree(bits, grammar)


def decode(genome: Genome, grammar: Grammar) -> Expr | None:
    return _decode(genome.bits, grammar)[0]


def random_genome(
    length: int,
    grammar: Grammar,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> Genome:
    """Sample uniform bitstrings until one decodes; invalid draws are discarded."""
    return Genome(tuple(_random_decoded(length, grammar, rng, max_attempts)[0]))


def _random_decoded(
    length: int,
    grammar: Grammar,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> tuple[bytes, int]:
    """random_genome as (bytes of 0/1, bits consumed), checked by _consumed alone."""
    for _ in range(max_attempts):
        bits = rng.integers(0, 2, size=length).astype(np.uint8).tobytes()
        used = _consumed(bits, grammar)
        if used is not None:
            return bits, used
    raise SamplingError(
        f"no valid genome in {max_attempts} attempts "
        f"(k={grammar.variable_count}, pool size {len(grammar.constant_pool)}, "
        f"length {length})"
    )


def mutate(
    genome: Genome,
    grammar: Grammar,
    rng: np.random.Generator,
    rate: float = 0.1,
    max_attempts: int = 10_000,
) -> Genome:
    """Flip each bit with probability rate; resample flips from the original
    genome until the result decodes."""
    return Genome(tuple(_mutate_decoded(genome.bits, grammar, rng, rate, max_attempts)[0]))


def _mutate_decoded(
    bits: Sequence[int],
    grammar: Grammar,
    rng: np.random.Generator,
    rate: float = 0.1,
    max_attempts: int = 10_000,
) -> tuple[bytes, int]:
    """mutate as (bytes of 0/1, bits consumed), checked by _consumed alone."""
    original = np.frombuffer(bytes(bits), dtype=np.uint8)
    for _ in range(max_attempts):
        flips = rng.random(len(original)) < rate
        mutant = (original ^ flips).tobytes()
        used = _consumed(mutant, grammar)
        if used is not None:
            return mutant, used
    raise SamplingError(
        f"no valid mutation in {max_attempts} attempts (rate={rate}, "
        f"length {len(original)})"
    )

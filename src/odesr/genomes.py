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

Genome holds a tuple of bits; inside this module and run_ga a genome of
`length` bits is one int, MSB first, and the public functions convert at
their edges. _mutants makes a whole generation's mutants in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .candidates import SamplingError
from .expressions import BINARY_OPS, UNARY_OPS, Binary, Const, Expr, Unary, Var

CONSTANT_POOLS: dict[str, tuple[float, ...]] = {
    "lotka_volterra": (1.0, 1.5, -3.0, -1.0),
    "simple_pendulum": (-9.81, -0.1, -1.0, 1.0),
    "cart_pole": (-1.0, 0.5, 2.0, 6.0, 1.0, 9.81, 19.62),
}


def _codon_width(n_rules: int) -> int:
    return max(1, (n_rules - 1).bit_length())


# the codon widths that do not depend on the grammar
EXPR_WIDTH = _codon_width(3)
OP_WIDTH = _codon_width(len(BINARY_OPS))
UNARY_WIDTH = _codon_width(len(UNARY_OPS))


@dataclass(frozen=True)
class Grammar:
    variable_count: int
    constant_pool: tuple[float, ...]
    # the leaf codon width, derived once here rather than on every codon
    # read; it takes no part in equality, hashing or repr
    var_width: int = field(init=False, repr=False, compare=False)
    # the leaf of each leaf codon value after the modulo; every tree decoded
    # with this grammar shares these objects
    leaves: tuple[Expr, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        pool = tuple(self.constant_pool)
        object.__setattr__(self, "constant_pool", pool)
        object.__setattr__(self, "var_width", _codon_width(self.variable_count + len(pool)))
        leaves = tuple(map(Var, range(self.variable_count))) + tuple(map(Const, pool))
        object.__setattr__(self, "leaves", leaves)


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


def _consumed(g: int, length: int, grammar: Grammar) -> int | None:
    """Bits a decode of the length-bit genome g (MSB first) reads, or None
    when they run out; builds no tree.

    The loop reads an expr codon and descends into its leftmost child; a
    binary rule leaves one op codon pending, skipped before the right
    operand. shift is the bits left after the next expr codon.
    The expr codon is 2 bits for 3 rules: 00 and 11 binary, 01 unary, 10 leaf.
    A leaf is the cheapest expr, so after a binary rule the tree needs at
    least a leaf codon, then an op codon and a leaf expr per pending op: with
    fewer bits left the decode must run out, and the scan stops there."""
    # each width with the expr codon read after it
    unary_step, op_step = UNARY_WIDTH + EXPR_WIDTH, OP_WIDTH + EXPR_WIDTH
    var_width = grammar.var_width
    close_step = op_step + var_width  # the fewest bits that close one pending op
    shift = length - 2
    pending = 0
    while shift >= 0:
        rule = g >> shift & 3
        if rule == 1:
            shift -= unary_step
        elif rule == 2:
            shift -= var_width
            if not pending:
                return length - shift if shift >= 0 else None
            pending -= 1
            shift -= op_step
        else:
            pending += 1
            shift -= 2
            if shift < var_width + pending * close_step:
                return None
    return None


_N_UNARY, _N_BINARY = len(UNARY_OPS), len(BINARY_OPS)
_IDENTITY = UNARY_OPS.index("identity")


# the place values of a group of up to 63 bits, MSB first: a group's sum
# stays inside int64
_WEIGHTS = np.int64(1) << np.arange(62, -1, -1, dtype=np.int64)


def _rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D array of 0/1 (bool or integer) as one int, MSB
    first: one integer product per group of columns, the first group
    holding the columns left over from whole groups of 63."""
    length = bits.shape[1]
    first = length % 63 or min(length, 63)
    rows = (bits[:, :first] @ _WEIGHTS[63 - first :]).tolist()
    for lo in range(first, length, 63):
        words = (bits[:, lo : lo + 63] @ _WEIGHTS).tolist()
        rows = [row << 63 | word for row, word in zip(rows, words)]
    return rows


def _packed(bits: Sequence[int]) -> int:
    """bits as one int, MSB first."""
    return _rows(np.array([bits], dtype=bool))[0]


def _unpacked(g: int, length: int) -> tuple[int, ...]:
    """The length bits of g, MSB first."""
    return tuple(g >> i & 1 for i in range(length - 1, -1, -1))


def _prefix(g: int, length: int, used: int) -> int:
    """The first `used` bits of the length-bit genome g as an int, after a
    leading 1 that keeps prefixes of different lengths apart."""
    return 1 << used | g >> (length - used)


def _build(prefix: int, grammar: Grammar) -> tuple[Expr, int, int]:
    """The tree of a _prefix of a genome that _consumed accepts, its canonical
    key and its complexity, from one pass over the codons.

    Codons are read MSB first by shifting prefix, expanding the leftmost
    nonterminal first; a stack holds the nodes still open. The key is
    prefix with every codon replaced by its value modulo the rule count, so
    two prefixes share a key exactly when they take the same rules, and a
    key is itself such a prefix. Distinct pool entries give distinct keys,
    so Const(0.0) and Const(-0.0) do not share one. The complexity is
    expressions.complexity of the tree: identity is free. Leaves are the
    grammar's own objects."""
    leaves = grammar.leaves
    n_leaves = len(leaves)
    op_width, unary_width, leaf_width = OP_WIDTH, UNARY_WIDTH, grammar.var_width
    op_mask, unary_mask = (1 << op_width) - 1, (1 << unary_width) - 1
    leaf_mask = (1 << leaf_width) - 1
    shift = prefix.bit_length() - 1
    key, size = 1, 0
    # open nodes: None for a binary node before its left operand, (op, left)
    # after it, and the op name of a unary node
    stack: list = []
    push, pop = stack.append, stack.pop
    while True:
        # the expr codon is 2 bits for 3 rules: 00 and 11 binary, 01 unary, 10 leaf
        shift -= 2
        rule = (prefix >> shift) & 3
        if rule == 3:
            rule = 0
        key = key << 2 | rule
        if rule == 0:
            push(None)
            size += 1
            continue
        if rule == 1:
            shift -= unary_width
            index = ((prefix >> shift) & unary_mask) % _N_UNARY
            key = key << unary_width | index
            push(UNARY_OPS[index])
            if index != _IDENTITY:
                size += 1
            continue
        shift -= leaf_width
        index = ((prefix >> shift) & leaf_mask) % n_leaves
        key = key << leaf_width | index
        node = leaves[index]
        size += 1
        while stack:
            top = pop()
            if top is None:
                shift -= op_width
                index = ((prefix >> shift) & op_mask) % _N_BINARY
                key = key << op_width | index
                push((BINARY_OPS[index], node))
                break
            node = Unary(top, node) if type(top) is str else Binary(top[0], top[1], node)
        else:
            return node, key, size


def _decode(bits: Sequence[int], grammar: Grammar) -> tuple[Expr | None, int | None]:
    """(expression, bits consumed), or (None, None) when the bits run out."""
    g, length = _packed(bits), len(bits)
    used = _consumed(g, length, grammar)
    if used is None:
        return None, None
    return _build(_prefix(g, length, used), grammar)[0], used


def decode(genome: Genome, grammar: Grammar) -> Expr | None:
    return _decode(genome.bits, grammar)[0]


def random_genome(
    length: int,
    grammar: Grammar,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> Genome:
    """Sample uniform bitstrings until one decodes; invalid draws are discarded."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return Genome(_unpacked(_random_decoded(length, grammar, rng, max_attempts)[0], length))


def _random_decoded(
    length: int,
    grammar: Grammar,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> tuple[int, int]:
    """random_genome as (genome int, its _prefix), checked by _consumed alone."""
    for _ in range(max_attempts):
        [g] = _rows(rng.integers(0, 2, size=(1, length)))
        used = _consumed(g, length, grammar)
        if used is not None:
            return g, _prefix(g, length, used)
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
    genome until the result decodes.

    Each attempt draws rng.random(len(genome.bits)), in order, and flips the
    bits whose uniform is below rate; the generator is left where those draws
    leave it, on every bit generator."""
    length = len(genome.bits)
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    [(g, _)] = _mutants([_packed(genome.bits)], length, grammar, rng, rate, 1, max_attempts)
    return Genome(_unpacked(g, length))


def _mutants(
    parents: Sequence[int],
    length: int,
    grammar: Grammar,
    rng: np.random.Generator,
    rate: float,
    count: int,
    max_attempts: int = 10_000,
) -> list[tuple[int, int]]:
    """count mutants of length-bit genomes, the i-th of parents[i % len(parents)],
    as (genome int, its _prefix), each checked by _consumed alone.

    An attempt flips the bits whose uniform of rng.random(length) is below
    rate. rng.random(a) then rng.random(b) gives the floats of
    rng.random(a + b), so one rng.random(n * length) serves the next n
    attempts, n no more than are certain to run: one per mutation still to
    make, and no more than the current one has left. So the generator ends
    where one rng.random(length) per attempt leaves it, also after a
    SamplingError."""
    scan = _consumed
    mutants: list[tuple[int, int]] = []
    flips: list[int] = []  # the fetched attempts' flips, next one last
    for i in range(count):
        parent = parents[i % len(parents)]
        for attempt in range(max_attempts):
            if not flips:
                n = min(count - i, max_attempts - attempt)
                flips = _rows(rng.random(n * length).reshape(n, length) < rate)[::-1]
            g = parent ^ flips.pop()
            used = scan(g, length, grammar)
            if used is not None:
                mutants.append((g, 1 << used | g >> (length - used)))  # _prefix, inline
                break
        else:
            raise SamplingError(
                f"no valid mutation in {max_attempts} attempts (rate={rate}, length {length})"
            )
    return mutants

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odesr.expressions import BINARY_OPS, UNARY_OPS, Binary, Const, Unary, Var, print_expr
from odesr.genomes import (
    CONSTANT_POOLS,
    Genome,
    Grammar,
    SamplingError,
    _consumed,
    _decode,
    _tree,
    decode,
    grammar_for_system,
    mutate,
    random_genome,
)

LV = Grammar(variable_count=2, constant_pool=(1.0, 1.5, -3.0, -1.0))


def bits(s: str) -> Genome:
    return Genome.from_string(s.replace(" ", ""))


def test_constant_pools():
    assert CONSTANT_POOLS["lotka_volterra"] == (1.0, 1.5, -3.0, -1.0)
    assert CONSTANT_POOLS["simple_pendulum"] == (-9.81, -0.1, -1.0, 1.0)
    assert CONSTANT_POOLS["cart_pole"] == (-1.0, 0.5, 2.0, 6.0, 1.0, 9.81, 19.62)


def test_codon_widths():
    # 3 expr rules -> 2 bits; 5 ops -> 3 bits; 2 vars + 4 constants -> 3 bits
    assert LV.expr_width == 2
    assert LV.op_width == 3
    assert LV.unary_width == 3
    assert LV.var_width == 3
    cp = grammar_for_system("cart_pole")
    assert cp.var_width == 4  # 4 vars + 7 constants = 11 rules


def test_stored_widths_leave_equality_hash_and_repr_alone():
    same = Grammar(variable_count=2, constant_pool=[1.0, 1.5, -3.0, -1.0])
    assert same == LV and hash(same) == hash(LV)
    assert {LV: "lv"}[same] == "lv"
    assert repr(same) == "Grammar(variable_count=2, constant_pool=(1.0, 1.5, -3.0, -1.0))"
    assert Grammar(variable_count=3, constant_pool=LV.constant_pool) != LV
    # replace goes through __init__, so the widths follow the new fields
    wider = dataclasses.replace(LV, constant_pool=LV.constant_pool + (2.0, 3.0, 4.0))
    assert wider.var_width == 4  # 2 vars + 7 constants = 9 rules
    assert dataclasses.replace(wider, variable_count=1).var_width == 3  # 8 rules


def test_all_zero_genome_is_invalid():
    # every expr codon picks the recursive rule until bits run out
    assert decode(bits("0" * 20), LV) is None


def test_leading_var_decode_ignores_leftover_bits():
    g = bits("10 000" + "0" * 15)
    assert decode(g, LV) == Var(0)
    assert _decode(g.bits, LV)[1] == 5


def test_decode_binary_rule_is_left_to_right():
    # expr -> expr op expr; left subtree fully decoded before the op codon
    g = bits("00 10 000 010 10 011 00000")
    assert decode(g, LV) == Binary("mul", Var(0), Const(1.5))


def test_decode_unary_rule():
    g = bits("01 000 10 000" + "0" * 10)
    assert decode(g, LV) == Unary("sin", Var(0))


def test_codon_is_msb_first_and_modulo_rule_count():
    # var codon 111 = 7, 7 mod 6 = 1 -> second variable
    assert decode(bits("10 111"), LV) == Var(1)
    # op codon 101 = 5, 5 mod 5 = 0 -> add
    g = bits("00 10 000 101 10 000")
    assert decode(g, LV) == Binary("add", Var(0), Var(0))


def test_constant_leaves_map_past_variables():
    assert decode(bits("10 010"), LV) == Const(1.0)
    assert decode(bits("10 101"), LV) == Const(-1.0)


def test_exhaustion_mid_codon_is_invalid():
    assert decode(bits("10 00"), LV) is None
    assert decode(bits("0"), LV) is None


def test_decode_is_deterministic():
    g = bits("00 10 000 010 10 011 00000")
    assert decode(g, LV) == decode(g, LV)


def test_genome_string_round_trip():
    g = bits("10 000")
    assert g.to_string() == "10000"
    assert Genome.from_string(g.to_string()) == g
    with pytest.raises(ValueError):
        Genome.from_string("10a01")


def test_genome_rejects_non_integer_bits():
    # 1.0 == 1, so only a type check catches these before decode does
    with pytest.raises(ValueError, match="integers"):
        Genome((1.0, 0.0, 1, 0, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        Genome((1, 0, 2, 0, 0))
    from_numpy = Genome(tuple(np.array([1, 0, 0, 0, 0])))
    assert decode(from_numpy, LV) == Var(0)
    assert Genome((True, False, 0, 0, 0)) == bits("10 000")


@given(st.integers(0, 2**20 - 1))
@settings(max_examples=300, deadline=None)
def test_trailing_bits_never_change_decode(raw):
    g = tuple((raw >> i) & 1 for i in range(20))
    e, used = _decode(g, LV)
    if e is None:
        return
    flipped = g[:used] + tuple(1 - b for b in g[used:])
    assert _decode(flipped, LV)[0] == e


def reference_decode(bits, grammar):
    """Recursive decode that checks for exhaustion at every codon: (tree,
    bits read), or (None, None) when the bits run out."""
    pos = 0

    def take(width):
        nonlocal pos
        if pos + width > len(bits):
            raise IndexError
        value = int("".join(map(str, bits[pos : pos + width])), 2)
        pos += width
        return value

    def expr():
        rule = take(grammar.expr_width) % 3
        if rule == 0:
            left = expr()
            op = BINARY_OPS[take(grammar.op_width) % len(BINARY_OPS)]
            return Binary(op, left, expr())
        if rule == 1:
            return Unary(UNARY_OPS[take(grammar.unary_width) % len(UNARY_OPS)], expr())
        index = take(grammar.var_width) % (grammar.variable_count + len(grammar.constant_pool))
        if index < grammar.variable_count:
            return Var(index)
        return Const(grammar.constant_pool[index - grammar.variable_count])

    try:
        return expr(), pos
    except IndexError:
        return None, None


SYSTEM_GRAMMARS = [grammar_for_system(name) for name in CONSTANT_POOLS]


def check_scan_against_reference(bits, grammar):
    tree, pos = reference_decode(bits, grammar)
    used = _consumed(bits, grammar)
    assert used == pos
    assert _consumed(bytes(bits), grammar) == used  # the GA's form of the bits
    assert _decode(bits, grammar) == (tree, pos)
    if tree is not None:
        assert print_expr(_tree(bits[:used], grammar)[0]) == print_expr(tree)
        assert print_expr(_decode(bits, grammar)[0]) == print_expr(tree)
    return used


@pytest.mark.parametrize("grammar", SYSTEM_GRAMMARS, ids=list(CONSTANT_POOLS))
def test_scan_matches_reference_decode_on_every_short_bitstring(grammar):
    valid = 0
    for length in range(1, 13):
        for bits in itertools.product((0, 1), repeat=length):
            valid += check_scan_against_reference(bits, grammar) is not None
    assert valid > 1000  # both outcomes are covered


@pytest.mark.parametrize("length", [20, 60])
@pytest.mark.parametrize("grammar", SYSTEM_GRAMMARS, ids=list(CONSTANT_POOLS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference_decode_on_long_bitstrings(grammar, length, data):
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
    check_scan_against_reference(bits, grammar)


def test_random_genome_is_valid_and_seeded():
    a = random_genome(20, LV, np.random.default_rng(5))
    b = random_genome(20, LV, np.random.default_rng(5))
    assert a == b
    assert decode(a, LV) is not None
    assert len(a.bits) == 20


def test_random_genome_impossible_length_raises():
    with pytest.raises(SamplingError, match="length 1"):
        random_genome(1, LV, np.random.default_rng(0))


def test_valid_fraction_is_substantial():
    rng = np.random.default_rng(0)
    draws = rng.integers(0, 2, size=(10_000, 20))
    valid = sum(decode(Genome(tuple(row)), LV) is not None for row in draws)
    assert valid > 2000


def test_mutate_rate_zero_is_identity():
    g = random_genome(20, LV, np.random.default_rng(1))
    assert mutate(g, LV, np.random.default_rng(2), rate=0.0) == g


def test_mutate_rate_one_is_complement_when_valid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = random_genome(20, LV, rng)
        comp = Genome(tuple(1 - b for b in g.bits))
        if decode(comp, LV) is not None:
            assert mutate(g, LV, np.random.default_rng(9), rate=1.0) == comp
            return
    pytest.fail("no genome with valid complement found")


def test_mutate_rate_one_invalid_complement_exhausts():
    # complement of a leading-var genome starts 01 111... -> needs more bits
    rng = np.random.default_rng(0)
    for _ in range(500):
        g = random_genome(20, LV, rng)
        if decode(Genome(tuple(1 - b for b in g.bits)), LV) is None:
            with pytest.raises(SamplingError, match="attempts"):
                mutate(g, LV, np.random.default_rng(4), rate=1.0, max_attempts=50)
            return
    pytest.fail("no genome with invalid complement found")


def test_mutate_output_always_valid():
    rng = np.random.default_rng(12)
    g = random_genome(20, LV, rng)
    for _ in range(100):
        g = mutate(g, LV, rng, rate=0.1)
        assert decode(g, LV) is not None
        assert len(g.bits) == 20


def test_mutate_is_seeded():
    g = random_genome(20, LV, np.random.default_rng(3))
    a = mutate(g, LV, np.random.default_rng(7), rate=0.2)
    b = mutate(g, LV, np.random.default_rng(7), rate=0.2)
    assert a == b


def test_grammar_for_system_uses_pool():
    g = grammar_for_system("simple_pendulum")
    assert g.variable_count == 2
    assert g.constant_pool == (-9.81, -0.1, -1.0, 1.0)

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odesr import genomes
from odesr.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    Binary,
    Const,
    Unary,
    Var,
    complexity,
    print_expr,
)
from odesr.genomes import (
    CONSTANT_POOLS,
    EXPR_WIDTH,
    OP_WIDTH,
    UNARY_WIDTH,
    Genome,
    Grammar,
    SamplingError,
    _build,
    _consumed,
    _decode,
    _mutants,
    _prefix,
    _rows,
    decode,
    grammar_for_system,
    mutate,
    random_genome,
)

LV = Grammar(variable_count=2, constant_pool=(1.0, 1.5, -3.0, -1.0))


def bits(s: str) -> Genome:
    return Genome.from_string(s.replace(" ", ""))


def packed(bits) -> int:
    """A sequence of 0/1 as the GA holds it: one int, MSB first."""
    return int("0" + "".join(map(str, bits)), 2)


def scan(bits, grammar):
    """_consumed of a sequence of 0/1."""
    return _consumed(packed(bits), len(bits), grammar)


def prefix_of(bits, used: int) -> int:
    """_prefix of a sequence of 0/1."""
    return _prefix(packed(bits), len(bits), used)


def test_constant_pools():
    assert CONSTANT_POOLS["lotka_volterra"] == (1.0, 1.5, -3.0, -1.0)
    assert CONSTANT_POOLS["simple_pendulum"] == (-9.81, -0.1, -1.0, 1.0)
    assert CONSTANT_POOLS["cart_pole"] == (-1.0, 0.5, 2.0, 6.0, 1.0, 9.81, 19.62)


def test_codon_widths():
    # 3 expr rules -> 2 bits; 5 ops -> 3 bits; 2 vars + 4 constants -> 3 bits
    assert EXPR_WIDTH == 2
    assert OP_WIDTH == 3
    assert UNARY_WIDTH == 3
    assert LV.var_width == 3
    cp = grammar_for_system("cart_pole")
    assert cp.var_width == 4  # 4 vars + 7 constants = 11 rules


def test_grammar_needs_a_variable():
    with pytest.raises(ValueError, match="^need at least one variable$"):
        Grammar(0, (1.0,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grammar_refuses_a_constant_that_is_not_finite(value):
    # the constant used to become a leaf that no tree could use
    with pytest.raises(ValueError, match=r"^constant_pool must be finite, got \(1\.0, "):
        Grammar(2, (1.0, value))


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
        rule = take(EXPR_WIDTH) % 3
        if rule == 0:
            left = expr()
            op = BINARY_OPS[take(OP_WIDTH) % len(BINARY_OPS)]
            return Binary(op, left, expr())
        if rule == 1:
            return Unary(UNARY_OPS[take(UNARY_WIDTH) % len(UNARY_OPS)], expr())
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
    used = scan(bits, grammar)
    assert used == pos
    assert _decode(bits, grammar) == (tree, pos)
    if tree is not None:
        assert prefix_of(bits, used) == int("1" + "".join(map(str, bits[:used])), 2)
        assert print_expr(_build(prefix_of(bits, used), grammar)[0]) == print_expr(tree)
        assert print_expr(_decode(bits, grammar)[0]) == print_expr(tree)
    return used


@pytest.mark.parametrize("grammar", SYSTEM_GRAMMARS, ids=list(CONSTANT_POOLS))
def test_scan_matches_reference_decode_on_every_short_bitstring(grammar):
    valid = 0
    for length in range(1, 13):
        for bits in itertools.product((0, 1), repeat=length):
            valid += check_scan_against_reference(bits, grammar) is not None
    assert valid > 1000  # both outcomes are covered


# 65 and 130 cross 64 bits and are not whole bytes
@pytest.mark.parametrize("length", [20, 60, 65, 130])
@pytest.mark.parametrize("grammar", SYSTEM_GRAMMARS, ids=list(CONSTANT_POOLS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference_decode_on_long_bitstrings(grammar, length, data):
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
    check_scan_against_reference(bits, grammar)


def full_walk_consumed(g, length, grammar):
    """_consumed without its early exit: a genome whose bits run out is
    walked to its last codon."""
    unary_step, op_step = UNARY_WIDTH + EXPR_WIDTH, OP_WIDTH + EXPR_WIDTH
    shift = length - 2
    pending = 0
    while shift >= 0:
        rule = g >> shift & 3
        if rule == 1:
            shift -= unary_step
        elif rule == 2:
            shift -= grammar.var_width
            if not pending:
                return length - shift if shift >= 0 else None
            pending -= 1
            shift -= op_step
        else:
            pending += 1
            shift -= 2
    return None


# leaf codons of 1 to 5 bits; the first grammar has a single leaf
WIDTH_GRAMMARS = [
    Grammar(variable_count=1, constant_pool=()),
    Grammar(variable_count=2, constant_pool=(1.0, 2.0)),
    LV,
    Grammar(variable_count=3, constant_pool=tuple(map(float, range(10)))),
    Grammar(variable_count=4, constant_pool=tuple(map(float, range(20)))),
]


@pytest.mark.parametrize("grammar", WIDTH_GRAMMARS, ids=lambda g: f"width{g.var_width}")
def test_early_exit_scan_matches_a_full_walk(grammar):
    assert [g.var_width for g in WIDTH_GRAMMARS] == [1, 2, 3, 4, 5]
    rng = np.random.default_rng(grammar.var_width)
    valid = invalid = 0
    for length in range(1, 131):
        # uniform bits, and bits mostly 0 or mostly 1, whose expr codons are
        # mostly binary rules (00 and 11)
        for p_one in (0.5, 0.05, 0.2, 0.8, 0.95):
            for row in (rng.random((30, length)) < p_one).astype(int):
                g = packed(row)
                used = _consumed(g, length, grammar)
                assert used == full_walk_consumed(g, length, grammar), (length, g)
                valid += used is not None
                invalid += used is None
    assert valid > 1000 and invalid > 1000


def packbits_rows(bits):
    """_rows as np.packbits and int.from_bytes read them: each row packed into
    whole bytes, its pad of zeros then shifted away."""
    n, length = bits.shape
    width, pad = -(-length // 8), -length % 8
    packed = np.packbits(bits, axis=1).tobytes()
    return [int.from_bytes(packed[j * width : (j + 1) * width], "big") >> pad for j in range(n)]


@pytest.mark.parametrize("dtype", [bool, np.int64])
def test_rows_match_the_packbits_reading(dtype):
    rng = np.random.default_rng(0)
    for length in range(1, 131):  # 63, 64 and 65 among them
        bits = (rng.random((6, length)) < 0.5).astype(dtype)
        bits[0], bits[1] = 1, 0  # every place value, and none
        rows = _rows(bits)
        assert rows == packbits_rows(bits), length
        assert rows[0] == 2**length - 1 and rows[1] == 0
        assert all(type(row) is int for row in rows)


# ------------------------------------------------- the one-pass tree builder


def closure_tree(bits, grammar):
    """The recursive closure decoder that genomes._build replaced: the tree
    of bits that _consumed accepts, and the bits it read."""
    n_leaves = grammar.variable_count + len(grammar.constant_pool)
    pos = 0

    def take(width):
        nonlocal pos
        value = 0
        for b in bits[pos : pos + width]:
            value = (value << 1) | b
        pos += width
        return value

    def expr():
        rule = take(EXPR_WIDTH) % 3
        if rule == 0:
            left = expr()
            op = BINARY_OPS[take(OP_WIDTH) % len(BINARY_OPS)]
            return Binary(op, left, expr())
        if rule == 1:
            return Unary(UNARY_OPS[take(UNARY_WIDTH) % len(UNARY_OPS)], expr())
        index = take(grammar.var_width) % n_leaves
        if index < grammar.variable_count:
            return Var(index)
        return Const(grammar.constant_pool[index - grammar.variable_count])

    return expr(), pos


def built_like_closure_tree(bits, grammar):
    """(printed tree, key) of bits, once _build is found to give the closure
    decoder's tree from the bits it reads, with expressions.complexity; None
    for bits that _consumed refuses."""
    used = scan(bits, grammar)
    if used is None:
        return None
    tree, pos = closure_tree(bits, grammar)
    prefix = prefix_of(bits, used)
    built, key, size = _build(prefix, grammar)
    assert pos == used
    assert built == tree and print_expr(built) == print_expr(tree)
    assert size == complexity(tree)
    # every codon read adds its width to the key, so it has the prefix's length
    # exactly when the builder read the bits that _consumed counted
    assert key.bit_length() == prefix.bit_length()
    # a key is a prefix of codons in range that decodes alike, and its own key
    from_key, key_of_key, _ = _build(key, grammar)
    assert key_of_key == key and print_expr(from_key) == print_expr(tree)
    return print_expr(tree), key


def assert_keys_match_printed_forms(built):
    # equal keys exactly when the printed forms are equal
    prints = {p for p, _ in built}
    assert len({k for _, k in built}) == len(prints) == len(set(built))
    assert len(prints) < len(built)  # repeats occur


@pytest.mark.parametrize("name", ["lotka_volterra", "simple_pendulum"])
def test_build_matches_closure_tree_on_every_14_bit_genome(name):
    grammar = grammar_for_system(name)
    built = [built_like_closure_tree(b, grammar) for b in itertools.product((0, 1), repeat=14)]
    built = [b for b in built if b is not None]
    assert 2000 < len(built) < 2**14
    assert_keys_match_printed_forms(built)


@pytest.mark.parametrize("name, length", [("cart_pole", 60), ("lotka_volterra", 30)])
def test_build_matches_closure_tree_on_seeded_genomes(name, length):
    # 14 bits hold no binary node (it takes at least 15); these do
    grammar = grammar_for_system(name)
    draws = np.random.default_rng(19).integers(0, 2, size=(20_000, length), dtype=np.uint8)
    built = [built_like_closure_tree(row.tobytes(), grammar) for row in draws]
    built = [b for b in built if b is not None]
    assert len(built) > 5000
    assert any(p.startswith("(") and not p.startswith("(-") for p, _ in built)  # binary nodes
    assert_keys_match_printed_forms(built)


def test_build_keeps_signed_zero_constants_apart():
    grammar = Grammar(variable_count=2, constant_pool=(0.0, -0.0, 1.0, 1.5))
    # leaf codons 010 and 011 are pool entries 0 and 1
    zero, key, _ = _build(prefix_of(bits("10 010").bits, 5), grammar)
    negative, negative_key, _ = _build(prefix_of(bits("10 011").bits, 5), grammar)
    assert (print_expr(zero), print_expr(negative)) == ("0.0", "(-0.0)")
    assert key != negative_key
    assert zero is grammar.leaves[2] and negative is grammar.leaves[3]
    built = [built_like_closure_tree(b, grammar) for b in itertools.product((0, 1), repeat=10)]
    pairs = {b for b in built if b is not None}
    assert {"0.0", "(-0.0)"} <= {p for p, _ in pairs}
    assert len({k for _, k in pairs}) == len(pairs)


def test_build_shares_the_grammar_leaves():
    grammar = grammar_for_system("lotka_volterra")
    assert grammar.leaves == (Var(0), Var(1)) + tuple(map(Const, grammar.constant_pool))
    tree = decode(bits("00 10 000 010 10 011 00000"), grammar)
    assert tree.left is grammar.leaves[0] and tree.right is grammar.leaves[3]


def test_random_genome_is_valid_and_seeded():
    a = random_genome(20, LV, np.random.default_rng(5))
    b = random_genome(20, LV, np.random.default_rng(5))
    assert a == b
    assert decode(a, LV) is not None
    assert len(a.bits) == 20


def test_random_genome_impossible_length_raises():
    with pytest.raises(SamplingError, match="length 1"):
        random_genome(1, LV, np.random.default_rng(0))


@pytest.mark.parametrize("length", [0, -3])
def test_random_genome_refuses_a_length_below_one(length):
    with pytest.raises(ValueError, match=r"^length must be >= 1$"):
        random_genome(length, LV, np.random.default_rng(0))


def test_mutate_refuses_a_genome_of_no_bits():
    # it used to draw max_attempts empty flips and raise SamplingError
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^length must be >= 1$"):
        mutate(Genome(()), LV, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("max_attempts", [0, -1])
@pytest.mark.parametrize("draw", ["random_genome", "mutate"])
def test_draws_refuse_max_attempts_below_one(draw, max_attempts):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^max_attempts must be >= 1$"):
        if draw == "random_genome":
            random_genome(20, LV, rng, max_attempts=max_attempts)
        else:
            mutate(bits("10 000" + "0" * 15), LV, rng, max_attempts=max_attempts)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("rate", [float("nan"), -0.5, 1.5, -math.inf])
def test_mutate_refuses_a_rate_outside_zero_to_one(rate):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^rate must lie in \[0, 1\]$"):
        mutate(bits("10 000" + "0" * 15), LV, rng, rate=rate)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


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


# the draw contract: one rng.random(len(bits)) per mutation attempt, in order

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}


def twin_generators(kind, seed):
    """Two generators in the same state, after an odd rng.integers draw that
    leaves PCG64 holding a buffered 32-bit half-word."""
    pair = [np.random.Generator(BIT_GENERATORS[kind](seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 2, size=21)
    if kind == "pcg64":
        assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


def state_of(rng):
    """rng's bit generator state, with arrays as lists so that == compares it."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def per_attempt_mutate(genome, grammar, rng, rate, max_attempts=10_000):
    original = np.array(genome.bits, dtype=np.uint8)
    for _ in range(max_attempts):
        mutant = Genome(tuple(int(b) for b in original ^ (rng.random(len(original)) < rate)))
        if decode(mutant, grammar) is not None:
            return mutant
    raise SamplingError("no valid mutation")


@pytest.mark.parametrize("kind", BIT_GENERATORS)
def test_mutate_draws_one_random_per_attempt(kind):
    rng, ref = twin_generators(kind, 3)
    g = random_genome(20, LV, np.random.default_rng(3))
    for rate in (0.05, 0.1, 0.5, 1.0):
        for _ in range(20):
            try:
                expected = per_attempt_mutate(g, LV, ref, rate, max_attempts=50)
            except SamplingError:
                with pytest.raises(SamplingError):
                    mutate(g, LV, rng, rate, max_attempts=50)
            else:
                assert mutate(g, LV, rng, rate, max_attempts=50) == expected
            assert state_of(rng) == state_of(ref)


@pytest.mark.parametrize("kind", BIT_GENERATORS)
def test_mutate_exhaustion_leaves_per_attempt_state(kind):
    rng, ref = twin_generators(kind, 4)
    invalid = Genome((0,) * 20)
    with pytest.raises(SamplingError, match="rate=0.0, length 20"):
        mutate(invalid, LV, rng, rate=0.0, max_attempts=30)
    with pytest.raises(SamplingError):
        per_attempt_mutate(invalid, LV, ref, 0.0, max_attempts=30)
    assert state_of(rng) == state_of(ref)


@pytest.mark.parametrize("kind", BIT_GENERATORS)
@given(
    length=st.integers(0, 40),
    max_attempts=st.integers(1, 6),
    # the attempt at which each mutation decodes; past max_attempts it gives up
    outcomes=st.lists(st.integers(1, 8), max_size=12),
    rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    parents=st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_flip_blocks_match_one_draw_per_take(
    kind, length, max_attempts, outcomes, rate, seed, parents
):
    # a generation's mutants, with a scan that decodes each mutation at the
    # attempt that outcomes gives: each attempt scans its parent xor the flips
    # of one rng.random(length), in order
    rng, ref = twin_generators(kind, seed)
    parents = [p >> (40 - length) for p in parents]  # length bits each
    attempts = []  # (mutation, whether the attempt decodes), in order
    for i, decodes_at in enumerate(outcomes):
        for attempt in range(max_attempts):
            attempts.append((i, attempt + 1 == decodes_at))
            if attempt + 1 == decodes_at:
                break
        else:
            break  # a SamplingError ends the generation here
    exhausted = len(attempts) > 0 and not attempts[-1][1]
    answers = iter(decodes for _, decodes in attempts)
    scanned = []

    def scanning(g, n_bits, grammar):
        assert (n_bits, grammar) == (length, LV)
        scanned.append(g)
        return n_bits if next(answers) else None

    with pytest.MonkeyPatch.context() as m:
        m.setattr(genomes, "_consumed", scanning)
        if exhausted:
            with pytest.raises(SamplingError, match=f"{max_attempts} attempts"):
                _mutants(parents, length, LV, rng, rate, len(outcomes), max_attempts)
        else:
            mutants = _mutants(parents, length, LV, rng, rate, len(outcomes), max_attempts)
    flips = [packed((ref.random(length) < rate).astype(int)) for _ in attempts]
    assert scanned == [parents[i % len(parents)] ^ f for (i, _), f in zip(attempts, flips)]
    if not exhausted:
        # whole genomes decode here, so each prefix is the genome after a leading 1
        made = [g for g, (_, decodes) in zip(scanned, attempts) if decodes]
        assert mutants == [(g, 1 << length | g) for g in made]
    assert state_of(rng) == state_of(ref)
    # the later stream agrees too, in both draw paths
    assert rng.integers(0, 2**31, size=3).tolist() == ref.integers(0, 2**31, size=3).tolist()
    assert rng.random(5).tolist() == ref.random(5).tolist()


def per_draw_random_genome(length, grammar, rng):
    while True:
        genome = Genome(tuple(int(b) for b in rng.integers(0, 2, size=length)))
        if decode(genome, grammar) is not None:
            return genome


@pytest.mark.parametrize("kind", BIT_GENERATORS)
@pytest.mark.parametrize("length", [65, 130])
def test_draws_across_the_packing_pad_match_per_attempt_draws(kind, length):
    # 65 and 130 bits cross 63, the widest group of columns that _rows packs
    # in one product, and 64, and end in a part byte
    grammar = grammar_for_system("cart_pole")
    rng, ref = twin_generators(kind, length)
    g = random_genome(length, grammar, rng)
    assert g == per_draw_random_genome(length, grammar, ref) and len(g.bits) == length
    changed = 0
    for rate in (0.02, 0.1, 0.5):
        for _ in range(10):
            expected = per_attempt_mutate(g, grammar, ref, rate)
            mutant = mutate(g, grammar, rng, rate)
            assert mutant == expected and len(mutant.bits) == length
            assert state_of(rng) == state_of(ref)
            changed += mutant.bits[-1] != g.bits[-1]  # the last bit, before the pad
            g = mutant
    assert changed > 0

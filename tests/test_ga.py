import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest

from odesr import ga, genomes
from odesr.candidates import CandidateSolution, Scorer, fitness, make_candidate
from odesr.expressions import Binary, Const, Unary, Var, print_expr
from odesr.ga import GAConfig, default_ga_config, run_ga, step
from odesr.genomes import (
    Genome,
    Grammar,
    SamplingError,
    decode,
    grammar_for_system,
    random_genome,
)
from odesr.integrate import (
    RegressionDataset,
    finite_differences,
    make_dataset,
    make_trajectory,
)
from odesr.systems import get_system, lotka_volterra, simple_pendulum
from test_genomes import BIT_GENERATORS, per_attempt_mutate, state_of, twin_generators


@pytest.fixture(scope="module")
def lv_planted():
    # targets generated exactly by 1.5 * x, no discretization noise
    traj = make_trajectory(lotka_volterra(), "train", 0.1)
    states = traj.states[:-1]
    times = traj.times[:-1]
    return RegressionDataset(times, states, 1.5 * states[:, 0], 0.1, 0)


@pytest.fixture(scope="module")
def zero_dataset():
    times = np.linspace(0.0, 1.0, 11)
    states = np.ones((11, 2))
    return RegressionDataset(times, states, np.zeros(11), 0.1, 0)


def test_fitness_exact_fit_is_zero(zero_dataset):
    assert fitness(Const(0.0), zero_dataset) == 0.0


def test_fitness_identity_on_first_order_coordinate():
    # theta1' = theta2 exactly, so the residual is pure discretization
    # error: rms((dt/2) * theta2') ~ 0.31 at dt = 0.1 on this orbit
    traj = make_trajectory(simple_pendulum(), "train", 0.1)
    ds = finite_differences(traj, 0)
    value = fitness(Var(1), ds)
    assert value == pytest.approx(0.313, abs=0.02)


def test_fitness_nonfinite_is_inf(zero_dataset):
    e = Unary("log", Binary("mul", Const(-1.0), Var(0)))
    assert fitness(e, zero_dataset) == math.inf


def test_config_invariants():
    with pytest.raises(ValueError):
        GAConfig(population_size=7)
    with pytest.raises(ValueError):
        GAConfig(iterations=0)
    with pytest.raises(ValueError):
        GAConfig(selection_fraction=1.0)
    # ceil(70 * 0.99) survivors would leave no room for a mutant
    with pytest.raises(ValueError, match="^selection_fraction must leave at least one mutant$"):
        GAConfig(population_size=70, selection_fraction=0.99)
    with pytest.raises(ValueError):
        GAConfig(mutation_rate=1.5)
    with pytest.raises(ValueError, match="^bitstring_length must be >= 1$"):
        GAConfig(bitstring_length=0)
    # numpy's generator refused it with a message that named no option
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        GAConfig(seed=-1)


def test_default_configs_match_benchmark_settings():
    lv = default_ga_config("lotka_volterra")
    assert (lv.population_size, lv.bitstring_length, lv.iterations) == (70, 20, 100)
    pend = default_ga_config("simple_pendulum")
    assert (pend.population_size, pend.bitstring_length, pend.iterations) == (70, 20, 40)
    cp = default_ga_config("cart_pole")
    assert (cp.population_size, cp.bitstring_length, cp.iterations) == (100, 60, 100)
    assert lv.mutation_rate == 0.1 and lv.selection_fraction == 0.5


def _seeded_population(n, data, grammar, seed):
    rng = np.random.default_rng(seed)
    pop = []
    for _ in range(n):
        g = random_genome(20, grammar, rng)
        pop.append(make_candidate(decode(g, grammar), data, g))
    return pop


def test_step_selection_semantics(zero_dataset):
    grammar = grammar_for_system("lotka_volterra")
    pop = _seeded_population(4, zero_dataset, grammar, 0)
    for cand, rmse in zip(pop, [3.0, 1.0, 2.0, math.inf]):
        cand.train_rmse = rmse
    config = GAConfig(population_size=4, iterations=1)
    new = step(pop, config, zero_dataset, grammar, np.random.default_rng(0))
    assert len(new) == 4
    assert new[0] is pop[1] and new[1] is pop[2]
    for mutant in new[2:]:
        assert decode(mutant.genome, grammar) == mutant.expr


def test_step_preserves_zero_fitness_candidate(zero_dataset):
    grammar = grammar_for_system("lotka_volterra")
    pop = _seeded_population(4, zero_dataset, grammar, 1)
    hero = make_candidate(Const(0.0), zero_dataset, pop[0].genome)
    assert hero.train_rmse == 0.0
    pop[2] = hero
    config = GAConfig(population_size=4, iterations=1)
    rng = np.random.default_rng(0)
    for _ in range(3):
        pop = step(pop, config, zero_dataset, grammar, rng)
        assert pop[0] is hero


def test_step_is_deterministic(zero_dataset):
    grammar = grammar_for_system("lotka_volterra")
    config = GAConfig(population_size=6, iterations=1)
    pop = _seeded_population(6, zero_dataset, grammar, 2)
    a = step(list(pop), config, zero_dataset, grammar, np.random.default_rng(11))
    b = step(list(pop), config, zero_dataset, grammar, np.random.default_rng(11))
    assert [c.genome for c in a] == [c.genome for c in b]


def test_step_rejects_wrong_population_size(zero_dataset):
    grammar = grammar_for_system("lotka_volterra")
    pop = _seeded_population(4, zero_dataset, grammar, 0)
    with pytest.raises(ValueError):
        step(pop, GAConfig(population_size=6), zero_dataset, grammar,
             np.random.default_rng(0))


def test_step_rejects_a_survivor_of_the_wrong_length(zero_dataset):
    grammar = grammar_for_system("lotka_volterra")
    pop = _seeded_population(4, zero_dataset, grammar, 0)
    short = random_genome(12, grammar, np.random.default_rng(1))
    pop[1] = make_candidate(decode(short, grammar), zero_dataset, short)
    pop[1].train_rmse = -1.0  # ranked first, so it survives
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="survivor of 12 bits != configured 20"):
        step(pop, GAConfig(population_size=4), zero_dataset, grammar, rng)
    assert rng.bit_generator.state == state


def test_run_history_length_matches_iterations(lv_planted):
    grammar = grammar_for_system("lotka_volterra")
    config = GAConfig(population_size=10, iterations=1, seed=0)
    best, history = run_ga(config, lv_planted, grammar)
    assert len(history) == 1
    assert best.train_rmse == history[0] or best.train_rmse <= history[0]


def test_run_recovers_planted_expression(lv_planted):
    grammar = grammar_for_system("lotka_volterra")
    best, _ = run_ga(GAConfig(seed=1), lv_planted, grammar)
    assert best.train_rmse <= 0.05


def test_run_history_non_increasing_and_reproducible(lv_planted):
    grammar = grammar_for_system("lotka_volterra")
    config = GAConfig(population_size=20, iterations=15, seed=5)
    best_a, hist_a = run_ga(config, lv_planted, grammar)
    best_b, hist_b = run_ga(config, lv_planted, grammar)
    assert hist_a == hist_b
    assert print_expr(best_a.expr) == print_expr(best_b.expr)
    assert all(x >= y for x, y in zip(hist_a, hist_a[1:]))
    assert best_a.train_rmse == min(hist_a)


def reference_run_ga(config, data, grammar, rng):
    """run_ga without the fitness memo, drawing from rng as random_genome and
    mutate always have: every genome is decoded again after its validity
    check and every candidate is evaluated."""

    def ranked(pop):
        order = sorted(
            range(len(pop)), key=lambda i: (pop[i].train_rmse, pop[i].complexity, i)
        )
        return [pop[i] for i in order]

    def sample():
        while True:
            bits = rng.integers(0, 2, size=config.bitstring_length)
            genome = Genome(tuple(int(b) for b in bits))
            if decode(genome, grammar) is not None:
                return genome

    def mutant(parent):
        original = np.array(parent.bits, dtype=np.int64)
        while True:
            flips = rng.random(len(original)) < config.mutation_rate
            genome = Genome(tuple(int(b) for b in (original ^ flips)))
            if decode(genome, grammar) is not None:
                return genome

    pop = []
    for _ in range(config.population_size):
        genome = sample()
        pop.append(make_candidate(decode(genome, grammar), data, genome))
    best = ranked(pop)[0]
    history = []
    n = config.population_size
    n_survivors = math.ceil(n * config.selection_fraction)
    for _ in range(config.iterations):
        survivors = ranked(pop)[:n_survivors]
        pop = list(survivors)
        i = 0
        while len(pop) < n:
            parent = survivors[i % n_survivors]
            genome = mutant(parent.genome)
            pop.append(make_candidate(decode(genome, grammar), data, genome))
            i += 1
        gen_best = ranked(pop)[0]
        if (gen_best.train_rmse, gen_best.complexity) < (best.train_rmse, best.complexity):
            best = gen_best
        history.append(gen_best.train_rmse)
    return best, history


def run_ga_observed(monkeypatch, config, data, grammar):
    """run_ga, also returning its generator and the printed form of every
    expression that its scorer scores."""
    generators = []
    evaluated = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    class RecordingScorer(Scorer):
        def __call__(self, expr):
            evaluated.append(print_expr(expr))
            return super().__call__(expr)

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording_rng)
        m.setattr(ga, "Scorer", RecordingScorer)
        best, history = run_ga(config, data, grammar)
    (rng,) = generators
    return best, history, rng, evaluated


@pytest.mark.parametrize(
    "system_name, pool, length",
    [
        ("lotka_volterra", None, None),
        ("simple_pendulum", None, None),
        ("cart_pole", None, None),
        # equal as trees, distinct in print
        ("lotka_volterra", (0.0, -0.0, 1.0, 1.5), None),
        # genomes of more than 64 bits, packed in two groups of columns
        ("cart_pole", None, 70),
    ],
    ids=[
        "lotka_volterra-None",
        "simple_pendulum-None",
        "cart_pole-None",
        "lotka_volterra-pool3",
        "cart_pole-70_bits",
    ],
)
def test_run_ga_matches_unmemoised_reference(monkeypatch, system_name, pool, length):
    data = make_dataset(get_system(system_name), 0.1, "train")
    grammar = grammar_for_system(system_name, pool)
    config = dataclasses.replace(
        default_ga_config(system_name, seed=7), population_size=16, iterations=12
    )
    if length is not None:
        config = dataclasses.replace(config, bitstring_length=length)
    ref_rng = np.random.default_rng(config.seed)
    ref_best, ref_history = reference_run_ga(config, data, grammar, ref_rng)

    best, history, rng, evaluated = run_ga_observed(monkeypatch, config, data, grammar)

    assert print_expr(best.expr) == print_expr(ref_best.expr)
    assert best.train_rmse.hex() == ref_best.train_rmse.hex()
    assert best.complexity == ref_best.complexity
    assert best.genome == ref_best.genome
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # each printed form is evaluated once, and repeats do occur
    assert len(set(evaluated)) == len(evaluated)
    assert len(evaluated) < config.population_size * (config.iterations + 1)
    if pool is not None:
        assert any("(-0.0)" in s for s in evaluated)
        assert any("0.0" in s.replace("(-0.0)", "") for s in evaluated)


def test_fitness_memo_is_scoped_to_one_run(lv_planted):
    grammar = grammar_for_system("lotka_volterra")
    config = GAConfig(population_size=10, iterations=4, seed=4)
    doubled = dataclasses.replace(lv_planted, targets=2.0 * lv_planted.targets)
    for data in (lv_planted, doubled, lv_planted):
        best, history = run_ga(config, data, grammar)
        ref_best, ref_history = reference_run_ga(
            config, data, grammar, np.random.default_rng(config.seed)
        )
        assert best.train_rmse == fitness(best.expr, data)
        assert history == ref_history


def test_memoised_candidates_keep_their_own_expression(monkeypatch, zero_dataset):
    # Const(0.0) and Const(-0.0) are equal trees with equal scores that print
    # apart. Each seed's run scores both, and a different one wins; the
    # returned candidate is built from its own genome.
    grammar = Grammar(variable_count=2, constant_pool=(0.0, -0.0, 1.0, 1.5))
    for seed, printed in ((2, "(-0.0)"), (6, "0.0")):
        config = GAConfig(population_size=10, iterations=3, seed=seed)
        best, _, _, evaluated = run_ga_observed(monkeypatch, config, zero_dataset, grammar)
        assert {"0.0", "(-0.0)"} <= set(evaluated)
        assert print_expr(best.expr) == printed == print_expr(decode(best.genome, grammar))
        # the memo holds scores, not candidates, so callers may edit theirs
        best.train_rmse = math.inf
        again, _ = run_ga(config, zero_dataset, grammar)
        assert again is not best and again.train_rmse == 0.0


@pytest.mark.parametrize("system_name", ["lotka_volterra", "cart_pole"])
def test_run_ga_builds_one_tree_per_distinct_prefix(monkeypatch, system_name):
    data = make_dataset(get_system(system_name), 0.1, "train")
    grammar = grammar_for_system(system_name)
    config = dataclasses.replace(
        default_ga_config(system_name, seed=3), population_size=16, iterations=12
    )
    consumed, build = genomes._consumed, genomes._build
    draws, built = [], []

    def bits_of(g, length):
        return tuple(g >> i & 1 for i in reversed(range(length)))

    def scanning(g, length, grammar):
        used = consumed(g, length, grammar)
        draws.append(None if used is None else bits_of(g, length)[:used])
        return used

    def building(prefix, grammar):
        bits = tuple(int(c) for c in bin(prefix)[3:])  # past "0b" and the leading 1
        g = prefix ^ 1 << len(bits)
        assert consumed(g, len(bits), grammar) == len(bits), "no tree for an invalid draw"
        built.append(bits)
        return build(prefix, grammar)

    monkeypatch.setattr(genomes, "_consumed", scanning)
    monkeypatch.setattr(ga, "_build", building)
    best, _ = run_ga(config, data, grammar)

    prefixes = [p for p in draws if p is not None]
    # once per distinct prefix drawn, then once for the returned candidate
    assert built[:-1] == list(dict.fromkeys(prefixes))
    length = len(best.genome.bits)
    used = consumed(int(best.genome.to_string(), 2), length, grammar)
    assert built[-1] == best.genome.bits[:used]
    # invalid draws and repeated prefixes both occur, and build nothing
    assert len(prefixes) < len(draws)
    assert len(built) - 1 < len(prefixes)
    assert print_expr(best.expr) == print_expr(decode(best.genome, grammar))


@pytest.mark.parametrize("kind", BIT_GENERATORS)
def test_step_draws_one_random_per_attempt(kind):
    data = make_dataset(get_system("cart_pole"), 0.1, "train")
    grammar = grammar_for_system("cart_pole")
    config = GAConfig(population_size=10, bitstring_length=60, iterations=1, mutation_rate=0.2)
    rng, ref = twin_generators(kind, 5)
    pop = [
        make_candidate(decode(g, grammar), data, g)
        for g in (random_genome(60, grammar, np.random.default_rng(s)) for s in range(10))
    ]
    for _ in range(4):
        new = step(pop, config, data, grammar, rng)
        survivors = new[:5]
        assert survivors == sorted(pop, key=lambda c: (c.train_rmse, c.complexity))[:5]
        expected = [
            per_attempt_mutate(survivors[i % 5].genome, grammar, ref, config.mutation_rate)
            for i in range(5)
        ]
        assert [c.genome for c in new[5:]] == expected
        assert state_of(rng) == state_of(ref)
        pop = new


@pytest.mark.parametrize("kind", BIT_GENERATORS)
def test_step_exhaustion_leaves_per_attempt_state(zero_dataset, kind):
    grammar = grammar_for_system("lotka_volterra")
    invalid = Genome((0,) * 20)
    pop = [CandidateSolution(Const(0.0), float(i), 1, invalid) for i in range(4)]
    config = GAConfig(population_size=4, iterations=1, mutation_rate=0.0)
    rng, ref = twin_generators(kind, 6)
    with pytest.raises(SamplingError, match="10000 attempts"):
        step(pop, config, zero_dataset, grammar, rng)
    with pytest.raises(SamplingError):
        per_attempt_mutate(invalid, grammar, ref, 0.0)
    assert state_of(rng) == state_of(ref)


@pytest.mark.parametrize("kind", ["mt19937", "philox", "sfc64"])
def test_run_ga_matches_reference_on_other_bit_generators(monkeypatch, kind):
    data = make_dataset(get_system("cart_pole"), 0.1, "train")
    grammar = grammar_for_system("cart_pole")
    config = dataclasses.replace(
        default_ga_config("cart_pole", seed=8), population_size=16, iterations=12
    )
    make = BIT_GENERATORS[kind]
    ref_rng = np.random.Generator(make(config.seed))
    ref_best, ref_history = reference_run_ga(config, data, grammar, ref_rng)
    generators = []

    def generator(seed):
        generators.append(np.random.Generator(make(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", generator)
    best, history = run_ga(config, data, grammar)
    assert best.genome == ref_best.genome
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]
    assert state_of(generators[0]) == state_of(ref_rng)


# run_ga at the benchmark settings, seed 1000: the best expression, its train
# RMSE, its genome, and the history as runs of (best RMSE, generations)
GOLDEN = {
    "lotka_volterra": (
        "(x1 + (-3.0))",
        "0x1.149ecad20173ep+1",
        "00100000001010000001",
        [("0x1.149ecad20173ep+1", 100)],
    ),
    "simple_pendulum": (
        "((-9.81) * x1)",
        "0x1.abf9802fa7111p+0",
        "11100100101000010111",
        [("0x1.abf9802fa7111p+0", 40)],
    ),
    "cart_pole": (
        "(x1 * (x3 + (cos(x2) - 19.62)))",
        "0x1.2fa532f6e1771p+0",
        "001000000100010001010100010011000010011010100001101100110100",
        [
            ("0x1.0ca14ebb5def3p+2", 15),
            ("0x1.03dc61be0be22p+2", 2),
            ("0x1.e00743578ae37p+1", 1),
            ("0x1.c99d24029e8f9p+1", 33),
            ("0x1.4feba06bc254bp+1", 7),
            ("0x1.476ee1da95076p+1", 2),
            ("0x1.3c103973e9752p+0", 38),
            ("0x1.2fa532f6e1771p+0", 2),
        ],
    ),
}


@pytest.mark.parametrize("system_name", GOLDEN)
def test_run_ga_golden_at_benchmark_settings(system_name):
    data = make_dataset(get_system(system_name), 0.1, "train")
    grammar = grammar_for_system(system_name)
    best, history = run_ga(default_ga_config(system_name, seed=1000), data, grammar)
    runs = [(h, len(list(g))) for h, g in itertools.groupby(x.hex() for x in history)]
    assert (
        print_expr(best.expr), best.train_rmse.hex(), best.genome.to_string(), runs
    ) == GOLDEN[system_name]


def test_run_ga_leaves_no_reference_cycle():
    # a cycle per tree built would hold its memory until the next cyclic collection
    data = make_dataset(get_system("cart_pole"), 0.1, "train")
    config = dataclasses.replace(default_ga_config("cart_pole"), population_size=16, iterations=5)
    gc.collect()
    gc.disable()
    try:
        run_ga(config, data, grammar_for_system("cart_pole"))
        assert gc.collect() == 0
    finally:
        gc.enable()

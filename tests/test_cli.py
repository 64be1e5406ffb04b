import json
import math
import re
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from odesr import cli
from odesr.benchmark import METHODS, rollout_with_estimate, run_fit
from odesr.cli import fit_kwargs, load_config, main, resolve_system
from odesr.expressions import parse_expr
from odesr.feynman import FeynmanConfig
from odesr.ga import GAConfig
from odesr.integrate import IntegratorConfig, make_dataset, read_trajectory_csv
from odesr.sindy import BasisSet, STLSQConfig, preset_basis
from odesr.systems import lotka_volterra


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


FAST_GA_CONFIG = {
    "ga": {"lotka_volterra": {"population_size": 10, "iterations": 5}},
    "feynman": {"max_brute_nodes": 3},
}


def test_generate_writes_trajectories_and_datasets(tmp_path):
    out = tmp_path / "lv.csv"
    assert main(["generate", "--system", "lotka_volterra", "--dt", "0.1",
                 "--out", str(out)]) == 0
    names, train = read_trajectory_csv(tmp_path / "lv_train.csv")
    assert names == ("x", "y")
    assert len(train.times) == 101
    _, test = read_trajectory_csv(tmp_path / "lv_test.csv")
    assert test.times[0] == pytest.approx(10.0)
    targets = (tmp_path / "lv_train_targets.csv").read_text().splitlines()
    assert targets[0] == "t,x,y,target"
    assert len(targets) == 101  # header + 100 pairs


def test_generate_integrates_each_trajectory_once(
    tmp_path, monkeypatch, integrate_calls
):
    assert main(["generate", "--system", "lotka_volterra", "--dt", "0.1",
                 "--out", str(tmp_path / "lv.csv")]) == 0
    # the test split continues from the train trajectory already integrated
    assert integrate_calls == [(0.0, 10.0), (10.0, 15.0)]
    monkeypatch.undo()
    for split in ("train", "test"):
        expected = tmp_path / f"expected_{split}.csv"
        data = make_dataset(lotka_volterra(), 0.1, split)
        rows = np.column_stack((data.times, data.states, data.targets))
        # written without integrate.write_csv, so this pins the file format
        with open(expected, "w") as fh:
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header="t,x,y,target", comments="")
        written = tmp_path / f"lv_{split}_targets.csv"
        assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("dt_args, rows", [([], 201), (["--dt", "0.1"], 101)],
                         ids=["config sample_dt", "explicit dt"])
def test_generate_samples_at_the_config_sample_dt(tmp_path, capsys, dt_args, rows):
    cfg = write_config(tmp_path, {"sample_dt": 0.05})
    assert main(["generate", "--system", "lotka_volterra", "--config", cfg, *dt_args,
                 "--out", str(tmp_path / "lv.csv")]) == 0
    capsys.readouterr()
    _, train = read_trajectory_csv(tmp_path / "lv_train.csv")
    assert len(train.times) == rows


def test_fit_sindy_writes_record(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "sindy", "--system", "lotka_volterra",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["method"] == "sindy"
    assert record["system"] == "lotka_volterra"
    assert record["test_error"] < 1.0
    assert "wrote" in capsys.readouterr().out


def test_fit_ga_respects_config_and_seed(tmp_path):
    cfg = write_config(tmp_path, FAST_GA_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["fit", "--method", "ga", "--system", "lotka_volterra",
                     "--seed", "5", "--config", cfg, "--out", str(out)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a == b
    assert a["seed"] == 5


def test_fit_feynman_includes_pareto(tmp_path):
    cfg = write_config(tmp_path, FAST_GA_CONFIG)
    out = tmp_path / "fey.json"
    assert main(["fit", "--method", "feynman", "--system", "lotka_volterra",
                 "--config", cfg, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["pareto"]
    assert record["warnings"] == ["DynAIFeynman-lite"]


def test_fit_sindy_takes_a_basis_preset_by_name(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"sindy": {"basis": {"lotka_volterra": "pendulum"}}})
    bases = []

    def spy(*args, **kwargs):
        bases.append(kwargs["basis"])
        return run_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "run_fit", spy)
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "sindy", "--system", "lotka_volterra",
                 "--config", cfg, "--out", str(out)]) == 0
    assert bases == [preset_basis("pendulum")]
    want = run_fit("sindy", lotka_volterra(), basis=preset_basis("pendulum"))
    assert json.loads(out.read_text())["expression"] == want["expression"]


def test_eval_ground_truth(tmp_path):
    out = tmp_path / "eval.json"
    assert main(["eval", "--system", "simple_pendulum",
                 "--expr", "-0.1 * theta2 - 9.81 * sin(theta1)",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["test_error"] < 1e-8


def test_eval_parse_error_exits_one(tmp_path):
    out = tmp_path / "eval.json"
    assert main(["eval", "--system", "lotka_volterra", "--expr", "x +",
                 "--out", str(out)]) == 1


def test_eval_of_too_deeply_nested_text_exits_one(tmp_path, capsys):
    out = tmp_path / "eval.json"
    text = "(" * 300 + "x" + ")" * 300
    assert main(["eval", "--system", "lotka_volterra", "--expr", text,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: expression nested too deeply at position")
    assert not out.exists()


def test_unknown_system_exits_one(tmp_path):
    out = tmp_path / "x.json"
    assert main(["eval", "--system", "lorenz", "--expr", "x1",
                 "--out", str(out)]) == 1


def test_unknown_system_prints_the_message(tmp_path, capsys):
    # str() of a KeyError would wrap the message in repr quotes
    assert main(["eval", "--system", "nope", "--expr", "x1",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == (
        "error: unknown system 'nope'; expected one of "
        "lotka_volterra, simple_pendulum, cart_pole\n"
    )


def test_custom_system_without_rhs_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"systems": {"decay": {"initial_state": [1.0]}}})
    assert main(["fit", "--method", "sindy", "--system", "decay", "--config", cfg,
                 "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == "error: config section 'systems.decay' has no key 'rhs'\n"


@pytest.mark.parametrize(
    "method, payload, where",
    [
        ("sindy", [], "config {path}"),
        ("sindy", {"systems": []}, "config section 'systems'"),
        ("ga", {"ga": None}, "config section 'ga'"),
        ("ga", {"constant_pools": [1.0]}, "config section 'constant_pools'"),
        ("sindy", {"sindy": "stlsq"}, "config section 'sindy'"),
        ("sindy", {"sindy": {"basis": []}}, "config section 'sindy.basis'"),
        ("sindy", {"sindy": {"solver": "stlsq"}}, "config section 'sindy.solver'"),
        ("feynman", {"feynman": [3]}, "config section 'feynman'"),
        ("sindy", {"systems": {"lotka_volterra": [1]}}, "config section 'systems.lotka_volterra'"),
        ("ga", {"ga": {"lotka_volterra": [1]}}, "config section 'ga.lotka_volterra'"),
        ("sindy", {"integrator": [1]}, "config section 'integrator'"),
    ],
    ids=["top level", "systems", "ga", "constant_pools", "sindy", "basis", "solver", "feynman",
         "systems entry", "ga entry", "integrator"],
)
def test_config_that_is_not_an_object_exits_one(tmp_path, capsys, method, payload, where):
    # a list at the top level used to crash with an AttributeError traceback
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "x.json"
    assert main(["fit", "--method", method, "--system", "lotka_volterra", "--config", cfg,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {where.format(path=cfg)} must be a JSON object\n"
    assert not out.exists()


DECAY = {"rhs": ["-0.5 * x1"], "initial_state": [1.0]}


@pytest.mark.parametrize(
    "method, payload, message",
    [("ga", *row) for row in [
        ({"constant_pools": {"lotka_volterra": 3}},
         "config key 'constant_pools.lotka_volterra' must be list of float"),
        ({"sample_dt": "0.1"}, "config key 'sample_dt' must be float"),
        ({"sampel_dt": 0.05}, "config {path} has unknown key 'sampel_dt'"),
        ({"ga": {"lotka_volterra": {"populaton_size": 10}}},
         "config section 'ga.lotka_volterra' has unknown key 'populaton_size'"),
        ({"systems": {"decay": {**DECAY, "train_spam": [0.0, 4.0]}}},
         "config section 'systems.decay' has unknown key 'train_spam'"),
        ({"sindy": {"solver": {"lam": 0.01}}},
         "config section 'sindy.solver' has unknown key 'lam'"),
        ({"sindy": {"solver": {"kind": "stlsq"}}},
         "config section 'sindy.solver' has unknown key 'kind'"),
        ({"ga": {"lotka_volterra": {"seed": 5}}},
         "config section 'ga.lotka_volterra' has unknown key 'seed'; "
         "the seed comes from --seed"),
        ({"feynman": {"max_brute_nodes": True}},
         "config key 'feynman.max_brute_nodes' must be int"),
        ({"integrator": {"max_steps": 1e3}}, "config key 'integrator.max_steps' must be int"),
        ({"feynman": {"unary_set": "sin"}}, "config key 'feynman.unary_set' must be list of str"),
        ({"systems": {"decay": {**DECAY, "train_span": [0.0, 2.0, 4.0]}}},
         "config key 'systems.decay.train_span' must be list of 2 float"),
        ({"ga": {"lotka_volterra": {"population_size": None}}},
         "config key 'ga.lotka_volterra.population_size' must be int"),
        ({"sindy": {"basis": {"lotka_volterra": 3}}},
         "config key 'sindy.basis.lotka_volterra' must be str or list of str"),
        ({"sindy": {"basis": {"lotka_volterra": ["sin(", "x"]}}},
         "config key 'sindy.basis.lotka_volterra': expected expression at position 4"),
        ({"sindy": {"basis": {"lotka_volterra": "no_such_preset"}}},
         "config key 'sindy.basis.lotka_volterra': unknown basis preset 'no_such_preset'; "
         "expected one of pendulum, lotka_volterra, cartpole"),
        ({"sindy": {"basis": {"lotka_volterra": "cartpole"}}},
         "config key 'sindy.basis.lotka_volterra': "
         "variable index 2 out of range for state dimension 2"),
        ({"ga": {"lotka_voltera": {"iterations": 1}}},
         "config key 'ga.lotka_voltera' names no system"),
        ({"constant_pools": {"lotka_voltera": [2.0]}},
         "config key 'constant_pools.lotka_voltera' names no system"),
        ({"sindy": {"basis": {"lotka_voltera": "lotka_volterra"}}},
         "config key 'sindy.basis.lotka_voltera' names no system"),
        ({"sindy": {"solver": {"max_iterations": 50}}},
         "config section 'sindy.solver' has unknown key 'max_iterations'"),
        ({"systems": {"a/b": {"rhs": ["x2", "-x1"], "initial_state": [1.0, 0.0]}},
          "sindy": {"basis": {"a/b": ["x1", "x2"]}}},
         "config section 'systems.a/b': name must be an identifier, got 'a/b'"),
        ({"feynman": {"time_budget": 1}},
         "config section 'feynman' has unknown key 'time_budget'"),
        ({"systems": {"decay": {**DECAY, "test_span": [10, math.inf]}}},
         "config section 'systems.decay': test_span must have finite ends, got (10.0, inf)"),
    ]],
    ids=["pool not a list", "sample_dt string", "unknown top-level key", "unknown ga key",
         "unknown systems key", "unknown solver key", "unknown solver kind", "ga seed",
         "bool for int", "float for int", "string for list", "3-element span",
         "null population", "number for basis", "unparsable basis string",
         "unknown basis preset", "preset reads a variable the system lacks",
         "ga entry of no system", "constant pool of no system", "basis of no system",
         "solver iteration cap", "system name with a slash", "brute-force time budget",
         "infinite test span end"],
)
def test_malformed_config_exits_one_naming_the_key(tmp_path, capsys, monkeypatch,
                                                   method, payload, message):
    # each used to exit 0 with the value ignored or replaced, or exit 1 with
    # a message that named no key; a basis entry was built only by a sindy run;
    # an infinite span end passed, then made `odesr eval` crash in sample_grid
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(cli, "run_fit", no_fit)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "x.json"
    assert main(["fit", "--method", method, "--system", "lotka_volterra", "--config", cfg,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"feynman": {"max_brute_nodes": 0}},
         "config section 'feynman': max_brute_nodes must be >= 1"),
        ({"integrator": {"max_steps": 0}},
         "config section 'integrator': max_steps must be >= 1, got 0"),
        ({"sindy": {"solver": {"threshold": 0}}},
         "config section 'sindy.solver': threshold must be positive"),
        ({"ga": {"cart_pole": {"population_size": 3}}},
         "config section 'ga.cart_pole': population_size must be even and >= 2"),
        ({"systems": {"decay": DECAY}, "ga": {"decay": {"iterations": 0}}},
         "config section 'ga.decay': iterations must be >= 1"),
        ({"ga": {"lotka_volterra": {"selection_fraction": 0.99}}},
         "config section 'ga.lotka_volterra': "
         "selection_fraction must leave at least one mutant"),
    ],
    ids=["feynman", "integrator", "solver", "ga entry of a system not run",
         "ga entry, no defaults", "no mutant"],
)
def test_config_range_error_names_the_section(tmp_path, capsys, monkeypatch, payload, message):
    # a range error used to name no section, and a ga entry was checked only
    # when its system ran: the cart_pole entry exited 0 for a SINDy fit
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(cli, "run_fit", no_fit)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "x.json"
    assert main(["fit", "--method", "sindy", "--system", "lotka_volterra", "--config", cfg,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({**DECAY, "train_span": [1, 0]},
         "config section 'systems.decay': train_span must increase, got (1.0, 0.0)"),
        ({**DECAY, "test_span": [5, 5]},
         "config section 'systems.decay': test_span must increase, got (5.0, 5.0)"),
        ({"initial_state": [1.0]}, "config section 'systems.decay' has no key 'rhs'"),
        ({"rhs": ["-0.5 * x1"]}, "config section 'systems.decay' has no key 'initial_state'"),
        ({**DECAY, "rhs": ["-0.5 * x2"]},
         "config section 'systems.decay': unknown identifier 'x2' at position 7"),
        ({**DECAY, "initial_state": [1.0, 2.0]},
         "config section 'systems.decay': initial_state length must match dimension count"),
        ({**DECAY, "target_dim": 1}, "config section 'systems.decay': target_dim out of range"),
        ({**DECAY, "variable_names": ["a", "b"]},
         "config section 'systems.decay': one variable name per dimension"),
        ({"rhs": [], "initial_state": []},
         "config section 'systems.decay': need at least one dimension"),
        ({"rhs": ["x", "-x"], "initial_state": [1.0, 0.0], "variable_names": ["x", "x"]},
         "config section 'systems.decay': "
         "variable names must be distinct identifiers, got ('x', 'x')"),
        ({**DECAY, "variable_names": ["a b"]},
         "config section 'systems.decay': "
         "variable names must be distinct identifiers, got ('a b',)"),
    ],
    ids=["decreasing train span", "empty test span", "no rhs", "no initial state",
         "unknown variable", "state length", "target_dim", "variable names", "no dimension",
         "variable name twice", "variable name not an identifier"],
)
def test_systems_entries_are_checked_whichever_system_runs(tmp_path, capsys, monkeypatch,
                                                          entry, message):
    # a systems entry used to be built only when its system ran: each of
    # these exited 0 for a SINDy fit of lotka_volterra
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(cli, "run_fit", no_fit)
    cfg = write_config(tmp_path, {"systems": {"decay": entry}})
    out = tmp_path / "x.json"
    assert main(["fit", "--method", "sindy", "--system", "lotka_volterra", "--config", cfg,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_systems_entries_are_built_when_the_config_is_read(tmp_path):
    config = load_config(write_config(tmp_path, {"systems": {"decay": {
        **DECAY, "rhs": ["-0.5 * q"], "train_span": [0, 4], "variable_names": ["q"]}}}))
    system = config["systems"]["decay"]
    assert (system.name, system.initial_state, system.train_span) == ("decay", (1.0,), (0.0, 4.0))
    assert system.variable_names == ("q",)
    assert resolve_system("decay", config) is system
    assert resolve_system("lotka_volterra", config).name == "lotka_volterra"


def test_ga_entries_are_built_over_their_system_defaults(tmp_path):
    config = load_config(write_config(tmp_path, {"systems": {"decay": DECAY}, "ga": {
        "cart_pole": {"iterations": 5}, "decay": {"population_size": 8}}}))
    assert config["ga"] == {
        "cart_pole": GAConfig(population_size=100, bitstring_length=60, iterations=5),
        "decay": GAConfig(population_size=8),
    }
    system = resolve_system("cart_pole", config)
    assert fit_kwargs("ga", system, config)["ga_config"] is config["ga"]["cart_pole"]

@pytest.mark.parametrize(
    "payload",
    [
        {"systems": {"decay": {**DECAY, "variable_names": None}}},
        {"systems": {"decay": {**DECAY, "target_dim": None}}},
        {
            "sample_dt": 1,
            "integrator": {"rtol": 0, "atol": 1},
            "systems": {"decay": {**DECAY, "initial_state": [2], "train_span": [0, 4]}},
            "ga": {"decay": {"mutation_rate": 0, "selection_fraction": 0.25}},
            "constant_pools": {"decay": [1, 2]},
            "sindy": {"solver": {"threshold": 1}},
        },
    ],
    ids=["null variable_names", "null target_dim", "ints for floats"],
)
def test_config_accepts_null_where_optional_and_ints_for_floats(tmp_path, payload):
    config = load_config(write_config(tmp_path, {"systems": {"decay": DECAY}, **payload}))
    system = resolve_system("decay", config)
    for method in METHODS:
        fit_kwargs(method, system, config)


def config_leaf_paths(shape, path=""):
    """The dotted key paths of CONFIG_SHAPE's settable values, a section
    keyed by system name written as <name>."""
    if get_origin(shape) is dict:
        return config_leaf_paths(get_args(shape)[1], f"{path}.<name>")
    if is_dataclass(shape):
        shape = get_type_hints(shape)
    if not isinstance(shape, dict):
        return [path]
    return [
        leaf
        for key, value in shape.items()
        for leaf in config_leaf_paths(value, f"{path}.{key}" if path else key)
    ]


def test_config_file_settable_values_are_these():
    # a knob added to or dropped from the config file must be added to or
    # dropped from this list
    assert config_leaf_paths(cli.CONFIG_SHAPE) == [
        "sample_dt",
        "integrator.rtol",
        "integrator.atol",
        "integrator.max_steps",
        "systems.<name>.rhs",
        "systems.<name>.initial_state",
        "systems.<name>.train_span",
        "systems.<name>.test_span",
        "systems.<name>.target_dim",
        "systems.<name>.variable_names",
        "ga.<name>.population_size",
        "ga.<name>.bitstring_length",
        "ga.<name>.iterations",
        "ga.<name>.mutation_rate",
        "ga.<name>.selection_fraction",
        "constant_pools.<name>",
        "sindy.basis.<name>",
        "sindy.solver.threshold",
        "feynman.max_poly_degree",
        "feynman.max_brute_nodes",
        "feynman.unary_set",
        "feynman.binary_set",
    ]


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Configuration.*?```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = load_config(path)
    assert isinstance(config["integrator"], IntegratorConfig)
    system = resolve_system("decay", config)
    kwargs = {method: fit_kwargs(method, system, config) for method in METHODS}
    assert isinstance(kwargs["ga"]["ga_config"], GAConfig)
    assert kwargs["ga"]["constant_pool"] == (0.5, 1.0, 2.0)
    assert isinstance(kwargs["sindy"]["basis"], BasisSet)
    assert isinstance(kwargs["sindy"]["sparse"], STLSQConfig)
    assert isinstance(kwargs["feynman"]["feynman"], FeynmanConfig)


def test_type_error_in_a_command_is_not_caught(tmp_path, monkeypatch):
    # a TypeError is a bug, not a configuration problem: it keeps its traceback
    def broken(args, config):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["eval", "--system", "lotka_volterra", "--expr", "x",
              "--out", str(tmp_path / "x.json")])


def test_missing_argument_exits_one(capsys):
    assert main(["fit", "--method", "sindy"]) == 1
    capsys.readouterr()


def test_rollout_writes_csv(tmp_path):
    out = tmp_path / "roll.csv"
    assert main(["rollout", "--system", "lotka_volterra",
                 "--expr", "-(y * (3.0 - x))", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,x_est,y_est"
    assert len(lines) == 152  # header + (0,15) grid at dt 0.1


def test_rollout_of_a_divergent_estimate_warns_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "roll.csv"
    assert main(["rollout", "--system", "lotka_volterra",
                 "--expr", "1000.0 * y ^ 2.0", "--out", str(out)]) == 0
    system = lotka_volterra()
    estimate = parse_expr("1000.0 * y ^ 2.0", system.variable_names)
    result = rollout_with_estimate(estimate, system)
    captured = capsys.readouterr()
    assert captured.err == (
        f"estimate diverged at t={result.divergence_time:.6g}; trajectory truncated\n"
    )
    assert captured.out == f"wrote {out}\n"
    lines = out.read_text().splitlines()
    assert len(lines) == len(result.hybrid.times) + 1 < 152


def test_rollout_diverging_in_the_test_window_warns_and_exits_zero(tmp_path, capsys):
    # finite over the train span (0, 10), divergent in the test span
    text = "exp(t) * y ^ 2.0 / 100000.0"
    out = tmp_path / "roll.csv"
    assert main(["rollout", "--system", "lotka_volterra", "--expr", text, "--out", str(out)]) == 0
    system = lotka_volterra()
    result = rollout_with_estimate(parse_expr(text, system.variable_names), system)
    assert 10.0 < result.divergence_time < 15.0
    captured = capsys.readouterr()
    assert captured.err == (
        f"estimate diverged at t={result.divergence_time:.6g}; trajectory truncated\n"
    )
    lines = out.read_text().splitlines()
    assert 102 < len(lines) == len(result.hybrid.times) + 1 < 152


def test_bench_writes_table(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--methods", "sindy", "--systems", "lotka_volterra",
                 "--out", str(out)]) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "method,system,mean,std"
    assert len(table) == 2
    record = json.loads((out / "sindy_lotka_volterra_0.json").read_text())
    assert record["method"] == "sindy"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods", "sindy", "sindy", "--systems", "lotka_volterra"],
         "method 'sindy' is named twice"),
        (["--methods", "sindy", "--systems", "cart_pole", "lotka_volterra", "cart_pole"],
         "system 'cart_pole' is named twice"),
    ],
    ids=["method", "system"],
)
def test_bench_refuses_a_name_given_twice(tmp_path, capsys, args, message):
    # the duplicate used to run again and write a second identical row
    out = tmp_path / "bench"
    assert main(["bench", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods", "ga", "--systems", "lotka_volterra", "--reps", "1", "--seed", "-1"],
         "error: base_seed must be >= 0, got -1\n"),
        (["--systems", "--methods", "sindy"], "argument --systems: expected at least one"),
        (["--methods", "--systems", "lotka_volterra"], "argument --methods: expected at least one"),
    ],
    ids=["negative seed", "no systems", "no methods"],
)
def test_bench_refuses_arguments_that_named_no_run(tmp_path, capsys, monkeypatch, args, message):
    # a negative seed wrote failed GA runs and exited 0; an option without
    # names ran every method or system
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr("odesr.benchmark.run_fit", no_fit)
    out = tmp_path / "bench"
    assert main(["bench", *args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", METHODS)
def test_fit_refuses_a_negative_seed_naming_it(tmp_path, capsys, method):
    # a GA fit printed numpy's message, which named no option; sindy and
    # feynman fits exited 0 and recorded the seed
    out = tmp_path / f"{method}.json"
    assert main(["fit", "--method", method, "--system", "lotka_volterra",
                 "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_bench_zero_reps_exits_one(tmp_path, capsys):
    assert main(["bench", "--methods", "sindy", "--reps", "0",
                 "--out", str(tmp_path / "b")]) == 1
    assert "repetitions" in capsys.readouterr().err


def test_custom_system_from_config(tmp_path):
    cfg = write_config(tmp_path, {
        "systems": {
            "decay": {
                "rhs": ["-0.5 * x1"],
                "initial_state": [2.0],
                "train_span": [0.0, 4.0],
                "test_span": [4.0, 6.0],
            }
        },
        "sindy": {"basis": {"decay": ["x1"]}},
    })
    out = tmp_path / "decay.json"
    assert main(["fit", "--method", "sindy", "--system", "decay",
                 "--config", cfg, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    # forward differences of exp(-0.5 t) at dt=0.1 imply this coefficient
    implied = (np.exp(-0.05) - 1.0) / 0.1
    fitted = float(re.search(r"-?\d+\.\d+", record["expression"]).group())
    assert fitted == pytest.approx(implied, abs=1e-6)
    assert record["test_error"] < 0.01


def test_blowup_system_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "systems": {
            "boom": {
                "rhs": ["x1 ^ 2.0"],
                "initial_state": [1.0],
                "train_span": [0.0, 2.0],
                "test_span": [2.0, 3.0],
            }
        },
        "sindy": {"basis": {"boom": ["x1"]}},
    })
    out = tmp_path / "boom.json"
    assert main(["fit", "--method", "sindy", "--system", "boom",
                 "--config", cfg, "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_custom_system_generate_writes_its_variables(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "systems": {
            "decay": {
                "rhs": ["-0.5 * u"],
                "initial_state": [2.0],
                "train_span": [0.0, 1.0],
                "test_span": [1.0, 2.0],
                "variable_names": ["u"],
            }
        },
    })
    base = tmp_path / "decay"
    assert main(["generate", "--system", "decay", "--config", cfg,
                 "--out", str(base) + ".csv"]) == 0
    capsys.readouterr()
    names, train = read_trajectory_csv(str(base) + "_train.csv")
    assert names == ("u",)
    assert train.states[0, 0] == 2.0
    assert train.states[-1, 0] == pytest.approx(2.0 * np.exp(-0.5), abs=1e-8)
    lines = (tmp_path / "decay_test_targets.csv").read_text().splitlines()
    assert lines[0] == "t,u,target"
    assert len(lines) == 11


def test_generate_refuses_a_test_span_after_a_gap(tmp_path, capsys):
    # the test split used to start at t=20 from the state at t=10
    cfg = write_config(tmp_path, {"systems": {"decay": {
        "rhs": ["-0.5 * x1 + sin(t)"], "initial_state": [1.0],
        "train_span": [0, 10], "test_span": [20, 25]}}})
    base = tmp_path / "decay"
    assert main(["generate", "--system", "decay", "--config", cfg,
                 "--out", str(base) + ".csv"]) == 1
    assert capsys.readouterr().err == (
        "error: config section 'systems.decay': test_span must start where "
        "train_span ends, at 10.0, got (20.0, 25.0)\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_generate_underflowing_initial_step_exits_two(tmp_path, capsys):
    # atol=0 and a tiny first component overflow the scaled derivative,
    # which gives an initial step of 0
    cfg = write_config(tmp_path, {
        "systems": {"tiny": {"rhs": ["1.0", "0.0", "0.0"], "initial_state": [1.26e-255, 1, 1]}},
        "integrator": {"rtol": 1e-10, "atol": 0.0},
    })
    assert main(["generate", "--system", "tiny", "--config", cfg,
                 "--out", str(tmp_path / "tiny.csv")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: step size underflow" in err
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "integrator",
    [{"rtol": -1e-8}, {"atol": float("nan")}, {"rtol": 0.0, "atol": 0.0}, {"max_steps": 0}],
    ids=["negative rtol", "nan atol", "zero tolerances", "no steps"],
)
def test_bad_integrator_config_exits_one(tmp_path, capsys, integrator):
    # the last two used to integrate and fail as a numerical error (exit 2)
    cfg = write_config(tmp_path, {"integrator": integrator})
    out = tmp_path / "lv.json"
    assert main(["fit", "--method", "sindy", "--system", "lotka_volterra",
                 "--config", cfg, "--out", str(out)]) == 1
    assert "numerical failure" not in capsys.readouterr().err
    assert not out.exists()

import json
import re

import numpy as np
import pytest

from odesr.cli import _write_dataset_csv, main
from odesr.integrate import make_dataset, read_trajectory_csv
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
        _write_dataset_csv(make_dataset(lotka_volterra(), 0.1, split), ("x", "y"), expected)
        written = tmp_path / f"lv_{split}_targets.csv"
        assert written.read_bytes() == expected.read_bytes()


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


def test_unknown_system_exits_one(tmp_path):
    out = tmp_path / "x.json"
    assert main(["eval", "--system", "lorenz", "--expr", "x1",
                 "--out", str(out)]) == 1


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


def test_bench_writes_table(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--methods", "sindy", "--systems", "lotka_volterra",
                 "--out", str(out)]) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "method,system,mean,std"
    assert len(table) == 2
    record = json.loads((out / "sindy_lotka_volterra_0.json").read_text())
    assert record["method"] == "sindy"


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

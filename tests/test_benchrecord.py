import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
BENCH_SCRIPTS = ("bench_feynman.py", "bench_ga.py", "bench_trajectories.py")

_spec = importlib.util.spec_from_file_location("benchrecord", SCRIPTS / "benchrecord.py")
benchrecord = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchrecord)


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", BENCH_SCRIPTS)
def test_bench_script_help_exits_zero(script, tmp_path):
    done = run_script(script, "--help", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "--label" in done.stdout
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script", BENCH_SCRIPTS)
def test_bench_script_refuses_a_label_it_holds(script, tmp_path):
    # refused before any benchmark work, so this runs in well under a second
    out = tmp_path / script.replace("bench_", "BENCH_").replace(".py", ".json")
    out.write_text('{"results": {"taken": {"seconds": 1.0}}}')
    before = out.read_bytes()
    done = run_script(script, "--label", "taken", cwd=tmp_path)
    assert done.returncode == 1
    assert "already holds label 'taken'" in done.stderr
    assert out.read_bytes() == before


def test_save_refuses_a_repeated_label(tmp_path):
    path = tmp_path / "BENCH.json"
    benchrecord.save(path, "a", {"x": 1})
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        benchrecord.save(path, "a", {"x": 2})
    assert exc.value.code not in (0, None)
    with pytest.raises(SystemExit) as exc:
        benchrecord.parse_label("", path, ["--label", "a"])
    assert exc.value.code not in (0, None)
    assert path.read_bytes() == before


def test_save_appends_and_keeps_earlier_records(tmp_path):
    path = tmp_path / "BENCH.json"
    earlier = {
        "parent": {"machine": {"cores": 1}, "seconds": {"median": 2.5, "runs": [2.5]}},
        "change": {"systems": {"a": [1, 2, 3]}},
    }
    path.write_text(json.dumps({"results": earlier}, indent=2) + "\n")
    assert benchrecord.parse_label("", path, ["--label", "new"]) == "new"
    benchrecord.save(path, "new", {"counts": {"calls": 7}})
    results = json.loads(path.read_text())["results"]
    assert list(results) == ["parent", "change", "new"]
    assert {k: results[k] for k in earlier} == earlier
    record = results["new"]
    assert list(record) == ["machine", "commit", "counts"]
    assert set(record["machine"]) == {"cores", "python", "numpy"}
    assert record["counts"] == {"calls": 7}


def test_patched_restores_when_the_block_raises():
    ns = types.SimpleNamespace(a=1, b=2)
    with pytest.raises(RuntimeError):
        with benchrecord.patched((ns, "a", 10), (ns, "b", 20)):
            assert (ns.a, ns.b) == (10, 20)
            raise RuntimeError
    assert (ns.a, ns.b) == (1, 2)


def test_patched_restores_when_a_patch_fails():
    ns = types.SimpleNamespace(a=1)
    with pytest.raises(AttributeError):
        with benchrecord.patched((ns, "a", 10), (1, "real", 5)):
            pass
    assert ns.a == 1


def test_pass_totals_equal_the_per_pass_sums():
    calls = []
    work = {name: (lambda name=name: calls.append(name)) for name in ("a", "b", "c")}
    seconds, totals = benchrecord.timed_passes(work)
    assert calls == ["a", "b", "c"] * benchrecord.RUNS
    assert all(len(s) == benchrecord.RUNS for s in seconds.values())
    assert totals == [sum(seconds[name][i] for name in work) for i in range(benchrecord.RUNS)]


def test_summary_quartiles():
    assert benchrecord.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 3.0, 2.0, 4.0],
    }


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_record_from_this_checkout_carries_a_commit(tmp_path):
    path = tmp_path / "BENCH.json"
    benchrecord.save(path, "here", {})
    assert json.loads(path.read_text())["results"]["here"]["commit"]


def test_commit_outside_a_checkout_is_none(tmp_path):
    assert benchrecord.commit(tmp_path) is None

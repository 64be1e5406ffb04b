import importlib.util
import json
import mmap
import os
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
BENCH_SCRIPTS = (
    "bench_feynman.py",
    "bench_ga.py",
    "bench_startup.py",
    "bench_sweep.py",
    "bench_trajectories.py",
)

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
    assert list(record) == ["machine", "commit", "calibration_s", "counts"]
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
    seconds, totals, faults, _ = benchrecord.timed_passes(work)
    assert calls == ["a", "b", "c"] * benchrecord.RUNS
    assert all(len(s) == benchrecord.RUNS for s in seconds.values())
    assert all(len(f) == benchrecord.RUNS for f in faults.values())
    assert totals == [sum(seconds[name][i] for name in work) for i in range(benchrecord.RUNS)]


def test_passes_count_the_page_faults_of_each_item():
    pages = 256

    def touch():
        # a new mapping each pass, in base pages, every page written once
        with mmap.mmap(-1, pages * mmap.PAGESIZE) as m:
            if hasattr(mmap, "MADV_NOHUGEPAGE"):
                m.madvise(mmap.MADV_NOHUGEPAGE)
            for offset in range(0, len(m), mmap.PAGESIZE):
                m[offset] = 1

    _, _, faults, _ = benchrecord.timed_passes({"idle": lambda: None, "touch": touch})
    assert all(f >= pages for f in faults["touch"])
    assert all(0 <= f < pages for f in faults["idle"])


def test_summary_quartiles():
    assert benchrecord.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 3.0, 2.0, 4.0],
    }


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_record_from_this_checkout_carries_a_commit(tmp_path):
    path = tmp_path / "BENCH.json"
    benchrecord.save(path, "here", {})
    assert json.loads(path.read_text())["results"]["here"]["commit"]


def test_calibration_runs_the_kernel_without_writing_next_to_it(monkeypatch, tmp_path):
    calibrate = tmp_path / "perfbench" / "calibrate.py"
    calibrate.parent.mkdir()
    shutil.copy(ROOT / "perfbench" / "calibrate.py", calibrate)
    monkeypatch.setattr(benchrecord, "CALIBRATE", calibrate)
    seconds = benchrecord.calibration_s()
    assert type(seconds) is float and seconds > 0.0
    assert calibrate.read_bytes() == (ROOT / "perfbench" / "calibrate.py").read_bytes()
    assert [p.name for p in calibrate.parent.iterdir()] == ["calibrate.py"]


def test_calibration_is_the_median_after_a_warm_up(monkeypatch, tmp_path):
    # the n-th call sleeps n ms: calls 2-6 are timed, so the median is at
    # least 4 ms, and with the warm-up call timed it would be 3 ms
    calibrate = tmp_path / "calibrate.py"
    calibrate.write_text(
        "import time\nCALLS = []\n\ndef kernel():\n"
        "    CALLS.append(1)\n    time.sleep(0.001 * len(CALLS))\n"
    )
    monkeypatch.setattr(benchrecord, "CALIBRATE", calibrate)
    assert 0.004 <= benchrecord.calibration_s() < 0.006


def test_calibration_without_perfbench_is_null(monkeypatch, tmp_path):
    monkeypatch.setattr(benchrecord, "CALIBRATE", tmp_path / "perfbench" / "calibrate.py")
    assert benchrecord.calibration_s() is None
    path = tmp_path / "BENCH.json"
    benchrecord.save(path, "bare", {})
    assert json.loads(path.read_text())["results"]["bare"]["calibration_s"] is None


def test_commit_outside_a_checkout_is_none(tmp_path):
    assert benchrecord.commit(tmp_path) is None


def test_passes_scale_each_call_by_the_kernel_times_around_it(monkeypatch):
    # on a fake clock the n-th kernel call takes 2n ms and each item 10 ms:
    # a call's calibrated seconds are its raw seconds times the reference
    # (3 ms) over the mean of the kernel times just before and after it
    clock = [0.0]
    calls = []

    def kernel():
        calls.append(1)
        clock[0] += 0.002 * len(calls)

    def item():
        clock[0] += 0.01

    monkeypatch.setattr(benchrecord, "_calibration", lambda: (kernel, 0.003))
    monkeypatch.setattr(benchrecord, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(benchrecord, "RUNS", 2)
    seconds, _, _, calibrated = benchrecord.timed_passes({"a": item, "b": item})
    assert seconds == {"a": [pytest.approx(0.01)] * 2, "b": [pytest.approx(0.01)] * 2}
    # kernel calls: 1 warm-up, 2 before the first item, then 3, 4, 5, 6
    arounds = {"a": [(2, 3), (4, 5)], "b": [(3, 4), (5, 6)]}
    assert calibrated == {
        name: [pytest.approx(0.01 * 0.003 / (0.001 * (k0 + k1))) for k0, k1 in pairs]
        for name, pairs in arounds.items()
    }


def test_passes_without_perfbench_are_not_calibrated(monkeypatch, tmp_path):
    monkeypatch.setattr(benchrecord, "CALIBRATE", tmp_path / "perfbench" / "calibrate.py")
    seconds, _, _, calibrated = benchrecord.timed_passes({"a": lambda: None})
    assert len(seconds["a"]) == benchrecord.RUNS and calibrated is None


def load_bench_script(monkeypatch, name):
    """The script scripts/<name>.py as a module, importing this benchrecord."""
    monkeypatch.setitem(sys.modules, "benchrecord", benchrecord)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ga_counts_reach_the_functions_run_ga_calls(monkeypatch):
    # a patch point that run_ga no longer calls would count 0 here instead of
    # recording zeros in BENCH_ga.json
    bench_ga = load_bench_script(monkeypatch, "bench_ga")
    from odesr import ga
    from odesr.genomes import grammar_for_system
    from odesr.integrate import make_dataset
    from odesr.systems import get_system

    config = replace(ga.default_ga_config("cart_pole"), population_size=16, iterations=5)
    data = make_dataset(get_system("cart_pole"), 0.1, "train")
    counts = bench_ga.counted_runs(data, grammar_for_system("cart_pole"), config, seeds=[1000])
    for name in ("draws", "valid", "trees_built", "distinct_keys", "fitness_evaluations"):
        assert counts[name] > 0, name
    assert counts["valid"] <= counts["draws"]
    assert counts["distinct_keys"] < counts["trees_built"] <= counts["valid"]
    assert counts["fitness_evaluations"] == counts["distinct_keys"]
    # and so would a part's timer read 0 seconds
    patch_points = (ga._mutants, ga._random_decoded, ga._build, ga.Scorer)
    grammar = grammar_for_system("cart_pole")
    parts = bench_ga.part_seconds(data, grammar, config, seeds=[1000])
    assert list(parts) == ["draw", "build", "score", "rest"]
    assert all(seconds > 0.0 for seconds in parts.values()), parts
    assert (ga._mutants, ga._random_decoded, ga._build, ga.Scorer) == patch_points


def test_bench_trajectories_counts_integrations(monkeypatch):
    # the counting wrapper sees every integration through the integrate
    # module, and evaluates the right-hand side through its own
    bench_trajectories = load_bench_script(monkeypatch, "bench_trajectories")
    from odesr.benchmark import GROUND_TRUTH_EXPRESSIONS, rollout_with_estimate
    from odesr.expressions import parse_expr
    from odesr.integrate import make_trajectory
    from odesr.systems import get_system

    def sequence():
        system = get_system("lotka_volterra")
        truth = parse_expr(GROUND_TRUTH_EXPRESSIONS[system.name], system.variable_names)
        make_trajectory(system, "train", 0.1)
        # the truth's test split, then the hybrid's train and test splits
        rollout_with_estimate(truth, system, sample_dt=0.1)
        rollout_with_estimate(truth, system, sample_dt=0.05)

    counts = bench_trajectories.count_integrations(sequence)
    assert counts["total"] == counts["distinct"] == 4
    assert counts["rhs_evaluations"] > 0 and counts["step_record_bytes"] > 0


def test_bench_trajectories_step_loop_integrates_each_train_split_directly(monkeypatch):
    # every attempt makes six rhs evaluations, besides the initial slope and
    # the initial step's probe; each work item is one integrate call, with
    # no trajectory memo in between
    bench_trajectories = load_bench_script(monkeypatch, "bench_trajectories")
    from odesr import integrate
    from odesr.systems import SYSTEM_NAMES, get_system

    counts, work = bench_trajectories.step_loop()
    names = [f"{name}/{kind}" for name in SYSTEM_NAMES for kind in ("truth", "hybrid")]
    assert list(counts) == list(work) == names
    for name, c in counts.items():
        assert c["rhs_evaluations"] == 6 * c["attempts"] + 2, name
    for name in SYSTEM_NAMES:
        system = get_system(name)
        accepted = integrate.integrate(system.rhs, system.initial_state, system.train_span, 0.1)
        assert counts[f"{name}/truth"]["attempts"] >= len(accepted.steps) > 0, name

    spans = []
    original = integrate.integrate

    def counting(rhs, x0, span, *args):
        spans.append(span)
        return original(rhs, x0, span, *args)

    def memo(*args):
        raise AssertionError("the step loop record went through shared_trajectory")

    monkeypatch.setattr(integrate, "integrate", counting)
    monkeypatch.setattr(integrate, "shared_trajectory", memo)
    for call in work.values():
        call()
    assert spans == [get_system(name).train_span for name in SYSTEM_NAMES for _ in range(2)]

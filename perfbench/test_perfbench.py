"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import calibrate
import run
import spans
import workloads
from calibrate import Clock
from spans import Tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# cut-down inputs: the sweep with one GA seed, ga with one seed, one score dt
SMALL = {
    "sweep": {"base_seed": 0, "repetitions": 1},
    "ga": {"seeds": [1000]},
    "score": {"sample_dts": [0.1]},
}


def _site_values() -> dict[str, object]:
    values = {}
    for sites in spans.SITES.values():
        for site in sites:
            module_name, attr = site.split(":")
            values[site] = getattr(importlib.import_module(module_name), attr)
    return values


def test_every_site_holds_its_layer_function():
    values = _site_values()
    for name, sites in spans.SITES.items():
        assert all(values[s] is values[sites[0]] for s in sites), name
        assert callable(values[sites[0]]), name


def test_tracer_patches_every_site_and_restores_it():
    before = _site_values()
    with Tracer():
        during = _site_values()
        assert all(during[s] is not before[s] for s in before)
        assert all(during[s].__wrapped__ is before[s] for s in before)
    assert _site_values() == before


def test_traced_run_matches_untraced_and_stored_digests(tmp_path):
    stored = json.loads((HERE / "digests.json").read_text())
    for name, inputs in SMALL.items():
        plain = workloads.run_workload(name, inputs, tmp_path)
        tracer = Tracer()
        traced = workloads.run_workload(name, inputs, tmp_path, tracer)
        calibrated = workloads.run_workload(name, inputs, tmp_path, clock=Clock())
        assert [o.error for o in plain.outcomes] == [None] * len(plain.outcomes)
        for other in (traced, calibrated):
            assert [(o.id, o.digest) for o in other.outcomes] == [
                (o.id, o.digest) for o in plain.outcomes
            ]
        assert len(calibrated.ticks) >= 3
        # the one-seed table is not stored; every fit and evaluation is
        assert all(
            stored[o.id] == o.digest for o in plain.outcomes if o.kind != "artifact"
        )
        fits = sum(o.kind == "fit" for o in plain.outcomes)
        assert traced.layers["benchmark.run_fit.calls"] == fits
        assert traced.layers["integrate.make_dataset.calls"] == fits
        assert traced.layers["integrate.integrate.rhs_calls"] > 0
        assert tracer.spans and all(s is not None for s in tracer.spans)


def test_scaled_sums_intervals_between_ticks():
    ref = calibrate.CALIBRATION_REF_S
    ticks = [(0.0, 1.0, 1.0), (3.0, 4.0, 1.0), (6.0, 7.0, 2.0)]
    raw, scaled = calibrate.scaled(ticks)
    assert raw == 4.0
    assert math.isclose(scaled, 2 * ref / 1.0 + 2 * ref / 1.5)
    assert math.isclose(calibrate.scaled_setup(0.3, 0.2), 0.3 * calibrate.STARTUP_REF_S / 0.2)


def test_clock_samples_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = Clock()
    clock.tick()
    clock.start()
    deadline = calibrate.perf_counter() + 4 * calibrate.SAMPLE_EVERY_S
    while calibrate.perf_counter() < deadline:
        pass
    clock.stop()
    clock.tick()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.ticks) >= 4
    assert all(c > 0 for _, _, c in clock.ticks)
    raw, _ = calibrate.scaled(clock.ticks)
    assert 0 < raw < clock.ticks[-1][0] - clock.ticks[0][1]


def test_every_per_layer_metric_is_produced():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    run_level = {"benchmark.results_changed", "trace.overhead_s", *run.RUN_LEVEL}
    produced = set(Tracer().metrics()) | run_level
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

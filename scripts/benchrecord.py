"""What the layer benchmark scripts share: the --label argument, timed
passes with their calibrated seconds, minor page faults and quartile
summary, temporary patches and the record.

A BENCH_*.json file is append-only. A label it already holds is refused
with a non-zero exit and the file is left as it was. Each new record
carries the machine and the `git describe --always --dirty` of the
checkout that the imported odesr package lives in (null outside one), so
running a script once with PYTHONPATH at each commit's `src/` records a
parent/change pair. It also carries `calibration_s`, the median seconds
of CALIBRATION_RUNS calls of the host-speed kernel in
`perfbench/calibrate.py` (null without that file): raw seconds from
records made at different times compare only after scaling by it.
"""

import argparse
import json
import os
import platform
import resource
import runpy
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import odesr

RUNS = 5
CALIBRATION_RUNS = 5
CALIBRATE = Path(__file__).resolve().parents[1] / "perfbench" / "calibrate.py"


def _load(path: Path, label: str) -> dict:
    record = json.loads(path.read_text()) if path.exists() else {}
    if label in record.get("results", {}):
        sys.exit(f"{path} already holds label {label!r}; pick a new one")
    return record


def parse_label(description: str, path: Path, argv=None) -> str:
    """The --label argument, refused up front if path already holds it."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, help="key for these results")
    label = parser.parse_args(argv).label
    _load(path, label)
    return label


def timed_passes(work: dict) -> tuple[dict, list[float], dict, dict | None]:
    """RUNS passes, each calling every item once in order: the raw
    `time.perf_counter` seconds of each item per pass, each pass's total,
    the minor page faults (`ru_minflt`) of each item per pass, and the
    calibrated seconds of each item per pass (None without the CALIBRATE
    file). Faults show allocation churn that warm timings hide: memory that
    malloc gives back to the system and then faults in again.

    The calibration kernel is timed before the first call and after each
    call, and a call's calibrated seconds are its raw seconds times the
    kernel's reference seconds over the mean of the two kernel times around
    it: the host's speed at that moment, as perfbench scales its wall_s."""
    seconds = {name: [] for name in work}
    faults = {name: [] for name in work}
    totals = []
    calibration = _calibration()
    calibrated = None if calibration is None else {name: [] for name in work}
    if calibration is not None:
        kernel, reference_s = calibration
        kernel()  # warm-up
        around = [_seconds(kernel)]
    for _ in range(RUNS):
        total = 0.0
        for name, call in work.items():
            faulted = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            elapsed = _seconds(call)
            faulted = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faulted
            seconds[name].append(elapsed)
            faults[name].append(faulted)
            total += elapsed
            if calibrated is not None:
                around = [around[-1], _seconds(kernel)]
                calibrated[name].append(elapsed * reference_s * 2 / sum(around))
        totals.append(total)
    return seconds, totals, faults, calibrated


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


@contextmanager
def patched(*patches):
    """Set each (module, name, value) for the block, restoring them on exit."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


def commit(directory: Path) -> str | None:
    """`git describe --always --dirty` of the checkout holding directory,
    or None outside one."""
    try:
        done = subprocess.run(
            ["git", "-C", str(directory), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
        )
    except OSError:  # no git on this host
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _calibration():
    """The CALIBRATE file's kernel and its reference seconds, or None
    without that file. The file is run from its path (runpy writes no
    bytecode next to it)."""
    if not CALIBRATE.exists():
        return None
    module = runpy.run_path(str(CALIBRATE))
    return module["kernel"], module.get("CALIBRATION_REF_S")


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def calibration_s() -> float | None:
    """Median seconds of the calibration kernel on this host now, after one
    warm-up call, or None without the CALIBRATE file."""
    calibration = _calibration()
    if calibration is None:
        return None
    kernel = calibration[0]
    kernel()
    return statistics.median(_seconds(kernel) for _ in range(CALIBRATION_RUNS))


def save(path: Path, label: str, results: dict) -> None:
    """Append results under label, unless the file already holds it."""
    record = _load(path, label)
    record.setdefault("results", {})[label] = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "commit": commit(Path(odesr.__file__).parent),
        "calibration_s": calibration_s(),
        **results,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")

"""What the layer benchmark scripts share: the --label argument, timed
passes and their quartile summary, temporary patches and the record.

A BENCH_*.json file is append-only. A label it already holds is refused
with a non-zero exit and the file is left as it was. Each new record
carries the machine and the `git describe --always --dirty` of the
checkout that the imported odesr package lives in (null outside one), so
running a script once with PYTHONPATH at each commit's `src/` records a
parent/change pair.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import odesr

RUNS = 5


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


def timed_passes(work: dict) -> tuple[dict, list[float]]:
    """RUNS passes, each calling every item once in order: the raw
    `time.perf_counter` seconds of each item per pass, and each pass's total."""
    seconds = {name: [] for name in work}
    totals = []
    for _ in range(RUNS):
        total = 0.0
        for name, call in work.items():
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            seconds[name].append(elapsed)
            total += elapsed
        totals.append(total)
    return seconds, totals


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
        **results,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")

"""Time the imports that each perfbench workload makes before its first
operation, in fresh interpreters, and record them.

    PYTHONPATH=src python scripts/bench_startup.py --label change

The odesr package that PYTHONPATH finds is copied, without bytecode, into
a temporary directory, and every measurement starts a fresh interpreter on
that copy with PYTHONDONTWRITEBYTECODE=1: each odesr module compiles from
source, as in a perfbench worker on a fresh checkout, while numpy and the
standard library load from their installed bytecode. The interpreter
times `import numpy` first, as the reference, and then the import set:

- `sweep/ga`: `import odesr` (both workloads only build systems before
  their first operation)
- `score`: `import odesr` and `odesr.preset_basis`, which builds the
  pendulum basis
- `cli`: `import odesr.cli`, the `odesr` command's module

It reports the raw `time.perf_counter` seconds of each import, its peak
resident set size after the imports and the `odesr.*` modules loaded. The
peak is the kernel's VmHWM (Linux): `ru_maxrss` carries over the
high-water mark that the forked process had before exec, so in a child of
this script it reads at least this script's own size. PROCESSES
interpreters run per import set, the sets taking turns, and each set's
record holds the quartile summary of each figure and of the import
seconds over the numpy seconds of the same process, which compares
across hosts and host loads.

The result is appended to BENCH_startup.json in the working directory
under `--label` (see benchrecord.py): run the script once with PYTHONPATH
pointing at each commit's `src/`.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import odesr

from benchrecord import parse_label, save, summary

OUT = Path("BENCH_startup.json")
PROCESSES = 15  # fresh interpreters per import set
IMPORT_SETS = {
    "sweep/ga": "import odesr",
    "score": "import odesr; odesr.preset_basis('pendulum')",
    "cli": "import odesr.cli",
}
CHILD = """
import json, sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
start = time.perf_counter()
{code}
import_s = time.perf_counter() - start
print(json.dumps({{
    "numpy_s": numpy_s,
    "import_s": import_s,
    "peak_rss_mb": next(
        int(line.split()[1]) / 1024
        for line in open("/proc/self/status")
        if line.startswith("VmHWM:")
    ),
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "odesr"),
}}))
"""


def measure(code: str, env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(code=code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main() -> None:
    label = parse_label(__doc__.splitlines()[0], OUT)
    package = Path(odesr.__file__).parent
    samples = {name: [] for name in IMPORT_SETS}
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(package, Path(tmp) / "odesr", ignore=ignore)
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPYCACHEPREFIX", None)  # would hide numpy's bytecode too
        for _ in range(PROCESSES):
            for name, code in IMPORT_SETS.items():
                samples[name].append(measure(code, env))

    results = {}
    for name, runs in samples.items():
        modules = {tuple(run["modules"]) for run in runs}
        if len(modules) != 1:
            raise RuntimeError(f"{name} loaded different modules: {modules}")
        keys = ("numpy_s", "import_s", "peak_rss_mb")
        figures = {key: [run[key] for run in runs] for key in keys}
        figures["import_per_numpy"] = [run["import_s"] / run["numpy_s"] for run in runs]
        results[name] = {
            "code": IMPORT_SETS[name],
            **{key: summary(values) for key, values in figures.items()},
            "modules": runs[0]["modules"],
        }
        median = {key: statistics.median(values) for key, values in figures.items()}
        print(
            f"{label} {name}: import {median['import_s'] * 1e3:.1f} ms"
            f" after numpy {median['numpy_s'] * 1e3:.1f} ms"
            f" ({median['import_per_numpy']:.2f} of it),"
            f" peak RSS {median['peak_rss_mb']:.2f} MB"
            f" over {len(runs)} processes; {len(runs[0]['modules'])} odesr modules"
        )
    save(OUT, label, results)


if __name__ == "__main__":
    main()

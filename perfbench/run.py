"""Benchmark of odesr: runs one workload in fresh processes and prints its
metrics, then one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of an odesr checkout. Each workload process imports the
package from src/ with cold state and runs the workload's operation list
once, one process at a time. With --trace 0 processes are started while
the next is expected to end within --seconds (at least two) and the
end-to-end metrics are their medians; set-up time is also sampled in
extra processes that stop before the first operation. The workload
processes time a calibration kernel while their operations run, and
wall_s is reported at the kernel's reference speed; each set-up sample is
scaled by the start-up time of a reference process (calibrate.py). With
--trace 1 one untraced and one traced process run, without calibration,
and the per-layer metrics come from the traced one. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import CALIBRATION_REF_S, STARTUP_CODE, scaled, scaled_setup

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "ga", "score")
MIN_PROCESSES = 2  # workload processes per --trace 0 run, however long each takes
SETUP_SAMPLES = 11  # set-up times per run, workload processes included
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORK_DIR = ".perfbench"  # scratch space inside the checkout

# workload-level figures printed where they apply
APPLIES = {
    "sweep": ("fit_s.ga", "fit_s.feynman"),
    "ga": ("fit_s.ga",),
    "score": ("fit_s.sindy", "eval_s"),
}
# per-layer metrics taken from the untraced process of a --trace 1 run
RUN_LEVEL = (
    "fit_s",
    "fit_s.ga",
    "fit_s.sindy",
    "fit_s.feynman",
    "eval_s",
    "test_error_gmean",
    "fail_ratio",
    "benchmark.run_fit.nonfinite",
)


class BenchError(RuntimeError):
    pass


def process_metrics(report: dict) -> dict[str, float]:
    """Workload-level figures of one workload process. With calibration,
    setup_s and wall_s are at reference speed and the *_raw_s figures as
    measured; without, both are as measured."""
    outcomes = report["outcomes"]
    fits = [o for o in outcomes if o["kind"] == "fit"]
    out = {
        "setup_s": report["setup_s"],
        "setup_raw_s": report.get("setup_raw_s", report["setup_s"]),
        "wall_s": report["wall_s"],
        "wall_raw_s": report["wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "fit_s": sum(o["seconds"] for o in fits),
        "eval_s": sum(o["seconds"] for o in outcomes if o["kind"] == "eval"),
        "fail_ratio": sum(o["error"] is not None for o in outcomes) / len(outcomes),
    }
    for method in ("ga", "sindy", "feynman"):
        out[f"fit_s.{method}"] = sum(o["seconds"] for o in fits if o["method"] == method)
    finite = [o["test_error"] for o in fits if math.isfinite(o["test_error"])]
    logs = [math.log(v) for v in finite if v > 0]
    out["test_error_gmean"] = math.exp(sum(logs) / len(logs)) if logs else math.inf
    out["benchmark.run_fit.nonfinite"] = len(fits) - len(finite)
    if report.get("ticks"):
        out["wall_raw_s"], out["wall_s"] = scaled(report["ticks"])
        out["kernel_ms"] = 1000 * statistics.median(c for _, _, c in report["ticks"])
    return out


def digests(report: dict) -> dict[str, str]:
    return {o["id"]: o["digest"] for o in report["outcomes"]}


def results_changed(report: dict) -> int:
    """Outputs whose digest differs from the one stored with the benchmark."""
    stored = json.loads((HERE / "digests.json").read_text())
    return sum(stored.get(k) != v for k, v in digests(report).items())


class Runner:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.started = perf_counter()
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def _run(self, cmd: list[str], what: str) -> str:
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{what} exceeded {timeout:.0f} s") from err
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def startup(self) -> float:
        """Start-up time of the reference process (calibrate.STARTUP_CODE)."""
        spawned_at = perf_counter()
        printed = self._run([sys.executable, "-c", STARTUP_CODE], "start-up process")
        return float(printed) - spawned_at

    def spawn(self, *flags: str) -> dict:
        spawned_at = perf_counter()
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--work-dir", WORK_DIR,
            "--spawned-at", repr(spawned_at),
            *flags,
        ]
        stdout = self._run(cmd, "workload process")
        return json.loads(stdout.strip().splitlines()[-1])

    def sample(self, *flags: str) -> dict:
        """A workload process, with the start-up time of a reference process
        started just before it, by which its set-up time is scaled."""
        startup_s = self.startup()
        report = self.spawn(*flags)
        report["setup_raw_s"] = report["setup_s"]
        report["setup_s"] = scaled_setup(report["setup_s"], startup_s)
        return report


def describe_errors(reports: list[dict]) -> list[str]:
    problems = []
    for i, report in enumerate(reports):
        for o in report["outcomes"]:
            if o["error"] is not None:
                problems.append(f"process {i}: {o['id']}: {o['error']}")
    first = digests(reports[0])
    for i, report in enumerate(reports[1:], start=1):
        if digests(report) != first:
            diff = sorted(k for k, v in digests(report).items() if first.get(k) != v)
            problems.append(f"process {i} gave other results than process 0: {diff[:5]}")
    return problems


def run(args, spec: dict, root: Path) -> tuple[dict, list[str]]:
    runner = Runner(args.workload, args.seed, root)
    if args.trace:
        untraced = runner.spawn()
        traced = runner.spawn("--trace")
        reports = [untraced, traced]
        figures = process_metrics(untraced)
        values = dict(traced["layers"])
        values.update((k, figures[k]) for k in RUN_LEVEL)
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        values["benchmark.results_changed"] = results_changed(untraced)
        listed = spec["per_layer"]
        print(f"traced process: {traced['spans']} spans, wall_s {traced['wall_s']:.4f} s; "
              f"untraced wall_s {untraced['wall_s']:.4f} s")
    else:
        reports, durations = [], []
        while (
            len(reports) < MIN_PROCESSES
            or runner.elapsed() + statistics.median(durations) <= args.seconds
        ):
            started = runner.elapsed()
            reports.append(runner.sample("--calibrate"))
            durations.append(runner.elapsed() - started)
        per_process = [process_metrics(r) for r in reports]
        setups = [(p["setup_s"], p["setup_raw_s"]) for p in per_process]
        while len(setups) < SETUP_SAMPLES:
            sample = runner.sample("--setup-only")
            setups.append((sample["setup_s"], sample["setup_raw_s"]))
        values = {
            name: statistics.median(p[name] for p in per_process) for name in per_process[0]
        }
        values["setup_s"] = statistics.median(s for s, _ in setups)
        listed = spec["end_to_end"]
        print(f"{len(reports)} workload processes, {len(setups)} set-up samples")
        print(f"setup_s samples:     {', '.join(f'{s:.4f}' for s, _ in setups)}")
        print(f"  as measured:       {', '.join(f'{s:.4f}' for _, s in setups)}")
        walls = ", ".join(f"{p['wall_s']:.4f}" for p in per_process)
        print(f"wall_s samples:      {walls}")
        walls = ", ".join(f"{p['wall_raw_s']:.4f}" for p in per_process)
        print(f"  as measured:       {walls}")
        kernels = ", ".join(f"{p['kernel_ms']:.3f}" for p in per_process)
        print(f"kernel ms (median):  {kernels}; reference {1000 * CALIBRATION_REF_S:g}")
        values["benchmark.results_changed"] = results_changed(reports[0])
        shown = APPLIES[args.workload] + (
            "fit_s",
            "fail_ratio",
            "test_error_gmean",
            "benchmark.run_fit.nonfinite",
            "benchmark.results_changed",
        )
        print("workload figures (medians over the processes above; times as measured,")
        print("with the calibration samples taken during them):")
        for m in spec["per_layer"]:
            if m["name"] in shown:
                print(f"  {m['name']:38s} {values[m['name']]:14.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print("trace 1 metrics:" if args.trace else "end-to-end metrics:")
    for name, entry in metrics.items():
        print(f"  {name:38s} {entry['value']:14.6g} {entry['unit']}")
    first = reports[0]
    print(f"machine: {os.cpu_count()} cores, Python {first['python']}, numpy {first['numpy']}")
    problems = describe_errors(reports)
    outcomes = [o for r in reports for o in r["outcomes"]]
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o["error"] is not None for o in outcomes),
        "metrics": metrics,
    }
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "odesr" / "__init__.py").is_file():
        print(
            "run.py: no src/odesr here; run from the root of an odesr checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        result, problems = run(args, spec, root)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

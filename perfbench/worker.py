"""One workload process: set up with cold state, run the operation list
once, print the report as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload score --seed 0 \
        --work-dir .perfbench --spawned-at <perf_counter of the parent>

perf_counter reads the system-wide monotonic clock, so the parent's
reading just before it starts this process marks the process start.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from calibrate import Clock
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="time the calibration kernel while the operations run",
    )
    parser.add_argument(
        "--setup-only", action="store_true", help="stop before the first operation"
    )
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        workloads.build(args.workload, inputs, args.work_dir)
        print(json.dumps({"setup_s": perf_counter() - args.spawned_at}))
        return 0
    tracer = Tracer() if args.trace else None
    clock = Clock() if args.calibrate else None
    report = workloads.run_workload(args.workload, inputs, args.work_dir, tracer, clock)
    out = asdict(report)
    out["setup_s"] = report.first_op_at - args.spawned_at
    out["python"] = platform.python_version()
    out["numpy"] = np.__version__
    if tracer is not None:
        tracer.write(args.work_dir / f"trace-{args.workload}.jsonl")
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

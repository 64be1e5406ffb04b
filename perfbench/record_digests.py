"""Record the expected output digest of every operation of every workload
and seed block into digests.json, which run.py compares against to report
benchmark.results_changed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Re-record only in a change that states which results change and why.
Takes several minutes: the sweep and ga run once per seed block.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    work_dir = Path(".perfbench")
    stored: dict[str, str] = {}
    runs = [("score", 0)] + [
        (name, block) for name in ("ga", "sweep") for block in range(workloads.SEED_BLOCKS)
    ]
    failed = 0
    for name, block in runs:
        report = workloads.run_workload(name, workloads.make_inputs(name, block), work_dir)
        for o in report.outcomes:
            if o.error is not None:
                failed += 1
                print(f"{name} block {block}: {o.id}: {o.error}", file=sys.stderr)
        stored.update((o.id, o.digest) for o in report.outcomes)
        print(f"{name} block {block}: {len(report.outcomes)} outputs", flush=True)
    if failed:
        print(f"{failed} outputs failed; digests.json not written", file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Emit plot-ready CSVs: hybrid rollouts per method and Pareto fronts.

For each system, fits every method once (seed 0), integrates the hybrid
system where the learned expression replaces the target dimension, and
writes ground-truth and hybrid trajectories side by side. The Pareto
pipeline additionally dumps its (complexity, error) front. No rendering
here; the CSVs are meant for whatever plotting tool sits downstream.
"""

import argparse
from pathlib import Path

from odesr.benchmark import METHODS, rollout_with_estimate, run_fit, write_rollout_csv
from odesr.expressions import parse_expr
from odesr.feynman import write_pareto_rows
from odesr.systems import SYSTEM_NAMES, get_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figure_data", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="GA seed")
    parser.add_argument(
        "--systems", nargs="+", default=list(SYSTEM_NAMES), choices=SYSTEM_NAMES,
        help="systems to include",
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name in args.systems:
        system = get_system(name)
        for method in METHODS:
            record = run_fit(method, system, seed=args.seed)
            if method == "feynman":
                pareto = record["pareto"]
            expr = parse_expr(record["expression"], system.variable_names)
            rollout = rollout_with_estimate(expr, system)
            path = out / f"{name}_{method}_rollout.csv"
            write_rollout_csv(rollout, system.variable_names, path)
            note = ""
            if rollout.divergence_time is not None:
                note = f" (hybrid diverged at t={rollout.divergence_time:.2f})"
            print(
                f"{name}/{method}: test error {record['test_error']:.4f}, "
                f"wrote {path}{note}"
            )

        pareto_path = out / f"{name}_pareto.csv"
        write_pareto_rows(pareto, pareto_path)
        print(f"{name}: wrote {pareto_path} ({len(pareto)} candidates)")


if __name__ == "__main__":
    main()

"""Command-line entry points: generate, fit, eval, rollout, bench.

Exit codes: 0 on success, 1 for argument or configuration problems, 2 for
numerical failures (integration blow-up, sampling exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import (
    METHODS,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    test_error,
    write_rollout_csv,
)
from .expressions import parse_expr, print_expr
from .feynman import FeynmanConfig
from .ga import GA_DEFAULTS, GAConfig
from .genomes import SamplingError
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    finite_differences,
    make_trajectory,
    write_trajectory_csv,
)
from .sindy import LassoConfig, STLSQConfig, basis_from_strings, preset_basis
from .systems import SYSTEM_NAMES, expression_system, get_system


def _object(value, where: str) -> dict:
    """value if it is a JSON object; a ValueError naming where otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    return value


def _section(config: dict, name: str) -> dict:
    return _object(config.get(name, {}), f"config section {name!r}")


def load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return _object(json.load(fh), f"config {path}")


def resolve_system(name: str, config: dict):
    entry = _section(config, "systems").get(name)
    if entry is None:
        return get_system(name)
    try:
        rhs, initial_state = entry["rhs"], entry["initial_state"]
    except KeyError as err:
        raise ValueError(f"config system {name!r} has no {err}") from None
    return expression_system(
        name,
        rhs,
        initial_state,
        train_span=entry.get("train_span", (0.0, 10.0)),
        test_span=entry.get("test_span", (10.0, 15.0)),
        target_dim=entry.get("target_dim"),
        variable_names=entry.get("variable_names"),
    )


def integrator_from_config(config: dict) -> IntegratorConfig | None:
    entry = config.get("integrator")
    if entry is None:
        return None
    return IntegratorConfig(**entry)


def _solver_from_config(entry: dict):
    kind = _object(entry, "config section 'sindy.solver'").get("kind", "stlsq")
    params = {k: v for k, v in entry.items() if k != "kind"}
    if kind == "stlsq":
        return STLSQConfig(**params)
    if kind == "lasso":
        return LassoConfig(**params)
    raise ValueError(f"unknown sindy solver {kind!r}")


def fit_kwargs(method: str, system, config: dict) -> dict:
    """Translate the JSON config into run_fit keyword arguments."""
    kwargs: dict = {}
    integrator = integrator_from_config(config)
    if integrator is not None:
        kwargs["integrator"] = integrator
    if method == "ga":
        entry = _section(config, "ga").get(system.name)
        if entry is not None:
            params = {**GA_DEFAULTS.get(system.name, {}), **entry}
            kwargs["ga_config"] = GAConfig(**params)
        pool = _section(config, "constant_pools").get(system.name)
        if pool is not None:
            kwargs["constant_pool"] = tuple(float(c) for c in pool)
    elif method == "sindy":
        sindy_cfg = _section(config, "sindy")
        basis = _object(sindy_cfg.get("basis", {}), "config section 'sindy.basis'")
        entry = basis.get(system.name)
        if isinstance(entry, str):
            kwargs["basis"] = preset_basis(entry)
        elif entry is not None:
            kwargs["basis"] = basis_from_strings(entry, system.variable_names)
        solver = sindy_cfg.get("solver")
        if solver is not None:
            kwargs["sparse"] = _solver_from_config(solver)
    elif method == "feynman":
        entry = _section(config, "feynman")
        if entry:
            kwargs["feynman"] = FeynmanConfig(**entry)
    return kwargs


def _write_dataset_csv(data, variable_names, path) -> None:
    with open(path, "w") as fh:
        fh.write("t," + ",".join(variable_names) + ",target\n")
        for t, row, target in zip(data.times, data.states, data.targets):
            fh.write(",".join(f"{v:.17g}" for v in (t, *row, target)) + "\n")


def cmd_generate(args) -> int:
    config = load_config(args.config)
    system = resolve_system(args.system, config)
    integrator = integrator_from_config(config)
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    for split in ("train", "test"):
        traj = make_trajectory(system, split, args.dt, integrator)
        traj_path = f"{base}_{split}.csv"
        write_trajectory_csv(traj, system.variable_names, traj_path)
        data = finite_differences(traj, system.target_dim)
        data_path = f"{base}_{split}_targets.csv"
        _write_dataset_csv(data, system.variable_names, data_path)
        print(f"wrote {traj_path} and {data_path}")
    return 0


def cmd_fit(args) -> int:
    config = load_config(args.config)
    system = resolve_system(args.system, config)
    kwargs = fit_kwargs(args.method, system, config)
    record = run_fit(
        args.method,
        system,
        seed=args.seed,
        sample_dt=config.get("sample_dt", 0.1),
        **kwargs,
    )
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"{record['expression']}  (test error {record['test_error']:.6g})")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    system = resolve_system(args.system, config)
    expr = parse_expr(args.expr, system.variable_names)
    record = {
        "system": system.name,
        "expression": print_expr(expr, system.variable_names),
        "test_error": test_error(
            expr, system, config.get("sample_dt", 0.1), integrator_from_config(config)
        ),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"test error {record['test_error']:.6g}")
    return 0


def cmd_rollout(args) -> int:
    config = load_config(args.config)
    system = resolve_system(args.system, config)
    expr = parse_expr(args.expr, system.variable_names)
    result = rollout_with_estimate(
        expr,
        system,
        sample_dt=config.get("sample_dt", 0.1),
        config=integrator_from_config(config),
    )
    write_rollout_csv(result, system.variable_names, args.out)
    if result.divergence_time is not None:
        print(
            f"estimate diverged at t={result.divergence_time:.6g}; "
            "trajectory truncated",
            file=sys.stderr,
        )
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    config = load_config(args.config)
    systems = tuple(args.systems) if args.systems else SYSTEM_NAMES
    methods = tuple(args.methods) if args.methods else METHODS

    resolved = {name: resolve_system(name, config) for name in systems}
    overrides = {
        (method, name): fit_kwargs(method, resolved[name], config)
        for method in methods
        for name in systems
    }
    results = run_benchmark(
        methods,
        systems,
        repetitions=args.reps,
        base_seed=args.seed,
        out_dir=args.out,
        sample_dt=config.get("sample_dt", 0.1),
        overrides=overrides,
        resolver=resolved.__getitem__,
    )
    for res in results:
        print(
            f"{res.method:8s} {res.system:16s} "
            f"{res.mean_test_error:.4f} +- {res.std_test_error:.4f}"
        )
    print(f"wrote {Path(args.out) / 'table.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odesr",
        description="Symbolic regression of ODE right-hand sides from trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit train/test trajectories and datasets")
    p.add_argument("--system", required=True)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("fit", help="fit one method on one system")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--system", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("eval", help="test error of a given expression")
    p.add_argument("--system", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("rollout", help="hybrid and ground-truth trajectories")
    p.add_argument("--system", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_rollout)

    p = sub.add_parser("bench", help="benchmark sweep; writes table.csv and run JSONs")
    p.add_argument("--methods", nargs="*", choices=METHODS)
    p.add_argument("--systems", nargs="*")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; remap to our convention
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (IntegrationError, SamplingError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as err:
        # str() of a KeyError is the repr of its argument, quotes and all
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

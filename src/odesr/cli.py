"""Command-line entry points: generate, fit, eval, rollout, bench.

Exit codes: 0 on success, 1 for argument or configuration problems, 2 for
numerical failures (integration blow-up, sampling exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import is_dataclass, replace
from functools import partial
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .benchmark import (
    METHODS,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    test_error,
    write_rollout_csv,
)
from .expressions import evaluate, parse_expr, print_expr
from .feynman import FeynmanConfig
from .ga import GAConfig, default_ga_config
from .genomes import SamplingError
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    finite_differences,
    make_trajectory,
    write_csv,
    write_trajectory_csv,
)
from .sindy import BasisSet, STLSQConfig, basis_from_strings, preset_basis
from .systems import SYSTEM_NAMES, SystemSpec, expression_system, get_system


# a systems.<name> entry: expression_system's arguments; needs rhs and initial_state
_SYSTEM = {
    "rhs": tuple[str, ...],
    "initial_state": tuple[float, ...],
    "train_span": tuple[float, float],
    "test_span": tuple[float, float],
    "target_dim": int | None,
    "variable_names": tuple[str, ...] | None,
}

# The config file's JSON shape: a dict is an object of those keys, a dataclass
# an object of its fields (read as an instance), dict[str, X] an object of X keyed
# by system name and tuple[...] a list. An int is a float too, but a bool is neither.
CONFIG_SHAPE = {
    "sample_dt": float,
    "integrator": IntegratorConfig,
    "systems": dict[str, _SYSTEM],
    # without "seed": every run takes its seed from --seed
    "ga": dict[str, {k: v for k, v in get_type_hints(GAConfig).items() if k != "seed"}],
    "constant_pools": dict[str, tuple[float, ...]],
    "sindy": {"basis": dict[str, str | tuple[str, ...]], "solver": STLSQConfig},
    "feynman": FeynmanConfig,
}


def _matches(value, shape) -> bool:
    """Whether a JSON value that is not an object has the given shape."""
    if get_origin(shape) is UnionType:
        return any(_matches(value, s) for s in get_args(shape))
    if get_origin(shape) is tuple:  # tuple[X, ...] or tuple[X, X]
        args = get_args(shape)
        if not isinstance(value, list):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_matches, value, items))
    scalar = (int, float) if shape is float else shape
    return isinstance(value, scalar) and not isinstance(value, bool)


def _name(shape) -> str:
    """How a message names a shape, e.g. "list of 2 float"."""
    if get_origin(shape) is UnionType:
        return " or ".join(map(_name, get_args(shape)))
    if get_origin(shape) is tuple:
        args = get_args(shape)
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"list of {count}{_name(args[0])}"
    return "null" if shape is NoneType else shape.__name__


def _checked(value, shape, path: str, top: str):
    """value if it has the JSON shape `shape`, with each dataclass section
    built; a ValueError naming the dotted key path otherwise (top names the
    file itself)."""
    if not (isinstance(shape, dict) or is_dataclass(shape) or get_origin(shape) is dict):
        if not _matches(value, shape):
            raise ValueError(f"config key {path!r} must be {_name(shape)}")
        return value
    where = f"config section {path!r}" if path else top
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    build, fields = dict, shape
    if get_origin(shape) is dict:
        fields = dict.fromkeys(value, get_args(shape)[1])
    elif is_dataclass(shape):
        build, fields = shape, get_type_hints(shape)
    for key in value:
        if key not in fields:
            hint = "; the seed comes from --seed" if key == "seed" else ""
            raise ValueError(f"{where} has unknown key {key!r}{hint}")
    keys = {k: f"{path}.{k}" if path else k for k in value}
    checked = {k: _checked(v, fields[k], keys[k], top) for k, v in value.items()}
    return _built(build, where, checked)


def _built(build, where: str, fields: dict):
    """build(**fields), with a ValueError or KeyError of the build (a range
    error from a dataclass's __post_init__, expression_system's, or an
    unknown basis preset) turned into a ValueError prefixed by where the
    entry is."""
    try:
        return build(**fields)
    except (ValueError, KeyError) as err:
        message = err.args[0] if isinstance(err, KeyError) else err
        raise ValueError(f"{where}: {message}") from None


def _system(name: str, entry: dict) -> SystemSpec:
    """expression_system built from a systems.<name> entry."""
    options = dict(entry)
    try:
        rhs, initial_state = options.pop("rhs"), options.pop("initial_state")
    except KeyError as err:
        raise ValueError(f"config section 'systems.{name}' has no key {err}") from None
    build = partial(expression_system, name, rhs, initial_state)
    return _built(build, f"config section 'systems.{name}'", options)


def _basis(entry, system: SystemSpec) -> BasisSet:
    """A sindy.basis entry (a preset name or expression strings) built into
    a BasisSet, each function evaluated once at system's initial state, so
    that a preset reading a variable the system lacks raises."""
    if isinstance(entry, str):
        basis = preset_basis(entry)
    else:
        basis = basis_from_strings(entry, system.variable_names)
    for function in basis.functions:
        evaluate(function.expr, system.train_span[0], system.initial_state)
    return basis


def load_config(path) -> dict:
    """The JSON config at path (None for no file) checked against
    CONFIG_SHAPE, with sample_dt and integrator filled in. Every per-system
    entry is built whichever system runs: each systems.<name> into a
    SystemSpec, each ga.<name> into a GAConfig over default_ga_config(name),
    each constant_pools.<name> into a tuple of floats and each
    sindy.basis.<name> into a BasisSet. The names of those last three must
    be built-in systems or systems entries."""
    config = {}
    if path is not None:
        with open(path) as fh:
            config = _checked(json.load(fh), CONFIG_SHAPE, "", f"config {path}")
    config["systems"] = {name: _system(name, e) for name, e in config.get("systems", {}).items()}
    for section, entries in (
        ("ga", config.get("ga", {})),
        ("constant_pools", config.get("constant_pools", {})),
        ("sindy.basis", config.get("sindy", {}).get("basis", {})),
    ):
        for name, entry in entries.items():
            if name not in SYSTEM_NAMES and name not in config["systems"]:
                raise ValueError(f"config key '{section}.{name}' names no system")
            if section == "ga":
                build = partial(replace, default_ga_config(name))
                entries[name] = _built(build, f"config section 'ga.{name}'", entry)
            elif section == "constant_pools":
                entries[name] = tuple(map(float, entry))
            else:
                fields = {"entry": entry, "system": resolve_system(name, config)}
                entries[name] = _built(_basis, f"config key '{section}.{name}'", fields)
    return {"sample_dt": 0.1, "integrator": None, **config}


def resolve_system(name: str, config: dict) -> SystemSpec:
    """The config's system of that name, as load_config built it, else the
    built-in one."""
    system = config.get("systems", {}).get(name)
    return get_system(name) if system is None else system


def fit_kwargs(method: str, system, config: dict) -> dict:
    """The run_fit keyword arguments that the loaded config sets for method
    on system."""
    kwargs: dict = {"integrator": config["integrator"]}
    if method == "ga":
        kwargs["ga_config"] = config.get("ga", {}).get(system.name)
        kwargs["constant_pool"] = config.get("constant_pools", {}).get(system.name)
    elif method == "sindy":
        kwargs["basis"] = config.get("sindy", {}).get("basis", {}).get(system.name)
        kwargs["sparse"] = config.get("sindy", {}).get("solver")
    elif method == "feynman":
        kwargs["feynman"] = config.get("feynman")
    return kwargs


def cmd_generate(args, config: dict) -> int:
    system = resolve_system(args.system, config)
    dt = config["sample_dt"] if args.dt is None else args.dt
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    for split in ("train", "test"):
        traj = make_trajectory(system, split, dt, config["integrator"])
        traj_path = f"{base}_{split}.csv"
        write_trajectory_csv(traj, system.variable_names, traj_path)
        data = finite_differences(traj, system.target_dim)
        data_path = f"{base}_{split}_targets.csv"
        names = ("t", *system.variable_names, "target")
        write_csv(data_path, names, data.times, data.states, data.targets)
        print(f"wrote {traj_path} and {data_path}")
    return 0


def cmd_fit(args, config: dict) -> int:
    system = resolve_system(args.system, config)
    kwargs = fit_kwargs(args.method, system, config)
    record = run_fit(
        args.method, system, seed=args.seed, sample_dt=config["sample_dt"], **kwargs
    )
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"{record['expression']}  (test error {record['test_error']:.6g})")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args, config: dict) -> int:
    system = resolve_system(args.system, config)
    expr = parse_expr(args.expr, system.variable_names)
    record = {
        "system": system.name,
        "expression": print_expr(expr, system.variable_names),
        "test_error": test_error(expr, system, config["sample_dt"], config["integrator"]),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"test error {record['test_error']:.6g}")
    return 0


def cmd_rollout(args, config: dict) -> int:
    system = resolve_system(args.system, config)
    expr = parse_expr(args.expr, system.variable_names)
    result = rollout_with_estimate(
        expr, system, sample_dt=config["sample_dt"], config=config["integrator"]
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


def cmd_bench(args, config: dict) -> int:
    results = run_benchmark(
        args.methods,
        args.systems,
        repetitions=args.reps,
        base_seed=args.seed,
        out_dir=args.out,
        sample_dt=config["sample_dt"],
        overrides=partial(fit_kwargs, config=config),
        resolver=partial(resolve_system, config=config),
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
    p.add_argument("--dt", type=float, help="default: the config's sample_dt")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("fit", help="fit one method on one system")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--system", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("eval", help="test error of a given expression")
    p.add_argument("--system", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("rollout", help="hybrid and ground-truth trajectories")
    p.add_argument("--system", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=cmd_rollout)

    p = sub.add_parser("bench", help="benchmark sweep; writes table.csv and run JSONs")
    p.add_argument("--methods", nargs="+", choices=METHODS)
    p.add_argument("--systems", nargs="+")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_bench)

    for p in sub.choices.values():
        p.add_argument("--config")
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; remap to our convention
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args, load_config(args.config))
    except (IntegrationError, SamplingError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        # str() of a KeyError is the repr of its argument, quotes and all
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

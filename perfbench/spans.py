"""Span tracing of the odesr layers from outside the package.

A Tracer replaces the package's public functions with timing wrappers at
every module attribute through which a caller reaches them, records one
span per call (name, start, end, parent span, operation id) in memory,
and puts the original functions back on uninstall.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Layer name -> the "module:attribute" sites through which callers reach the
# layer's function. Callers bind these names at import (`from .x import y`),
# so patching the defining module alone would miss them. Every site must
# hold the same function as the first one. `odesr.integrate` is reached
# through importlib because the package attribute of that name is the
# re-exported function, not the module.
SITES: dict[str, tuple[str, ...]] = {
    "integrate.integrate": ("odesr.integrate:integrate", "odesr.benchmark:integrate"),
    "integrate.make_trajectory": (
        "odesr.integrate:make_trajectory",
        "odesr.benchmark:make_trajectory",
    ),
    "integrate.make_dataset": ("odesr.integrate:make_dataset", "odesr.benchmark:make_dataset"),
    # scalar path: hybrid rollouts, and expression systems, which import
    # `evaluate` from the defining module when they are built
    "expressions.evaluate": ("odesr.expressions:evaluate", "odesr.benchmark:evaluate"),
    # batch path as its callers see it; `evaluate` reaches the defining
    # module's binding, so scalar calls are not counted twice
    "expressions.evaluate_batch": (
        "odesr.ga:evaluate_batch",
        "odesr.sindy:evaluate_batch",
        "odesr.benchmark:evaluate_batch",
    ),
    "genomes.decode": ("odesr.ga:decode",),
    "genomes.mutate": ("odesr.ga:mutate",),
    "genomes.random_genome": ("odesr.ga:random_genome",),
    # make_candidate calls this binding for ga, sindy and feynman alike
    "ga.fitness": ("odesr.ga:fitness",),
    "ga.run_ga": ("odesr.ga:run_ga", "odesr.benchmark:run_ga"),
    "sindy.fit": ("odesr.sindy:fit", "odesr.benchmark:sindy_fit"),
    "sindy.build_design_matrix": ("odesr.sindy:build_design_matrix",),
    "sindy.stlsq": ("odesr.sindy:stlsq",),
    "feynman.brute_force": ("odesr.feynman:brute_force",),
    "feynman.polyfit": ("odesr.feynman:polyfit",),
    "feynman.separability_split": ("odesr.feynman:separability_split",),
    "feynman.pareto_front": ("odesr.feynman:pareto_front",),
    "feynman.run_pipeline": ("odesr.feynman:run_pipeline", "odesr.benchmark:run_pipeline"),
    "benchmark.run_fit": ("odesr.benchmark:run_fit",),
    "benchmark.test_error": ("odesr.benchmark:test_error",),
    "benchmark.rollout_with_estimate": ("odesr.benchmark:rollout_with_estimate",),
    "benchmark.write_benchmark": ("odesr.benchmark:write_benchmark",),
}

# time spent in the tracer's own bookkeeping after a call; recorded as a
# child span so that it does not count as the caller's self time
HOOK = "trace.hook"


def trajectory_key(value, depth: int = 0):
    """Hashable identity of an integration input: functions by code and
    captured values, arrays by bytes, dataclasses by fields."""
    if depth > 12:
        return ("deep", type(value).__name__)
    code = getattr(value, "__code__", None)
    if code is not None:
        cells = tuple(
            trajectory_key(c.cell_contents, depth + 1) for c in value.__closure__ or ()
        )
        return ("fn", code.co_filename, code.co_firstlineno, code.co_name, cells)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        return (
            type(value).__name__,
            tuple(trajectory_key(getattr(value, f.name), depth + 1) for f in fields),
        )
    if isinstance(value, (list, tuple)):
        return tuple(trajectory_key(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), trajectory_key(v, depth + 1)) for k, v in value.items()))
    return value


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.op: str | None = None
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trajectory_keys: list = []
        self.fitness_exprs: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch every site in SITES; a site that no longer holds the
        defining function is reported on stderr and left alone."""
        hooks = {
            "integrate.integrate": self._integrate_call,
            "ga.fitness": self._fitness_call,
        }
        after = {
            "feynman.brute_force": self._brute_force_done,
            "feynman.pareto_front": self._pareto_done,
            "benchmark.write_benchmark": self._write_done,
        }
        try:
            for name, sites in SITES.items():
                original = None
                for site in sites:
                    module_name, attr = site.split(":")
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        module = None
                    current = getattr(module, attr, None)
                    if original is None:
                        if current is None:
                            print(f"trace: {site} not found; {name} untraced", file=sys.stderr)
                            break
                        original = current
                        wrapper = self._wrap(name, original, hooks.get(name), after.get(name))
                    elif current is not original:
                        print(f"trace: {site} is not {sites[0]}; unpatched", file=sys.stderr)
                        continue
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- spans

    def _begin(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)  # filled when the call ends
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _end(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn, call_hook, after_hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = self._begin()
            start = perf_counter()
            try:
                if call_hook is not None:
                    return call_hook(fn, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._end(name, index, parent, start)
            if after_hook is not None:
                hook_start = perf_counter()
                after_hook(args, kwargs, result)
                self.spans.append((HOOK, hook_start, perf_counter(), parent, self.op))
            return result

        return wrapper

    # -------------------------------------------------------------- hooks

    def _integrate_call(self, fn, args, kwargs):
        rhs = _arg(args, kwargs, 0, "rhs")
        x0 = _arg(args, kwargs, 1, "x0")
        span = _arg(args, kwargs, 2, "span")
        sample_dt = _arg(args, kwargs, 3, "sample_dt")
        config = _arg(args, kwargs, 4, "config")
        x0 = np.asarray(x0, dtype=float)
        span = tuple(float(v) for v in span)
        self.trajectory_keys.append(trajectory_key((rhs, x0, span, float(sample_dt), config)))
        counters = self.counters

        def counted_rhs(t, x):
            start = perf_counter()
            try:
                return rhs(t, x)
            finally:
                counters["rhs_calls"] += 1
                counters["rhs_s"] += perf_counter() - start

        rest = args[1:] if args else ()
        kwargs = {k: v for k, v in kwargs.items() if k != "rhs"}
        return fn(counted_rhs, *rest, **kwargs)

    def _fitness_call(self, fn, args, kwargs):
        # printed only at the end, so the count costs one append per call
        self.fitness_exprs.append(_arg(args, kwargs, 0, "expr"))
        return fn(*args, **kwargs)

    def _brute_force_done(self, args, kwargs, result) -> None:
        self.counters["brute_force_candidates"] += len(result)
        self.counters["brute_force_distinct_rmse"] += len({c.train_rmse for c in result})

    def _pareto_done(self, args, kwargs, result) -> None:
        self.counters["pareto_front_size"] += len(result.candidates)

    def _write_done(self, args, kwargs, result) -> None:
        out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
        self.counters["write_bytes"] += sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file()
        )

    # ------------------------------------------------------------- report

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per traced layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SITES
        }
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == HOOK:
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return stats

    def metrics(self) -> dict[str, float]:
        """Flat `<module>.<function>.<stat>` metrics of this trace."""
        from odesr.expressions import print_expr

        out: dict[str, float] = {}
        for name, entry in self.layer_stats().items():
            for stat, value in entry.items():
                out[f"{name}.{stat}"] = value
        c = self.counters
        calls = out["integrate.integrate.calls"]
        out["integrate.integrate.rhs_calls"] = int(c["rhs_calls"])
        out["integrate.integrate.rhs_s"] = c["rhs_s"]
        out["integrate.integrate.distinct_ratio"] = (
            len(set(self.trajectory_keys)) / calls if calls else 0.0
        )
        fitness_calls = len(self.fitness_exprs)
        out["ga.fitness.unique_ratio"] = (
            len({print_expr(e) for e in self.fitness_exprs}) / fitness_calls
            if fitness_calls
            else 0.0
        )
        candidates = c["brute_force_candidates"]
        out["feynman.brute_force.candidates"] = int(candidates)
        out["feynman.brute_force.distinct_rmse_ratio"] = (
            c["brute_force_distinct_rmse"] / candidates if candidates else 0.0
        )
        out["feynman.pareto_front.size"] = int(c["pareto_front_size"])
        out["benchmark.write_benchmark.bytes"] = int(c["write_bytes"])
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Symbolic regression of ODE right-hand sides from sampled trajectories.

Three search strategies over a shared expression-tree representation:
a grammar-based genetic algorithm, sparse regression over a fixed basis
library, and a polynomial/brute-force Pareto search. Benchmarked on
Lotka-Volterra, a damped pendulum, and a forced cart-pole.
"""

from .benchmark import (
    GROUND_TRUTH_EXPRESSIONS,
    rollout_with_estimate,
    run_benchmark,
    run_fit,
    test_error,
    write_benchmark,
)
from .expressions import (
    BINARY_OPS,
    UNARY_OPS,
    Binary,
    Const,
    Expr,
    ParseError,
    Time,
    Unary,
    Var,
    compile_scalar,
    complexity,
    evaluate,
    evaluate_batch,
    parse_expr,
    print_expr,
)
from .feynman import (
    FeynmanConfig,
    ParetoFront,
    brute_force,
    pareto_front,
    polyfit,
    run_pipeline,
    separability_split,
)
from .ga import CandidateSolution, GAConfig, default_ga_config, run_ga
from .genomes import Genome, Grammar, SamplingError, decode, grammar_for_system, random_genome
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    RegressionDataset,
    Trajectory,
    finite_differences,
    integrate,
    make_dataset,
    make_trajectory,
)
from .sindy import BasisSet, LassoConfig, STLSQConfig, basis_from_strings, preset_basis
from .sindy import fit as sindy_fit
from .systems import SYSTEM_NAMES, SystemSpec, expression_system, get_system

__all__ = [
    "BINARY_OPS",
    "BasisSet",
    "Binary",
    "CandidateSolution",
    "Const",
    "Expr",
    "FeynmanConfig",
    "GAConfig",
    "GROUND_TRUTH_EXPRESSIONS",
    "Genome",
    "Grammar",
    "IntegrationError",
    "IntegratorConfig",
    "LassoConfig",
    "ParetoFront",
    "ParseError",
    "RegressionDataset",
    "SYSTEM_NAMES",
    "STLSQConfig",
    "SamplingError",
    "SystemSpec",
    "Time",
    "Trajectory",
    "UNARY_OPS",
    "Unary",
    "Var",
    "basis_from_strings",
    "brute_force",
    "compile_scalar",
    "complexity",
    "decode",
    "default_ga_config",
    "evaluate",
    "evaluate_batch",
    "expression_system",
    "finite_differences",
    "get_system",
    "grammar_for_system",
    "integrate",
    "make_dataset",
    "make_trajectory",
    "pareto_front",
    "parse_expr",
    "polyfit",
    "preset_basis",
    "print_expr",
    "random_genome",
    "rollout_with_estimate",
    "run_benchmark",
    "run_fit",
    "run_ga",
    "run_pipeline",
    "separability_split",
    "sindy_fit",
    "test_error",
    "write_benchmark",
]

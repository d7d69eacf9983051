"""Greedy capped nonlinear Kaczmarz solvers, baselines, and benchmarking."""

from .core import (
    Convex,
    IterationRecord,
    MethodKind,
    ProblemInstance,
    Scaled,
    SolveStatus,
    SolveTrace,
    SolverConfig,
)
from .problems import (
    BrownProblem,
    Dataset,
    GLMProblem,
    LinearProblem,
    load_libsvm,
    make_glm,
    make_synthetic_glm,
    parse_libsvm,
)
from .solvers import solve

__all__ = [
    "BrownProblem",
    "Convex",
    "Dataset",
    "GLMProblem",
    "IterationRecord",
    "LinearProblem",
    "MethodKind",
    "ProblemInstance",
    "Scaled",
    "SolveStatus",
    "SolveTrace",
    "SolverConfig",
    "load_libsvm",
    "make_glm",
    "make_synthetic_glm",
    "parse_libsvm",
    "solve",
]

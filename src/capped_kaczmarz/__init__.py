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
    check_stop,
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
from .selection import SelectionKind, SelectionResult
from .solvers import kaczmarz_step, solve

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
    "SelectionKind",
    "SelectionResult",
    "SolveStatus",
    "SolveTrace",
    "SolverConfig",
    "check_stop",
    "kaczmarz_step",
    "load_libsvm",
    "make_glm",
    "make_synthetic_glm",
    "parse_libsvm",
    "solve",
]

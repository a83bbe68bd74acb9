"""Sequence-transformation toolkit.

Implements a convergence acceleration algorithm driven by a
three-level lattice recursion, its determinant-ratio definition as an
independent oracle, and Wynn's epsilon algorithm as a baseline.
"""

from .analysis import Classification, ConvergenceReport, error_table, estimate_rho
from .epsilon import epsilon_transform
from .errors import (
    EmptyInputError,
    IngestError,
    KernelDegeneracyError,
    ModeUnsupportedError,
    NonFiniteError,
    SeqAccelError,
    SingularError,
    SpecError,
    WindowError,
)
from .lbq import build_lattice, lbq_transform
from .modes import FLOAT64, RATIONAL, BigFloat, mode_from_name
from .oracle import (
    check_bilinear,
    kernel_coefficients,
    kernel_construct,
    molecule_solution,
    phi_det,
    psi_det,
    t_determinant,
)
from .seqgen import GeneratorSpec, generate, ingest, partial_sums
from .sequences import Sequence, forward_difference
from .tables import Status, TransformEntry, TransformTable

__all__ = [
    "BigFloat",
    "Classification",
    "ConvergenceReport",
    "EmptyInputError",
    "FLOAT64",
    "GeneratorSpec",
    "IngestError",
    "KernelDegeneracyError",
    "ModeUnsupportedError",
    "NonFiniteError",
    "RATIONAL",
    "SeqAccelError",
    "Sequence",
    "SingularError",
    "SpecError",
    "Status",
    "TransformEntry",
    "TransformTable",
    "WindowError",
    "build_lattice",
    "check_bilinear",
    "epsilon_transform",
    "error_table",
    "estimate_rho",
    "forward_difference",
    "generate",
    "ingest",
    "kernel_coefficients",
    "kernel_construct",
    "lbq_transform",
    "mode_from_name",
    "molecule_solution",
    "partial_sums",
    "phi_det",
    "psi_det",
    "t_determinant",
]

__version__ = "0.1.0"

"""Exact construction and verification engine for q-deformed multiple
Charlier polynomials on the lattice x(s) = (q^s - 1)/(q - 1)."""

from .qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    QContext,
    ValidationError,
)
from .constructors import (
    QCharlierPoly,
    build,
    build_explicit,
    build_linear_system,
    build_recurrence,
    build_rodrigues,
    rodrigues_constant,
)
from .relations import (
    NNRecurrenceCoeffs,
    SteplineCoeffs,
    diff_eq_residual,
    lowering_coeffs,
    nn_recurrence_coeffs,
    orthogonality_residuals,
    stepline_coeffs,
    verify_lowering,
    verify_nn_recurrence,
    verify_raising,
    verify_stepline,
)
from .classical import classical_build

__all__ = [
    "FALLING",
    "MONOMIAL",
    "LatticePoly",
    "MultiIndex",
    "QContext",
    "ValidationError",
    "QCharlierPoly",
    "build",
    "build_explicit",
    "build_linear_system",
    "build_recurrence",
    "build_rodrigues",
    "rodrigues_constant",
    "NNRecurrenceCoeffs",
    "SteplineCoeffs",
    "diff_eq_residual",
    "lowering_coeffs",
    "nn_recurrence_coeffs",
    "orthogonality_residuals",
    "stepline_coeffs",
    "verify_lowering",
    "verify_nn_recurrence",
    "verify_raising",
    "verify_stepline",
    "classical_build",
]

__version__ = "0.1.0"

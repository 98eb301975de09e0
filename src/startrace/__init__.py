"""Exact workbench for star products and their traces on flat symplectic space.

Expression rings (polynomials, Gaussian-weighted functions and their
integrals, differential operators) are Fraction-exact, so every
algebraic identity here, symplectic pullback invariance included, either
vanishes literally or fails honestly.  Grid decompositions are the only
numerical corner, and they carry explicit tolerances.
"""

from startrace.diffop import BiDiffOp, DiffOp
from startrace.equiv import (
    Equivalence,
    density_from_equivalence,
    equiv_adjoint,
    equiv_invert,
    is_symplectic,
    random_equivalence,
    symplectic_automorphism_check,
    symplectic_form_matrix,
    transport_euler,
    transport_star,
)
from startrace.formal import FormalScalar
from startrace.gaussfn import (
    GaussFn,
    IntegralValue,
    NonIntegrableError,
    gauss_integrate_bigfloat,
    gauss_integrate_exact,
    gauss_pullback_linear,
)
from startrace.gsdecomp import (
    GridFn,
    MarginError,
    NonzeroIntegralError,
    bracket_decompose,
    bracket_residual,
    brw_residual,
    bump_generate,
    decomposition_residual,
    grid_bracket,
    gs_decompose,
    plateau_generate,
    tapered_generate,
)
from startrace.poly import PhaseSpace, Poly, poisson_bracket
from startrace.star import (
    EulerDerivation,
    StarProduct,
    associativity_residual,
    canonical_euler,
    closedness_integral,
    derivation_residual,
    moyal_construct,
    star_commutator,
    star_multiply,
)
from startrace.trace import (
    InconsistentTracesError,
    TraceFunctional,
    default_probe_battery,
    moyal_trace,
    normalization_residual,
    operator_trace_residual,
    proportionality_factor,
    standardize,
    trace_eval,
    trace_residual,
    trk_residual,
)

__all__ = [
    "BiDiffOp",
    "DiffOp",
    "Equivalence",
    "EulerDerivation",
    "FormalScalar",
    "GaussFn",
    "GridFn",
    "InconsistentTracesError",
    "IntegralValue",
    "MarginError",
    "NonIntegrableError",
    "NonzeroIntegralError",
    "PhaseSpace",
    "Poly",
    "StarProduct",
    "TraceFunctional",
    "associativity_residual",
    "bracket_decompose",
    "bracket_residual",
    "brw_residual",
    "bump_generate",
    "canonical_euler",
    "closedness_integral",
    "decomposition_residual",
    "density_from_equivalence",
    "derivation_residual",
    "default_probe_battery",
    "equiv_adjoint",
    "equiv_invert",
    "gauss_integrate_bigfloat",
    "gauss_integrate_exact",
    "gauss_pullback_linear",
    "grid_bracket",
    "gs_decompose",
    "is_symplectic",
    "moyal_construct",
    "moyal_trace",
    "normalization_residual",
    "operator_trace_residual",
    "plateau_generate",
    "poisson_bracket",
    "proportionality_factor",
    "random_equivalence",
    "standardize",
    "star_commutator",
    "star_multiply",
    "symplectic_automorphism_check",
    "symplectic_form_matrix",
    "tapered_generate",
    "trace_eval",
    "trace_residual",
    "transport_euler",
    "transport_star",
    "trk_residual",
]

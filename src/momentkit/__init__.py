"""momentkit: exact-arithmetic verification toolkit for Poisson moment systems.

The package is organized bottom-up:

* :mod:`momentkit.algebra` -- rationals, sparse polynomials, truncated
  t-polynomials, the product kernel, substitution and its inverse, derivations;
* :mod:`momentkit.poisson` -- Poisson structures, Jacobi and conformal
  verification, Hamiltonian fields, pointwise bivector rank;
* :mod:`momentkit.line` -- rank-1 module data in a trivialization, the graded
  total-space bracket, trivialization changes;
* :mod:`momentkit.moment` -- order-n moment systems, gauge twists, the
  trivialization algorithm, total-space rank, conformal extension;
* :mod:`momentkit.modelfile` -- the model-file language;
* :mod:`momentkit.instances` -- seeded instance generation;
* :mod:`momentkit.cli` -- the command-line interface.
"""

from .algebra import (
    Derivation,
    GeneratorMismatch,
    NotAUnit,
    OrderMismatch,
    Poly,
    PolyRing,
    Rat,
    TPoly,
    exact_rank,
    invert_generator_map,
    invert_unit,
)
from .line import LineData, TotElement, default_degree_bound
from .modelfile import ModelError, ModelFile, parse_model, parse_polynomial, parse_tot_expression
from .moment import (
    ConformalExtension,
    GaugeTwist,
    MomentSystem,
    NotConformal,
    TrivializationResult,
)
from .poisson import Point, PoissonStructure
from .reporting import Check, Finding, Report

__all__ = [
    "Check",
    "ConformalExtension",
    "Derivation",
    "Finding",
    "GaugeTwist",
    "GeneratorMismatch",
    "LineData",
    "ModelError",
    "ModelFile",
    "MomentSystem",
    "NotAUnit",
    "NotConformal",
    "OrderMismatch",
    "Point",
    "PoissonStructure",
    "Poly",
    "PolyRing",
    "Rat",
    "Report",
    "TPoly",
    "TotElement",
    "TrivializationResult",
    "default_degree_bound",
    "exact_rank",
    "invert_generator_map",
    "invert_unit",
    "parse_model",
    "parse_polynomial",
    "parse_tot_expression",
]

__version__ = "0.1.0"

"""Exact cohomology and deformation theory of Courant pairs over Q.

A Courant pair is an associative algebra A together with a Leibniz algebra L
acting on A by derivations.  This package builds the mixed cochain bicomplex
of such a pair with exact rational coefficients, computes cohomology in low
degrees, and runs the attached formal deformation theory: validation of
deformation equations order by order, infinitesimals, equivalences,
obstruction cocycles, and order-by-order extension.

Everything is exact — scalars are ``fractions.Fraction`` throughout and no
tolerance appears anywhere.
"""

from .cochains import (Cochain, TotalCochain, circle, gerstenhaber,
                       hochschild_delta, leibniz_delta, module_action,
                       total_delta, vertical_delta)
from .cohomology import (GradedBasisIndex, TotalComplex, cohomology_basis,
                         cohomology_dim, column_delta_matrix, is_coboundary,
                         is_cocycle, row_delta_matrix, total_complex,
                         total_delta_matrix, total_space_dim)
from .deformations import (Deformation, Equivalence, Obstruction,
                           RigidityReport, apply_equivalence,
                           equivalent_infinitesimals_differ_by_coboundary,
                           extend, extend_to, infinitesimal, n_infinitesimal,
                           obstruction, obstruction_is_cocycle,
                           rigidity_probe, structure_terms,
                           validate_deformation)
from .errors import (InputError, InternalError, InvalidDeformation,
                     NoInfinitesimalError, NotComposable, WrongDifferential)
from .structures import (AssocAlgebra, CourantPair, CPModule, Derivation,
                         LawCheck, LeibnizAlgebra, ValidationReport,
                         adjoint_module, commutator_derivations_basis,
                         hemisemidirect, validate_module, validate_pair)

__version__ = "0.1.0"

__all__ = [
    "AssocAlgebra", "LeibnizAlgebra", "Derivation", "CourantPair", "CPModule",
    "LawCheck", "ValidationReport", "validate_pair", "validate_module",
    "adjoint_module", "hemisemidirect", "commutator_derivations_basis",
    "Cochain", "TotalCochain", "hochschild_delta", "vertical_delta",
    "leibniz_delta", "module_action", "total_delta", "circle", "gerstenhaber",
    "GradedBasisIndex", "TotalComplex", "total_complex", "total_space_dim",
    "total_delta_matrix", "cohomology_dim", "cohomology_basis", "is_cocycle",
    "is_coboundary", "row_delta_matrix", "column_delta_matrix",
    "structure_terms", "Deformation", "validate_deformation", "infinitesimal",
    "n_infinitesimal", "Equivalence", "apply_equivalence",
    "equivalent_infinitesimals_differ_by_coboundary", "Obstruction",
    "obstruction", "obstruction_is_cocycle", "extend", "extend_to",
    "RigidityReport", "rigidity_probe",
    "InputError", "WrongDifferential", "NotComposable",
    "NoInfinitesimalError", "InvalidDeformation", "InternalError",
    "__version__",
]

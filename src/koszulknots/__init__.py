"""Koszul-complex model for stable SL(N) torus-knot homology.

Exact homology with integral torsion, closed-form Poincare series with
formal expansion, torsion certificates, and a comparator against
externally computed knot-homology tables.
"""

from .algebra import (CoefficientRing, Degree, Monomial, QQ, StructuralError,
                      SuperPolynomial, ZZ, prime_field)
from .presentations import (HOMFLY, PROJECTOR_SHAPES, Presentation, apply_d,
                            mu, projector_presentation, reduced_presentation,
                            stable_presentation)
from .homology import (HomologyGroup, HomologyTable, NonProperGradingError,
                       Window, basis_at, d_matrix, euler_characteristic_check,
                       homology_at, homology_table, smith_normal_form)
from .series import (Assembly, ExpansionError, LaurentPoly, RationalFunction,
                     SeriesWindow, assemble_torus2, assemble_torus3,
                     exact_divide, expand, formula, identity_check,
                     list_formulas, mod_N_series, normalize_lowest,
                     projector_series, qta, rf_factored, stable_series,
                     stable_series_reduced)
from .certify import (CertificateReport, generator_saturation_check,
                      reduced_factorization_check, torsion_certificate_tp,
                      verify_named_class)
from .interface import (DiffReport, ExternalTable, TableFormatError, compare,
                        parse_table)

__version__ = "0.1.0"

__all__ = [
    "Assembly", "CertificateReport", "CoefficientRing", "Degree",
    "DiffReport", "ExpansionError", "ExternalTable", "HOMFLY",
    "HomologyGroup", "HomologyTable", "LaurentPoly", "Monomial",
    "NonProperGradingError", "PROJECTOR_SHAPES", "Presentation", "QQ",
    "RationalFunction", "SeriesWindow", "StructuralError",
    "SuperPolynomial", "TableFormatError", "Window", "ZZ", "apply_d",
    "assemble_torus2", "assemble_torus3", "basis_at", "compare", "d_matrix",
    "euler_characteristic_check", "exact_divide", "expand", "formula",
    "generator_saturation_check", "homology_at", "homology_table",
    "identity_check", "list_formulas", "mod_N_series", "mu",
    "normalize_lowest", "parse_table", "prime_field",
    "projector_presentation", "projector_series", "qta",
    "reduced_factorization_check", "reduced_presentation", "rf_factored",
    "smith_normal_form", "stable_presentation",
    "stable_series", "stable_series_reduced", "torsion_certificate_tp",
    "verify_named_class",
]

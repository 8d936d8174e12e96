"""Exact SAF invariants of interval exchanges over real algebraic fields,
SAF-vanishing criteria, nonorientable-lift certificates, and the
Arnoux-Yoccoz family."""

__version__ = "0.1.0"

from .arnoux_yoccoz import (
    AYSystem,
    ay_alpha,
    ay_alpha_poly,
    ay_boundary_involution,
    ay_lift,
    ay_perturbed_involution,
    ay_self_similarity_witness,
    ay_stretch_minpoly,
)
from .certificates import (
    CertVerdict,
    VanishingVerdict,
    gf2_completion_bruteforce,
    gf2_completion_exists,
    nonlift_certificate,
    vanishing_by_field_degree,
    vanishing_by_reciprocity,
    vanishing_verdicts,
)
from .errors import (
    DomainError,
    FieldMismatchError,
    InputError,
    IterationCapError,
    NonSquarefreeError,
    ParseError,
    PolynomialError,
    ReducibleModulusError,
)
from .field import AlgNum, NumberField
from .iet import IET, WedgeClass, rotation_conjugacy
from .ietfile import dumps_iet, dumps_report, loads_iet, read_iet
from .polys import (
    Poly,
    certify_irreducible,
    count_real_roots,
    is_reciprocal,
    is_squarefree,
    isolate_real_roots,
    poly_xgcd,
    reverse,
)

__all__ = [
    "AYSystem",
    "AlgNum",
    "CertVerdict",
    "DomainError",
    "FieldMismatchError",
    "IET",
    "InputError",
    "IterationCapError",
    "NonSquarefreeError",
    "NumberField",
    "ParseError",
    "Poly",
    "PolynomialError",
    "ReducibleModulusError",
    "VanishingVerdict",
    "WedgeClass",
    "ay_alpha",
    "ay_alpha_poly",
    "ay_boundary_involution",
    "ay_lift",
    "ay_perturbed_involution",
    "ay_self_similarity_witness",
    "ay_stretch_minpoly",
    "certify_irreducible",
    "count_real_roots",
    "dumps_iet",
    "dumps_report",
    "gf2_completion_bruteforce",
    "gf2_completion_exists",
    "is_reciprocal",
    "is_squarefree",
    "isolate_real_roots",
    "loads_iet",
    "nonlift_certificate",
    "poly_xgcd",
    "read_iet",
    "reverse",
    "rotation_conjugacy",
    "vanishing_by_field_degree",
    "vanishing_by_reciprocity",
    "vanishing_verdicts",
]

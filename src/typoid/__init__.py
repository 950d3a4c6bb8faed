"""Finite two-level equivalence structures and their checkers."""

from .model import (
    Budget,
    CellPartition,
    EquivalenceLayer,
    FiniteGroupoid,
    ResourceLimitError,
    Typoid,
    ValidationReport,
    Violation,
    validate_groupoid,
    validate_typoid,
)
from .morphisms import (
    TypoidMorphism,
    compose_morphisms,
    find_path_functor,
    iter_path_functors,
    validate_morphism,
)
from .univalence import (
    NotUnivalent,
    NotUnivalentError,
    PointedFactorReport,
    UnivalenceCertificate,
    check_pointed_factors,
    check_square,
    check_univalence,
    induce_morphism,
    verify_certificate,
)
from .constructions import (
    ExponentialLimits,
    ExponentialProvenance,
    ProductProvenance,
    codiscrete_groupoid,
    cyclic_groupoid,
    discrete_groupoid,
    equality_typoid,
    exponential_typoid,
    identity_from_equality,
    is_prop,
    morphism_into_truncation,
    pairing,
    product_typoid,
    projections,
    singleton_homs,
    truncate,
    twoedge_typoid,
    unit_typoid,
    univalent_completion,
    universe_typoid,
)

__version__ = "0.1.0"

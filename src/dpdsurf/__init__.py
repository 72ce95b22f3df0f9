"""Exact-arithmetic classification of normal affine surfaces carrying a
C*-action and a C+-action, from their divisor presentation data."""

from .divisor import (
    AffineMap,
    Anchored,
    DivisorPair,
    QDivisor,
    affine_equivalent,
    anchored,
    denom_index,
    normalize_pair,
    shift_equivalent,
)
from .element import GradedElement, parse_element, parse_poly, render_element
from .dpdring import (
    Elliptic,
    Hyperbolic,
    Parabolic,
    Presentation,
    SurfaceSpec,
    contains,
    from_equation,
    graded_generator,
    presentation,
)
from .exactmath import (
    Poly,
    Rat,
    RatFunc,
    mod_inverse,
    rational_linear_factorization,
)
from .classify import (
    ClassificationReport,
    classify,
    fiber_structure,
)
from .catalog import CatalogEntry, catalog_surface
from .lnd import (
    DegreeSet,
    EllipticToricLnd,
    FiberLnd,
    HorizontalLnd,
    admissible_degrees,
    apply,
    build_horizontal,
    conjugate_kernel,
    elliptic_lnd,
    fiber_lnd,
    kernel_generator,
    positive_lnd_exists,
    stabilization_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

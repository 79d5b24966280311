"""Hyperbolic half-plane isometries, the universal cover of SL(2,R), and
Toledo invariants of surface-group representations."""

from .halfplane import (
    Classification,
    DegenerateDenominator,
    HPoint,
    IsometryClass,
    Mat2,
    NonPositiveScale,
    classify,
    classify_detailed,
    frobenius_distance,
    hyp_distance,
    j_cocycle,
    mobius_act,
    rotation,
    scaling,
)
from .cover import (
    CoverElement,
    KernelValue,
    NotInKernel,
    cover_inv,
    cover_mul,
    kernel_value,
    lift,
    phi_at,
)
from .reps import (
    NonIntegral,
    RelationViolated,
    Representation,
    ToledoResult,
    goldman_fuchsian_test,
    reflect_conjugate,
    relation_product,
    relation_residual,
    toledo,
)
from .polygons import (
    GenusTooSmall,
    HyperbolicPolygon,
    PairingFailed,
    interior_angles,
    polygon_area,
    regular_polygon,
    side_pairings,
)
from .euclidean import LatticeGroup, reduce_point
from .repfile import format_rep, parse_rep, read_rep_file, write_rep_file

__version__ = "0.1.0"

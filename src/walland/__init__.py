"""Exact wall-and-chamber computations for Bridgeland-type stability
families on polarized surfaces, plus graded traces on matrix complexes.

Everything numeric is exact (rationals and single quadratic extensions);
floats appear only in display fields.
"""

from .errors import (
    CertificateFailure,
    DegenerateGeometryError,
    DimensionMismatch,
    InvariantError,
    MixedRadicalError,
    NotInHeartError,
    PreconditionError,
    SchemaError,
    WallandError,
    ZeroChargeError,
)
from .lattice import (
    CharVec,
    DivisorClass,
    SurfaceLattice,
    VTilde,
    derived_dual,
    discriminant,
    euler_pairing,
    tensor_by_K,
    twist_char,
    untwist_char,
    vtilde,
)
from .plane import PlaneLine, PlanePoint, QuadNum, line_parabola_intersect
from .stability import (
    ChargeValue,
    HeartPosition,
    LiftedPhase,
    PhaseValue,
    StabPoint,
    canonical_ray,
    central_charge,
    heart_sign_check,
    phase,
    phase_compare,
    segment_point,
    theta_compare,
    wall_of,
    walls_disjoint_above_parabola,
)
from .traces import (
    CohomologyGroup,
    HomCochain,
    Mat,
    MatrixComplex,
    cohomology,
    compose,
    hom_differential,
    random_cochain,
    random_coboundary,
    random_complex,
    supertrace,
    theta_pairing,
)
from .walls import (
    BoxRegion,
    CandidateWall,
    EnumerationBounds,
    Ext2Certificate,
    PathEvent,
    PathNode,
    PhaseInterval,
    SegmentRegion,
    collect_leaves,
    dual_reduce,
    enumerate_candidate_walls,
    expected_moduli_dim,
    ext2_vanishing_certificate,
    phase_bound_interval,
    simulate_destabilization_paths,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact computations in the flip-graphs of convex polygons: enumeration,
flip distances, eccentricities, and the constructive witnesses behind the
comb-gap eccentricity bounds.
"""

from .core import (
    BudgetExceededError,
    CrossingError,
    EmptyWitnessSetError,
    InvalidEdgeError,
    InvalidFlipError,
    MaximalityError,
    NoShellingError,
    Polygon,
    PolygonTooSmallError,
    PreconditionError,
    Triangulation,
    TriangulationError,
    crossing,
    edge,
    parse_diagonals,
    validate_triangulation,
)
from .flips import (
    DEFAULT_NODE_BUDGET,
    FlipGraphSlice,
    FlipMove,
    build_slice,
    catalan,
    enumerate_all,
    flip,
    flip_incident_to,
    max_degrees,
    neighbors,
    node_budget,
    orbit_representatives,
)
from .metrics import (
    DistanceResult,
    EccentricityResult,
    bfs_distances,
    diameter_radius,
    distance_matrix,
    distance_upper_bound,
    eccentricities,
    eccentricity,
    farthest,
    flip_distance,
)
from .constructions import (
    CentralTriangle,
    OmegaCertificate,
    Shelling,
    central_triangle,
    comb,
    complete_min_shared,
    eccentric_family,
    fan,
    far_witness_long,
    far_witness_short,
    find_shelling,
    omega_member,
    omega_tilde_member,
    omega_witness,
    split_point,
    validate_shelling,
    zigzag,
)
from .verify import (
    CLAIMS,
    VerificationReport,
    run_all,
    run_claim,
    verify_characterization,
    verify_close,
    verify_deletion_lemmas,
    verify_far,
    verify_omega,
    verify_remark_family,
)

__version__ = "1.0.0"

"""Decorated 1-3 type hyperbolic tetrahedra and triangulated complexes.

Single-tetrahedron geometry (angles, decorated lengths, degeneration
regions, volume, co-volume), closed triangulations glued from such cells,
the angle-assignment polytope for prescribed cone angles, and the
volume-maximization / co-volume-minimization pair with numerical rigidity
verification.
"""

from .errors import (
    AmbiguousClassification,
    BadPermutation,
    BoundaryGradient,
    GluingError,
    HyptetError,
    InadmissibleTarget,
    IndexOutOfRange,
    InvalidAngles,
    InvalidDocument,
    LpFailure,
    MaxIterations,
    NoInteriorStart,
    NotHyperbolic,
    NotInterior,
    NotInteriorAngle,
    OutOfFace,
    SingularArgument,
    TypeViolation,
    UnpairedFace,
)
from .lobachevsky import lobachevsky, lobachevsky_derivative, lobachevsky_reference
from .tetra import (
    AngleRegionLabel,
    DecoratedLengths,
    DihedralAngles,
    RegionLabel,
    ThetaTable,
    angles_to_lengths,
    apply_decoration,
    boundary_face_hessian,
    classify,
    classify_angles,
    covolume,
    covolume_gradient,
    covolume_hessian,
    extended_angles,
    hyperbolic_triangle_sides,
    phi,
    theta_table,
    volume_from_angles,
    volume_gradient,
)
from .triangulation import (
    AngleAssignment,
    ConeTarget,
    GeneralizedMetric,
    Triangulation,
    assignment_from_metric,
    cone_angles,
    curvature,
    double_document,
    doubled_fixture,
    gauge_project,
    triangulation_document,
    validate,
)
from .structures import (
    FeasibilityReport,
    FeasibilityStatus,
    Membership,
    assemble,
    find_interior,
    is_member,
)
from .optimize import (
    DualReport,
    GapReport,
    PrimalReport,
    RigidityReport,
    duality_gap,
    maximize_volume,
    rigidity_check,
    solve_cone_angles,
)

__version__ = "0.1.0"

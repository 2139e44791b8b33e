"""Geometry of one decorated tetrahedron with a truncated apex and three cusps.

Vertex 1 is the truncated (hyperideal) vertex, vertices 2, 3, 4 are cusped
(ideal) and carry horosphere decorations.  All six-vectors use the fixed
slot order (12, 13, 14, 23, 24, 34): dihedral angles ``a12..a34`` in
radians, signed decorated lengths ``l12..l34`` in curvature -1 units.

The central objects:

* ``PAIRS`` -- the cell's one incidence table: slot j is the edge joining
  the vertices ``PAIRS[j]``.  ``SLOTS``, ``GAUGE_VECTORS`` (a cusped
  vertex's horosphere moves the three slots that end there), the cusp slots
  and ``triangulation``'s face and pair-to-slot tables all derive from it;
* ``phi`` -- closed-form extension of ``cos(angle)`` to every real length
  vector, invariant under the horosphere rescaling (decoration) action;
* ``classify`` -- partition of length space into the realizable region,
  three degenerate regions where the vertex-triangle inequality fails,
  and their separating walls;
* ``extended_angles`` -- clamped-arccos extension of the dihedral angles,
  constant on each degenerate region;
* ``volume_from_angles`` / ``covolume`` -- the concave volume and its
  convex Legendre-type partner ``2*vol + <angles, lengths>``, which is C^1
  on all of R^6 with gradient equal to the extended angles;
* ``SLOT_COEF`` / ``SLOT_CONST`` -- the cusp-sum chart: every slot angle is
  affine in the three apex-slot angles (a12, a13, a14).  It lives in
  ``_kernels.VOLUME_CHART`` with the volume formula; ``FLAT_PATTERNS`` and
  ``CELL_VERTICES`` (the closed angle polytope's vertices) follow from it.
  ``_slot_angles`` maps a free vector of 3n apex angles to its (n, 6) slot
  angles and ``_cell_slacks`` to the polytope's inequality slacks, so the
  angle polytope of a cone target ``k`` is ``T.a_eq u = assemble(T, k)``
  with ``_cell_slacks(u) >= 0``;
* ``_judge_cells`` -- the one test of slot-angle rows against a cell's
  closed angle polytope (angles in [0, pi], apex sum at most pi, cusp sums
  pi) and its open interior; ``classify_angles``, ``volume_from_angles``,
  ``angles_to_lengths``, ``volume_gradient`` and ``is_member`` read it;
* ``_volume_hessian`` / ``_covolume_block`` -- the closed-form volume
  Hessian ``H`` in the chart and, through the Schlaefli identity, the
  co-volume Hessian's chart block ``(-2 H)^-1``, batched over cells for
  ``T.factor``; ``_covolume_hessian`` is ``C (-2 H)^-1 C^T``;
* ``_vertex_lengths`` -- the vertex triangle's formula, the half-side law;
  ``angles_to_lengths`` and ``hyperbolic_triangle_sides`` read it.
"""

import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import VOLUME_CHART
from .errors import (
    AmbiguousClassification,
    BoundaryGradient,
    InvalidAngles,
    NotHyperbolic,
    NotInterior,
    NotInteriorAngle,
    OutOfFace,
)

PI = math.pi

#: the cell's incidence: slot j is the edge joining the vertices PAIRS[j]
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
SLOTS = tuple(f"{p}{q}" for p, q in PAIRS)
#: gauge directions of the decoration action, (3, 6): cusped vertex 2, 3 or
#: 4 moves the three length slots that end there
GAUGE_VECTORS = np.array(
    [[v in pair for pair in PAIRS] for v in (2, 3, 4)], dtype=np.float64
)

#: slot angles as affine functions of (a12, a13, a14): coefficients and offsets
SLOT_COEF = VOLUME_CHART[1:]
SLOT_CONST = np.array([0.0, 0.0, 0.0, PI / 2.0, PI / 2.0, PI / 2.0])

#: the three flat-collapse angle patterns (closure corner points), and the
#: vertices of a cell's closed angle polytope (u >= 0, sum u <= pi), (6, 4)
FLAT_PATTERNS = np.ascontiguousarray(SLOT_CONST + PI * SLOT_COEF.T)
CELL_VERTICES = np.vstack([SLOT_CONST, FLAT_PATTERNS]).T
#: the three slots at each cusped vertex 2, 3, 4
_CUSP_SLOTS = np.nonzero(GAUGE_VECTORS)[1].reshape(3, 3)


def _slot_angles(u):
    """Slot angles (n, 6) of a free vector ``u`` (3n,) in the chart."""
    U = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    return U @ SLOT_COEF.T + SLOT_CONST


def _cell_slacks(u):
    """The angle polytope's inequality slacks at a free vector ``u`` (3n,):
    the 3n free angles, then the n apex slacks ``pi - sum_tet u``."""
    U = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    return np.concatenate([U.ravel(), PI - U.sum(axis=1)])


#: outer products c_k c_k^T of the volume chart rows, flattened to (7, 9)
_CHART_OUTER = np.einsum("kp,kq->kpq", VOLUME_CHART, VOLUME_CHART).reshape(7, 9)


class DihedralAngles(NamedTuple):
    a12: float
    a13: float
    a14: float
    a23: float
    a24: float
    a34: float


class DecoratedLengths(NamedTuple):
    l12: float
    l13: float
    l14: float
    l23: float
    l24: float
    l34: float


class ThetaTable(NamedTuple):
    """Derived two-dimensional section lengths, all strictly positive.

    ``t1_jk``: hyperbolic side lengths of the vertex triangle at the
    truncated vertex.  ``ti_1j``/``ti_jk``: Euclidean side lengths of the
    horosphere-section triangle at cusped vertex i.
    """

    t1_23: float
    t1_24: float
    t1_34: float
    t2_13: float
    t2_14: float
    t3_12: float
    t3_14: float
    t4_12: float
    t4_13: float
    t2_34: float
    t3_24: float
    t4_23: float


class RegionLabel(Enum):
    INTERIOR = "InteriorL"
    OMEGA1 = "Omega1"
    OMEGA2 = "Omega2"
    OMEGA3 = "Omega3"
    X1 = "X1"
    X2 = "X2"
    X3 = "X3"


_REGIONS = tuple(RegionLabel)  # INTERIOR, OMEGA1..3, X1..3


class AngleRegionLabel(Enum):
    B = "B"
    B_I_BOUNDARY = "B_I_boundary"
    B_II = "B_II"
    B_III = "B_III"
    OUTSIDE = "Outside"


def _row(x, name):
    """``x`` as one finite row of six, shape (1, 6), as the batch code reads it."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.shape != (6,):
        raise ValueError(f"{name} must have six entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr.reshape(1, 6)


def _check_band(tol):
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")


def phi(lengths):
    """Cosine-extension values for all six slots, as a (6,) array."""
    return _kernels.phi_batch(_row(lengths, "lengths"))[0]


def theta_table(lengths):
    """Vertex-triangle and horosphere-section lengths for any length vector."""
    return ThetaTable(*_kernels.theta_batch(_row(lengths, "lengths"))[0].tolist())


def classify(lengths, tol=1e-9):
    """Locate a length vector in the realizable-region decomposition.

    Interior, one of the three degenerate regions (vertex-triangle
    inequality failed), or one of the separating walls: exactly one must
    hold within the tolerance band ``tol``, else AmbiguousClassification.
    """
    _check_band(tol)
    p = phi(lengths).tolist()
    lo, hi = -1.0 - tol, -1.0 + tol
    # one flag per label of _REGIONS: INTERIOR by all six, the others by apex
    hits = [all(hi < x < 1.0 - tol for x in p), *(x <= lo for x in p[:3]),
            *(lo < x <= hi for x in p[:3])]
    if hits.count(True) != 1:
        raise AmbiguousClassification(f"inconsistent region pattern {p} at tol={tol}")
    return _REGIONS[hits.index(True)]


def extended_angles(lengths):
    """Dihedral angles extended to all of length space by clamping.

    arccos of the cosine extension clipped to [-1, 1]; on each degenerate
    region the result is exactly the corresponding flat pattern.
    """
    row = _kernels.extended_angles_batch(_row(lengths, "lengths"))[0]
    return DihedralAngles(*row.tolist())


def apply_decoration(lengths, w):
    """Shift the horosphere at each cusped vertex; angles are unchanged."""
    arr = _row(lengths, "lengths")[0]
    shift = np.asarray(w, dtype=np.float64).reshape(-1)
    if shift.shape != (3,):
        raise ValueError("decoration must have three entries (w2, w3, w4)")
    if not np.all(np.isfinite(shift)):
        raise ValueError("decoration must be finite")
    out = arr + shift @ GAUGE_VECTORS
    return DecoratedLengths(*out.tolist())


def _near_flat(A, tol):
    """Per row, whether the slot angles lie within ``tol`` of a flat
    pattern in max norm, (...,) bool."""
    return np.abs(A[..., None, :] - FLAT_PATTERNS).max(axis=-1).min(axis=-1) <= tol


_Cells = namedtuple("_Cells", "range apex cusp angle_wall apex_wall apex_sums cusp_sums")


def _judge_cells(A, tol, wall=None):
    """The cell conditions of slot-angle rows ``A`` (n, 6), tested at once.

    The closed angle polytope, widened by ``tol``: ``range`` (n, 6) marks
    the angles outside [-tol, pi + tol], ``apex`` (n,) an apex sum above
    pi + tol, ``cusp`` (n, 3) a cusp sum off pi by more than ``tol``.  Its
    interior, narrowed by ``wall`` (default ``tol``): ``angle_wall`` (n, 6)
    marks the angles not in (wall, pi - wall), ``apex_wall`` (n,) an apex
    sum within ``wall`` of pi or above.  ``apex_sums`` (n,) and
    ``cusp_sums`` (n, 3), at the cusped vertices 2, 3, 4, are the sums.  A
    row with a NaN or infinite angle fails ``range`` and ``angle_wall``
    only: its sums are NaN, so no sum over it warns.
    """
    wall = tol if wall is None else wall
    if not np.isfinite(A).all():
        A = np.where(np.isfinite(A).all(axis=1, keepdims=True), A, np.nan)
    apex = A[:, 0] + A[:, 1] + A[:, 2]
    at_cusps = A[:, _CUSP_SLOTS]
    cusp = at_cusps[..., 0] + at_cusps[..., 1] + at_cusps[..., 2]
    return _Cells(
        ~((A >= -tol) & (A <= PI + tol)), apex > PI + tol, np.abs(cusp - PI) > tol,
        ~((A > wall) & (A < PI - wall)), PI - apex <= wall, apex, cusp,
    )


def classify_angles(alpha, tol=1e-9):
    """Place an angle vector in the closed angle polytope decomposition."""
    _check_band(tol)
    a = _row(alpha, "alpha")
    cell = _judge_cells(a, tol)
    if cell.range.any() or cell.apex.any() or cell.cusp.any():
        return AngleRegionLabel.OUTSIDE
    if cell.apex_wall.any():
        return AngleRegionLabel.B_II if _near_flat(a, tol)[0] else AngleRegionLabel.B_III
    if cell.angle_wall.any():
        return AngleRegionLabel.B_I_BOUNDARY
    return AngleRegionLabel.B


def _vertex_lengths(angles):
    """``ln sinh^2(t/2)`` of the side t opposite each of a hyperbolic triangle's
    ``angles``, by the half-side law sinh^2(t_A/2) = sin(d/2) sin(d/2 + A) /
    (sin B sin C), d = pi - A - B - C summed exactly with pi = PI + sin(PI);
    sin(d/2 + A) = sin(d/2 + B + C) is taken at the smaller argument, at most
    pi/2.  Every factor keeps its relative accuracy in logarithms."""
    h = 0.5 * math.fsum((PI, math.sin(PI), -angles[0], -angles[1], -angles[2]))
    ln_sin = [math.log(math.sin(x)) for x in (*angles, h)]
    return [
        ln_sin[3] + math.log(math.sin(h + min(angles[i], angles[j] + angles[k])))
        - ln_sin[j] - ln_sin[k]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]


def _require_open_cell(a):
    """Raise NotInteriorAngle unless ``a`` lies in the open angle polytope:
    angles in (0, pi), apex sum below pi, cusp sums pi within 1e-9."""
    cell = _judge_cells(a, 1e-9, wall=0.0)
    if cell.angle_wall.any():
        raise NotInteriorAngle("all six angles must lie strictly in (0, pi)")
    if cell.apex_wall.any():
        raise NotInteriorAngle("apex angle sum must be strictly below pi")
    if cell.cusp.any():
        raise NotInteriorAngle("cusp angle sums must equal pi within 1e-9")


def angles_to_lengths(alpha):
    """Canonical decorated lengths of an interior angle vector.

    Uses the gauge with the three apex-slot lengths set to zero; inverse of
    ``extended_angles`` on the interior, up to that normalization.
    """
    a = _row(alpha, "alpha")
    _require_open_cell(a)
    # the vertex triangle's sides, opposite a12, a13, a14, are l34, l24, l23
    l34, l24, l23 = _vertex_lengths(a[0, :3].tolist())
    return DecoratedLengths(0.0, 0.0, 0.0, l23, l24, l34)


def volume_from_angles(alpha):
    """Hyperbolic volume of the tetrahedron with the given slot angles.

    Defined and continuous on the closed angle polytope; zero exactly at
    the flat patterns.  Raises InvalidAngles outside the polytope
    (tolerance 1e-9 on the linear relations).
    """
    a = _row(alpha, "alpha")
    cell = _judge_cells(a, 1e-9)
    if cell.range.any():
        raise InvalidAngles("entries outside [0, pi]")
    if cell.apex.any():
        raise InvalidAngles("apex angle sum exceeds pi")
    if cell.cusp.any():
        raise InvalidAngles("cusp angle sums differ from pi")
    v = 0.5 * float(_kernels.volume2_batch(a)[0])
    return v if v > 0.0 else 0.0


def volume_gradient(alpha):
    """d(vol)/d(a12, a13, a14), dependent slots eliminated, as a (3,) array.

    Raises BoundaryGradient when any log-derivative argument is within
    1e-9 of a multiple of pi (the gradient diverges there).
    """
    a = _row(alpha, "alpha")
    _require_open_cell(a)
    args = _kernels.volume_args(a)
    dist = np.abs(args - PI * np.round(args / PI))
    if np.any(dist <= 1e-9):
        raise BoundaryGradient(
            "a log-derivative argument is within 1e-9 of a multiple of pi"
        )
    return _kernels.volume_gradient_batch(a)[0]


def covolume(lengths):
    """Convex potential 2*vol(angles(l)) + <angles(l), l>, total on R^6.

    C^1 everywhere with gradient equal to ``extended_angles``; linear with
    slope pi along the two surviving slots on each degenerate region.
    """
    return float(_kernels.covolume_batch(_row(lengths, "lengths"))[0])


def covolume_gradient(lengths):
    """Gradient of ``covolume``: exactly the extended angles, as (6,)."""
    return _kernels.extended_angles_batch(_row(lengths, "lengths"))[0]


def covolume_hessian(lengths):
    """Hessian of ``covolume``, the closed form ``_covolume_hessian``.

    Positive semidefinite with rank 3; the gauge directions span the
    kernel.  Only defined at interior points.
    """
    arr = _row(lengths, "lengths")
    if classify(arr) is not RegionLabel.INTERIOR:
        raise NotInterior("Hessian requested at a non-interior length vector")
    return _covolume_hessian(_kernels.extended_angles_batch(arr))[0]


def _volume_hessian(angles):
    """Hessian of the volume in the free chart (a12, a13, a14), (n, 3, 3).

    Twice the volume is the Lobachevsky sum over the seven arguments
    ``c_k . u + const`` of ``_kernels.volume_args`` (``c_k`` the rows of
    ``VOLUME_CHART``); since its second derivative is ``-cot``,
    ``H = -1/2 sum_k cot(arg_k) c_k c_k^T``.
    """
    H = (1.0 / np.tan(_kernels.volume_args(angles))) @ _CHART_OUTER
    return -0.5 * H.reshape(-1, 3, 3)


def _covolume_hessian(angles):
    """``_covolume_block`` in slot coordinates, ``C X C^T``, (n, 6, 6)."""
    return SLOT_COEF @ _covolume_block(angles) @ SLOT_COEF.T


def _covolume_block(angles):
    """Co-volume chart blocks ``(-2 H)^-1`` at extended angles, (n, 3, 3).

    Schlaefli gives ``d(2 vol)/du = -C^T l`` (``C = SLOT_COEF``,
    ``H = _volume_hessian``).  ``(-2 H)^-1`` is the top-left 3x3 of
    ``[[M, 1], [1^T, -4 tan(g)]]^-1``, ``M`` the slot rows of ``_CHART_OUTER``
    weighted by ``cot(a_j)``, ``g`` the half apex gap; finite when the apex
    sum rounds to pi.  A cell with an angle clamped to 0 or pi is locally
    constant, so its block is 0.
    """
    clamped = np.any((angles == 0.0) | (angles == PI), axis=1)
    args = _kernels.volume_args(np.where(clamped[:, None], PI / 4.0, angles))
    K = np.ones((args.shape[0], 4, 4))
    # each product with _CHART_OUTER (entries 0, 1/4, 1) is exact and einsum
    # adds them slot by slot, so a row gets the same bits in any batch; a
    # BLAS product rounds one row (gemv) differently from a batch (gemm)
    M = np.einsum("tj,jk->tk", 1.0 / np.tan(args[:, 1:]), _CHART_OUTER[1:])
    K[:, :3, :3] = M.reshape(-1, 3, 3)
    K[:, 3, 3] = -4.0 * np.tan(args[:, 0])
    inv = np.linalg.inv(K)[:, :3, :3]
    inv[clamped] = 0.0
    return inv


def boundary_face_hessian(a13, a14):
    """Closed-form Hessian of twice the volume on the a12 = 0 face.

    On that face the volume depends on (a13, a14) alone; the Hessian is
    negative definite with determinant (1 + t*t')^2 / (4*t*t') for
    t = tan(a13/2), t' = tan(a14/2).
    """
    a13 = float(a13)
    a14 = float(a14)
    if not (0.0 < a13 < PI and 0.0 < a14 < PI and a13 + a14 < PI):
        raise OutOfFace("need a13, a14 in (0, pi) with a13 + a14 < pi")
    t = math.tan((a13 + a14) / 2.0)
    return -0.5 * np.array(
        [
            [2.0 / math.tan(a13) + t, t],
            [t, 2.0 / math.tan(a14) + t],
        ]
    )


def hyperbolic_triangle_sides(A, B, C):
    """Side lengths (a, b, c) of the hyperbolic triangle with angles (A, B, C):
    the half-side law ``_vertex_lengths`` read by ``_kernels.vertex_sides``.
    Requires finite positive angles with sum strictly below pi."""
    ang = np.array([float(A), float(B), float(C)])
    if not np.all(np.isfinite(ang)):
        raise ValueError("angles must be finite")
    if np.any(ang <= 0.0):
        raise ValueError("angles must be positive")
    if ang.sum() >= PI:
        raise NotHyperbolic("angle sum must be strictly below pi")
    return tuple(_kernels.vertex_sides(np.array(_vertex_lengths(ang.tolist()))).tolist())

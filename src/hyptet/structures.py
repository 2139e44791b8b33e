"""The angle-assignment polytope for a prescribed cone target, as an LP.

Per tetrahedron only the three apex-slot angles (a12, a13, a14) are free:
the cusp-sum relations force

    a23 = pi/2 - (a12 + a13 - a14)/2   (and cyclic),

so every slot angle is affine in the free vector ``u``.  With ``u >= 0``
and the per-tetrahedron sum at most pi, all six slot angles automatically
land in [0, pi].  Edge equations "slot angles over a class sum to k(e)"
become affine equalities in ``u``.

``find_interior`` solves the max-min-slack LP (a Chebyshev-style interior
point); verdicts about found witnesses are certified by direct
substitution, independent of the LP solver.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InadmissibleTarget, LpFailure
from .triangulation import (
    AngleAssignment,
    ConeTarget,
    admissible_cone_values,
    cone_angles,
)

PI = math.pi

#: slot angles as affine functions of (a12, a13, a14): coefficients and offsets
SLOT_COEF = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-0.5, -0.5, 0.5],
        [-0.5, 0.5, -0.5],
        [0.5, -0.5, -0.5],
    ]
)
SLOT_CONST = np.array([0.0, 0.0, 0.0, PI / 2.0, PI / 2.0, PI / 2.0])


class Membership(Enum):
    INTERIOR = "InteriorD_k"
    BOUNDARY = "BoundaryD_kStar"
    OUTSIDE = "Outside"


class FeasibilityStatus(Enum):
    INTERIOR_FOUND = "InteriorFound"
    BOUNDARY_ONLY = "BoundaryOnly"
    INFEASIBLE = "Infeasible"


@dataclass
class FeasibilityReport:
    status: FeasibilityStatus
    witness: AngleAssignment | None
    min_slack: float

    def to_json(self):
        return {
            "status": self.status.value,
            "witness": None if self.witness is None else self.witness.to_json(),
            "min_slack": self.min_slack,
        }


@dataclass
class ConstraintSystem:
    """Affine encoding of the assignment polytope in the free variables."""

    triangulation: object
    cone: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray

    @property
    def n_tetrahedra(self):
        return self.triangulation.n_tetrahedra

    @property
    def n_free(self):
        return 3 * self.n_tetrahedra

    def expand(self, u):
        """Slot angles (n, 6) of a free vector u (3n,)."""
        U = np.asarray(u, dtype=np.float64).reshape(self.n_tetrahedra, 3)
        return AngleAssignment(U @ SLOT_COEF.T + SLOT_CONST)

    def constraint_values(self, u):
        """All inequality slacks: the 3n bounds, then the n sum slacks."""
        U = np.asarray(u, dtype=np.float64).reshape(self.n_tetrahedra, 3)
        return np.concatenate([U.ravel(), PI - U.sum(axis=1)])


def assemble(T, k, tol=1e-9):
    """Build the equality system for cone target ``k`` on ``T``.

    ``a_eq`` is sparse (E, 3n): row ``e`` sums the slot coefficient rows of
    every slot in edge class ``e``.  Raises InadmissibleTarget when the
    per-cusp counting identity fails, which makes the equality system
    provably inconsistent.
    """
    k_vals = admissible_cone_values(T, k, tol)
    n = T.n_tetrahedra
    E = T.n_edge_classes
    rows = np.repeat(T.slot_class, 3, axis=1)
    cols = np.tile(3 * np.arange(n)[:, None] + np.arange(3), (1, 6))
    coef = np.broadcast_to(SLOT_COEF.ravel(), rows.shape)
    a_eq = sparse.csr_matrix(
        (coef.ravel(), (rows.ravel(), cols.ravel())), shape=(E, 3 * n)
    )
    a_eq.eliminate_zeros()
    consts = np.bincount(
        T.slot_class.ravel(), weights=np.tile(SLOT_CONST, n), minlength=E
    )
    return ConstraintSystem(T, k_vals, a_eq, k_vals - consts)


def is_member(T, assignment, k, tol=1e-9):
    """Verdict for an assignment against the polytope for target ``k``.

    Returns ``(Membership, violations)`` where violations lists every
    failed check.  Interior requires strict slack beyond ``tol`` in all
    inequality constraints.  Raises ValueError when ``k`` does not have one
    value per edge class.
    """
    A = assignment.values if isinstance(assignment, AngleAssignment) else None
    if A is None:
        A = np.asarray(assignment, dtype=np.float64)
    k_vals = k.values if isinstance(k, ConeTarget) else np.asarray(k, dtype=np.float64)
    cone = cone_angles(T, A).values
    if k_vals.shape != cone.shape:
        raise ValueError("cone target length does not match edge classes")
    violations = [
        f"edge {T.edge_keys[e]}: cone angle {cone[e]:.12g} != {k_vals[e]:.12g}"
        for e in np.flatnonzero(np.abs(cone - k_vals) > tol)
    ]
    sums = np.stack(
        [
            A[:, 0] + A[:, 3] + A[:, 4],
            A[:, 1] + A[:, 3] + A[:, 5],
            A[:, 2] + A[:, 4] + A[:, 5],
        ],
        axis=1,
    )
    apex = A[:, 0] + A[:, 1] + A[:, 2]
    bad_sum = np.abs(sums - PI) > tol
    bad_apex = apex > PI + tol
    # messages only for failing tetrahedra, in tetrahedron order
    for t in np.flatnonzero(bad_sum.any(axis=1) | bad_apex):
        for j in np.flatnonzero(bad_sum[t]):
            violations.append(
                f"tet {t}: cusp {j + 2} angle sum {sums[t, j]:.12g} != pi"
            )
        if bad_apex[t]:
            violations.append(f"tet {t}: apex angle sum {apex[t]:.12g} > pi")
    if np.any(A < -tol) or np.any(A > PI + tol):
        violations.append("slot angles leave [0, pi]")
    if violations:
        return Membership.OUTSIDE, violations

    apex_slack = PI - apex
    if np.all(A > tol) and np.all(apex_slack > tol):
        return Membership.INTERIOR, []
    return Membership.BOUNDARY, []


def find_interior(T, k, tol=1e-7):
    """Max-min-slack LP over the assignment polytope, with certification.

    InteriorFound verdicts carry a witness that is re-verified by
    substitution at tol/10; a mismatch raises LpFailure rather than
    returning a wrong verdict.  An inadmissible target is provably
    infeasible and reported as such.
    """
    try:
        cs = assemble(T, k)
    except InadmissibleTarget:
        return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, -np.inf)

    n = T.n_tetrahedra
    nf = cs.n_free
    # variables z = (u, t); maximize t
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    a = cs.a_eq
    a_eq = sparse.csr_matrix((a.data, a.indices, a.indptr), shape=(a.shape[0], nf + 1))
    # rows: t - u_i <= 0 for each free angle, then sum_tet u + t <= pi
    i = np.arange(nf)
    rows = np.concatenate([i, i, nf + i // 3, nf + np.arange(n)])
    cols = np.concatenate([i, np.full(nf, nf), i, np.full(n, nf)])
    vals = np.concatenate([-np.ones(nf), np.ones(2 * nf + n)])
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(nf + n, nf + 1))
    b_ub = np.concatenate([np.zeros(nf), np.full(n, PI)])
    bounds = [(-4.0 * PI, 4.0 * PI)] * nf + [(-4.0 * PI, PI)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=cs.b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, -np.inf)
    if res.status != 0:
        raise LpFailure(f"LP solver failed: {res.message}")

    t_star = float(res.x[-1])
    witness = cs.expand(res.x[:-1])
    # report the slack the witness actually achieves, not the LP's claim
    slack = float(np.min(cs.constraint_values(res.x[:-1])))
    if t_star > tol:
        verdict, violations = is_member(T, witness, k, tol=tol / 10.0)
        if verdict is not Membership.INTERIOR:
            raise LpFailure(
                "LP claimed an interior point but substitution disagrees: "
                + "; ".join(violations[:4])
            )
        return FeasibilityReport(FeasibilityStatus.INTERIOR_FOUND, witness, slack)
    if t_star >= -tol:
        return FeasibilityReport(FeasibilityStatus.BOUNDARY_ONLY, witness, slack)
    return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, t_star)

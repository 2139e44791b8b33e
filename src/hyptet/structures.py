"""The angle-assignment polytope for a prescribed cone target, as an LP.

Per tetrahedron only the three apex-slot angles (a12, a13, a14) are free:
the cusp-sum relations force

    a23 = pi/2 - (a12 + a13 - a14)/2   (and cyclic),

so every slot angle is affine in the free vector ``u`` (the chart
``SLOT_COEF`` / ``SLOT_CONST`` and its maps ``_slot_angles`` and
``_cell_slacks``, defined in ``tetra`` with the rest of the cell's math).
With ``u >= 0`` and the per-tetrahedron sum at most pi, all six slot angles
automatically land in [0, pi].  Edge equations "slot angles over a class
sum to k(e)" become ``T.a_eq u = b_eq``: the matrix is the triangulation's,
built once, and ``assemble(T, k)`` gives ``b_eq``, the only part that reads
the target.

``find_interior`` solves the max-min-slack LP (a Chebyshev-style interior
point) "maximize t subject to u >= t, pi - sum_tet u >= t and the edge
equations", written in the slack variables ``u = s + t 1``: the bounds on
``u`` become ``s >= 0``, and only the n per-tetrahedron sums stay as
inequality rows; ``t`` is free, as the apex rows bound it by pi/4.  Found
witnesses are certified by direct substitution, independent of the LP solver.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .errors import InadmissibleTarget, LpFailure
from .tetra import SLOT_CONST, _cell_slacks, _judge_cells, _slot_angles
from .triangulation import (
    AngleAssignment,
    _edge_vector,
    _slot_rows,
    admissible_cone_values,
)

PI = math.pi
#: ``find_interior`` reports an interior point when the optimal slack
#: exceeds this, a boundary point when it is at least its negative
FEASIBILITY_TOL = 1e-7


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first LP.

    Loading scipy.optimize takes about a third of a second on a 2-CPU
    host, and only ``find_interior`` needs it.  ``find_interior`` calls this module-level
    name, so a wrapper set on ``structures.linprog`` sees every LP.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")


def assemble(T, k):
    """The right-hand side ``b_eq`` of ``T.a_eq u = b_eq`` for cone target ``k``.

    Raises InadmissibleTarget when the per-cusp counting identity fails,
    which makes the equality system provably inconsistent.
    """
    k_vals = admissible_cone_values(T, k)
    return k_vals - T.edge_sums(np.tile(SLOT_CONST, T.n_tetrahedra))


def is_member(T, assignment, k, tol=1e-9):
    """Verdict for an assignment against the polytope for target ``k``.

    Returns ``(Membership, violations)`` where violations lists every
    failed check: the edge equations, then ``tetra._judge_cells`` over all
    rows.  Interior requires strict slack beyond ``tol`` in all inequality
    constraints; a row with a NaN or infinite angle fails only its cell's
    range test.  Raises ValueError when ``tol`` is not positive and finite,
    when the assignment does not have one row of six angles per
    tetrahedron, or when ``k`` does not have one finite value per edge class.
    """
    _check_tol(tol)
    A = _slot_rows(T, assignment)
    k_vals = _edge_vector(T, k, "cone target")
    # summed directly: a negative slot angle is a violation, not a bad target
    cone = T.edge_sums(A)
    violations = [
        f"edge {T.edge_keys[e]}: cone angle {cone[e]:.12g} != {k_vals[e]:.12g}"
        for e in np.flatnonzero(np.abs(cone - k_vals) > tol)
    ]
    cell = _judge_cells(A, tol)
    # messages only for failing tetrahedra, in tetrahedron order
    for t in np.flatnonzero(cell.cusp.any(axis=1) | cell.apex):
        for j in np.flatnonzero(cell.cusp[t]):
            violations.append(
                f"tet {t}: cusp {j + 2} angle sum {cell.cusp_sums[t, j]:.12g} != pi"
            )
        if cell.apex[t]:
            violations.append(f"tet {t}: apex angle sum {cell.apex_sums[t]:.12g} > pi")
    if cell.range.any():
        violations.append("slot angles leave [0, pi]")
    if violations:
        return Membership.OUTSIDE, violations
    if cell.angle_wall.any() or cell.apex_wall.any():
        return Membership.BOUNDARY, []
    return Membership.INTERIOR, []


def find_interior(T, k):
    """Max-min-slack LP over the assignment polytope, with certification.

    In the slack variables ``u = s + t 1`` the LP is: maximize a free ``t``
    over ``s >= 0`` with ``sum_tet s + 4 t <= pi`` per tetrahedron and
    ``A s + (A 1) t = b_eq``, ``A = T.a_eq``; the witness is ``u = s + t* 1``.
    The apex rows bound ``t`` by pi/4, so every admissible target has an
    optimum ``t*``, which alone decides the verdict; any other LP status
    raises LpFailure, as does an InteriorFound witness that substitution at
    ``FEASIBILITY_TOL / 10`` refutes.  An inadmissible target is provably
    infeasible: no LP runs, and its ``min_slack`` is -inf.
    """
    try:
        b_eq = assemble(T, k)
    except InadmissibleTarget:
        return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, -np.inf)

    n = T.n_tetrahedra
    nf = 3 * n
    # variables z = (s, t); maximize t
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    a_ub = sparse.hstack(
        [sparse.kron(sparse.identity(n), np.ones((1, 3))), np.full((n, 1), 4.0)],
        format="csr",
    )
    a_eq = sparse.hstack([T.a_eq, T.a_eq.sum(axis=1)], format="csr")
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.full(n, PI),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * nf + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise LpFailure(f"LP solver failed: {res.message}")

    t_star = float(res.x[-1])
    u = res.x[:-1] + t_star
    witness = AngleAssignment(_slot_angles(u))
    # report the slack the witness actually achieves, not the LP's claim
    slack = float(np.min(_cell_slacks(u)))
    if t_star > FEASIBILITY_TOL:
        verdict, violations = is_member(T, witness, k, tol=FEASIBILITY_TOL / 10.0)
        if verdict is not Membership.INTERIOR:
            raise LpFailure(
                "LP claimed an interior point but substitution disagrees: "
                + "; ".join(violations[:4])
            )
        return FeasibilityReport(FeasibilityStatus.INTERIOR_FOUND, witness, slack)
    if t_star >= -FEASIBILITY_TOL:
        return FeasibilityReport(FeasibilityStatus.BOUNDARY_ONLY, witness, slack)
    return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, t_star)

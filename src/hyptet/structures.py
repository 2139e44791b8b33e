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
point) "maximize t subject to ``_cell_slacks(u) >= t`` and the edge
equations", written in the variables ``X = _cell_slacks(u) - t >= 0``
(n, 4; ``u = s + t 1`` for its first three columns ``s``), with one row
``sum_tet X + 4 t = pi`` per tetrahedron; ``t`` is free, as those rows
bound it by pi/4.  The LP runs on the package's own interior-point method,
``linprog``, on the primal solver's ``T.factor``; its bracket of ``t*`` and
found interior witnesses are certified by substitution.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InadmissibleTarget, LpFailure
from .tetra import SLOT_COEF, SLOT_CONST, _cell_slacks, _judge_cells, _slot_angles
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
#: ``linprog``'s tolerance, bracket, step cap, fraction to boundary, weight cap
_LP_TOL, _LP_GAP, _LP_STEPS, _ETA, _CAP = 1e-12, 5e-9, 50, 0.999, 1e8
#: a run of ``linprog``: witness (3n,), its least slack, dual bound, steps
_LpRun = namedtuple("_LpRun", "u lower upper iterations")


def _schur(T, d):
    """``r -> (A B A^T)^-1 r``, ``A = T.a_eq``, ``B = D_s - d_s d_s^T / sum d``
    for weights ``d`` (n, 4), the diagonal summed from the other three weights:
    ``T.factor`` of ``B`` over the largest edge sum of its slot diagonals
    ``c_j B c_j^T``, so the blocks meet the gauge border's O(1)."""
    g, ds = d.sum(axis=1), d[:, :3]
    B = -ds[:, :, None] * ds[:, None, :] / g[:, None, None]
    np.einsum("tii->ti", B)[...] = ds * (d @ (1.0 - np.eye(4)[:, :3])) / g[:, None]
    slot_diagonals = np.sum(SLOT_COEF.T * (B @ SLOT_COEF.T), axis=1)
    scale = float(np.max(T.edge_sums(slot_diagonals)))
    if not 0.0 < scale < math.inf:
        raise np.linalg.LinAlgError(f"Schur blocks of scale {scale}")
    solve = T.factor(B / scale)
    return lambda r: solve(r) / scale


def _reach(x, dx):
    """The largest step in [0, 1] that keeps ``x + step dx >= 0``."""
    return float(np.min(-x[dx < 0.0] / dx[dx < 0.0], initial=1.0))


def linprog(T, b_eq):
    """Max-min-slack LP of ``find_interior`` by Mehrotra's predictor-corrector
    (SIAM J. Optim. 1992; Wright, *Primal-Dual Interior-Point Methods*).

    Maximize a free ``t`` over ``x = (s, w) >= 0`` (``X``, n x 4) with ``A s +
    (A 1) t = b`` and ``sum_tet s + w + 4 t = pi``, ``b`` the part of ``b_eq``
    in the range of ``A = T.a_eq``; the dual ``Z = (A^T nu + kappa, kappa)``
    is ``>= 0`` with ``(A 1).nu + 4 sum kappa = 1``.  A step eliminates
    ``kappa`` per cell (``_schur`` of ``d = x / z``) and ``t`` by a second
    right-hand side; one LU serves predictor, corrector and two solves that
    refine the missed rows, then weights capped at ``_CAP min d`` give two
    more.  It stops on a bracket ``lower <= t* <= upper`` of width
    ``_LP_GAP``, certified by substitution at iterates and full corrector
    steps: the least slack of a witness ``u = s + t 1`` on the edge rows to
    ``_LP_TOL (1 + |b|)``, and the Lagrange bound ``(pi sum kappa + nu.b_eq)
    / (sum y + sum kappa)``, ``y = A^T nu + kappa``, each ``kappa`` raised
    until ``y >= 0``.  After ``_LP_STEPS`` steps or a singular LU a bracket
    that fixes ``find_interior``'s verdict serves; without one it raises
    LpFailure.  perfbench traces this name; ``find_interior`` looks it up.
    """
    n, A, At = T.n_tetrahedra, T.a_eq, T.a_eq_t
    u = At @ T.solve_eye(b_eq)
    b, a = A @ u, A @ np.ones(3 * n)
    tol = _LP_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    t = float(np.min(_cell_slacks(u))) - 1.0
    X = _cell_slacks(u) - t
    nu, kappa = np.zeros(b.size), np.full(n, 0.25 / n)
    Z = np.tile(kappa[:, None], 4)
    best, upper = (-math.inf, None), math.inf

    def judge(X, t, nu, kappa):
        # keep the best witness on the edge rows and the least dual bound
        nonlocal best, upper
        r_e = b - A @ X[:, :3].ravel() - a * t
        if np.max(np.abs(r_e), initial=0.0) <= tol:
            u = X[:, :3].ravel() + t
            best = max(best, (float(np.min(_cell_slacks(u))), u), key=lambda w: w[0])
        y = (At @ nu).reshape(n, 3)
        lift = np.maximum(kappa, np.maximum(-y.min(axis=1), 0.0))
        total = float(y.sum() + 4.0 * lift.sum())
        if total > 0.0:
            upper = min(upper, (PI * float(lift.sum()) + float(nu @ b_eq)) / total)
        return r_e, y

    def direction(w, solve, P, r_e, r_k, r_t):
        # the Newton step of weights w, P = r_c / z - w r_d
        g, ws = w.sum(axis=1), w[:, :3]
        v = A @ (1.0 - 4.0 * ws / g[:, None]).ravel()
        q = (P.sum(axis=1) - r_k) / g
        rhs = np.column_stack([A @ (P[:, :3] - ws * q[:, None]).ravel() - r_e, v])
        nu1, nu2 = solve(rhs).T
        dt = (r_t - 4.0 * q.sum() - v @ nu1) / (v @ nu2 + 16.0 * (1.0 / g).sum())
        dnu = nu1 + dt * nu2
        dy = (At @ dnu).reshape(n, 3)
        dkappa = q + (4.0 * dt - (ws * dy).sum(axis=1)) / g
        return P - w * np.column_stack([dy + dkappa[:, None], dkappa]), dt, dnu, dkappa

    for it in range(_LP_STEPS + 1):
        r_e, y = judge(X, t, nu, kappa)
        if upper - best[0] <= _LP_GAP or it == _LP_STEPS:
            break
        d = w = X / Z
        r_k = PI - X.sum(axis=1) - 4.0 * t
        r_d = np.column_stack([y + kappa[:, None], kappa]) - Z
        r_t = 1.0 - float(a @ nu) - 4.0 * float(kappa.sum())
        XZ = X * Z
        try:
            solve = _schur(T, d)
            aff = direction(d, solve, -X - d * r_d, r_e, r_k, r_t)
            dZ = -Z - Z * aff[0] / X
            ap, ad = _reach(X, aff[0]), _reach(Z, dZ)
            mu_aff = float(((X + ap * aff[0]) * (Z + ad * dZ)).mean())
            r_c = (mu_aff / XZ.mean()) ** 3 * XZ.mean() - XZ - aff[0] * dZ
            dX, dt, dnu, dkappa = direction(d, solve, r_c / Z - d * r_d, r_e, r_k, r_t)
            dZ = (r_c - Z * dX) / X
            for attempt in range(4):
                err = r_e - A @ dX[:, :3].ravel() - a * dt
                err_k = r_k - dX.sum(axis=1) - 4.0 * dt
                if np.abs(np.r_[err, err_k]).max() <= 0.1 * tol:
                    break
                if attempt == 2:
                    w = d * _CAP * np.min(d) / (d + _CAP * np.min(d))
                    solve = _schur(T, w)
                fix = direction(w, solve, np.zeros_like(X), err, err_k, 0.0)
                dX, dt = dX + fix[0], dt + fix[1]
        except np.linalg.LinAlgError:
            break
        judge(X + dX, t + dt, nu + dnu, kappa + dkappa)
        ap, ad = min(1.0, _ETA * _reach(X, dX)), min(1.0, _ETA * _reach(Z, dZ))
        X, t = X + ap * dX, t + ap * dt
        Z, nu, kappa = Z + ad * dZ, nu + ad * dnu, kappa + ad * dkappa
    lo, ft = best[0], FEASIBILITY_TOL
    if upper - lo > _LP_GAP and not (lo > ft or upper < -ft or -ft <= lo <= upper <= ft):
        raise LpFailure(
            f"LP solver failed: no certified bracket in {it} steps "
            f"(slack {lo:.3e}, bound {upper:.3e})"
        )
    return _LpRun(best[1], lo, upper, it)


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
    """``upper_bound``, the LP's dual bound, and its steps stay out of JSON."""

    status: FeasibilityStatus
    witness: AngleAssignment | None
    min_slack: float
    upper_bound: float = -math.inf
    iterations: int = 0

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
    ``A s + (A 1) t = b_eq``, ``A = T.a_eq``, solved by ``linprog``.  The
    apex rows bound ``t`` by pi/4, so every admissible target has an optimum
    ``t*``, which alone decides the verdict; ``min_slack`` and
    ``upper_bound`` are ``linprog``'s certified bracket of it.  LpFailure
    is raised by a run without one and for an InteriorFound witness that
    substitution at ``FEASIBILITY_TOL / 10`` refutes.  An inadmissible
    target is provably infeasible: no LP runs, and ``min_slack`` is -inf.
    """
    try:
        b_eq = assemble(T, k)
    except InadmissibleTarget:
        return FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, -np.inf)

    run = linprog(T, b_eq)
    witness = AngleAssignment(_slot_angles(run.u))
    if run.lower > FEASIBILITY_TOL:
        verdict, violations = is_member(T, witness, k, tol=FEASIBILITY_TOL / 10.0)
        if verdict is not Membership.INTERIOR:
            raise LpFailure(
                "LP claimed an interior point but substitution disagrees: "
                + "; ".join(violations[:4])
            )
        status = FeasibilityStatus.INTERIOR_FOUND
    elif run.lower >= -FEASIBILITY_TOL:
        status = FeasibilityStatus.BOUNDARY_ONLY
    else:
        status, witness = FeasibilityStatus.INFEASIBLE, None
    return FeasibilityReport(status, witness, run.lower, run.upper, run.iterations)

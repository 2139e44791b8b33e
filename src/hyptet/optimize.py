"""Volume maximization, its dual curvature-prescription solve, and rigidity.

Primal: maximize the total hyperbolic volume over the assignment polytope
for a cone target ``k`` (a strictly concave problem on the free-variable
chart) by a log-barrier interior-point method.  The volume Hessian in the
free chart is closed form, because the Lobachevsky function has second
derivative ``-cot``, so the barrier Hessian is block diagonal with one
3x3 block per tetrahedron.  Newton steps on the sparse edge equations are
range-space (Schur-complement) steps: a sparse LU of the E x E matrix
``A B^-1 A^T``, bordered by the gauge matrix, replaces any basis of the
null space of ``A`` (Nocedal & Wright, *Numerical Optimization*, ch. 16).
The same step, with the edge-equation residual on its right-hand side,
carries a start that is only inside the inequalities onto the edge
equations (an infeasible-start phase one), so the feasibility LP runs only
when that phase fails.

Dual: minimize the convex C^1 energy ``sum_tet covolume - <k, l>`` over
metrics in the orthogonal complement of the gauge; its gradient is
``cone_angles(extended angles) - k`` and its Hessian is the sum of the
per-tetrahedron co-volume Hessians, PSD with the gauge as kernel.

Both problems run the same damped Newton iteration, ``_newton``.  They
meet through a Legendre-type identity: the dual minimum equals twice the
maximal volume, so ``min_dual_objective - 2 * max_volume`` vanishes at the
solutions.  The dual minimizer is unique up to decoration gauge, which
``rigidity_check`` probes with multiple random starts.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import null_space  # noqa: F401 -- perfbench/tracing.py traces it
from scipy.sparse.linalg import splu

from ._kernels import (
    extended_angles_batch,
    phi_batch,
    volume2_batch,
    volume_gradient_batch,
)
from .errors import MaxIterations, NoInteriorStart
from .structures import (
    FeasibilityStatus,
    Membership,
    SLOT_COEF,
    SLOT_CONST,
    assemble,
    find_interior,
    is_member,
)
from .tetra import FLAT_PATTERNS, _covolume_hessian_batch
from .triangulation import (
    AngleAssignment,
    GeneralizedMetric,
    admissible_cone_values,
    gauge_project,
)

PI = math.pi
_EPS = float(np.finfo(np.float64).eps)
#: step halvings before a line search counts as failed
_BACKTRACKS = 40
#: a run beyond this max-norm whose residual has not shrunk by 10 % over
#: the last ``_WINDOW`` steps has escaped to infinity
_ESCAPE = 1e3
_WINDOW = 100
#: infeasible-start Newton steps before ``maximize_volume`` falls back to
#: the feasibility LP
_PHASE_ONE = 20
#: outer products c_j c_j^T of the slot coefficient rows, flattened to (6, 9)
_SLOT_OUTER = np.einsum("jp,jq->jpq", SLOT_COEF, SLOT_COEF).reshape(6, 9)


@dataclass
class PrimalReport:
    """Maximizer of the volume; ``kkt_residual`` is the larger of the final
    barrier weight and ``max|P g|``, the barrier gradient projected onto the
    null space of the edge equations (0.0 when that null space is trivial).
    ``iterations`` counts every Newton step taken, the phase-one steps that
    reach the start included.
    """

    maximizer: AngleAssignment
    volume: float
    kkt_residual: float
    boundary_flags: list
    iterations: int
    objective_trace: list = field(default_factory=list, repr=False, compare=False)

    def to_json(self):
        return {
            "maximizer": self.maximizer.to_json(),
            "volume": self.volume,
            "kkt_residual": self.kkt_residual,
            "boundary_flags": list(self.boundary_flags),
            "iterations": self.iterations,
        }


@dataclass
class DualReport:
    metric: GeneralizedMetric
    residual: float
    diverged: bool
    objective: float
    iterations: int = 0
    objective_trace: list = field(default_factory=list, repr=False, compare=False)

    def to_json(self, T):
        return {
            "metric": self.metric.to_json(T),
            "residual": self.residual,
            "diverged": self.diverged,
            "objective": self.objective,
        }


@dataclass
class GapReport:
    gap: float
    volume: float
    dual_objective: float

    @property
    def relative_gap(self):
        return self.gap / (1.0 + abs(2.0 * self.volume))

    def to_json(self):
        return {
            "gap": self.gap,
            "volume": self.volume,
            "dual_objective": self.dual_objective,
            "relative_gap": self.relative_gap,
        }


@dataclass
class RigidityReport:
    n_starts: int
    pairwise_distance: float
    all_agree: bool
    seed: int
    failed_starts: list = field(default_factory=list)

    def to_json(self):
        return {
            "n_starts": self.n_starts,
            "pairwise_distance": self.pairwise_distance,
            "all_agree": self.all_agree,
            "seed": self.seed,
            "failed_starts": list(self.failed_starts),
        }


class _Run(NamedTuple):
    x: np.ndarray
    f: float
    res: float
    iterations: int
    trace: list


def _newton(x, oracle, tol, max_iter, max_step=None):
    """Damped Newton descent on a smooth convex objective over an affine set.

    ``oracle(x)`` returns ``(f, pg, res, step)``: the objective, its gradient
    projected onto the feasible directions, the residual the run drives to
    ``tol`` or below, and a callable giving the Newton direction in ``x``
    coordinates, called only at accepted points; an oracle whose Hessian is
    only semidefinite regularizes it.  Each step takes that direction
    (``-pg`` when its solve fails or it does not descend), is cut to
    ``max_step(x, dx)`` when given, and is halved until the Armijo test
    holds or the residual halves with ``f`` flat to float noise -- near the
    optimum the decrease of ``f`` is below float resolution while the
    analytic gradient still is not.  A failed line search, an accepted step
    that moves ``x`` by float noise only, or an escape (see ``_ESCAPE``)
    stalls the run.
    """
    f, pg, res, step = oracle(x)
    trace = [f]
    history = [res]
    it = 0
    while res > tol and it < max_iter:
        it += 1
        try:
            dx = step()
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.all(np.isfinite(dx)) or float(pg @ dx) >= 0.0:
            dx = -pg
        slope = float(pg @ dx)
        a = 1.0 if max_step is None else max_step(x, dx)
        for _ in range(_BACKTRACKS):
            x_try = x + a * dx
            f_try, pg_try, res_try, step_try = oracle(x_try)
            if f_try <= f + 1e-4 * a * slope or (
                res_try <= 0.5 * res and f_try <= f + 1e-12 * (1.0 + abs(f))
            ):
                break
            a *= 0.5
        else:
            return _Run(x, f, res, it, trace)
        noise = 4.0 * _EPS * (1.0 + float(np.max(np.abs(x))))
        moved = float(np.max(np.abs(x_try - x))) > noise
        x, f, pg, res, step = x_try, f_try, pg_try, res_try, step_try
        trace.append(f)
        history.append(res)
        escaped = (
            float(np.max(np.abs(x))) > _ESCAPE
            and len(history) > _WINDOW
            and res > 0.9 * history[-1 - _WINDOW]
        )
        if (escaped or not moved) and res > tol:
            return _Run(x, f, res, it, trace)
    return _Run(x, f, res, it, trace)


def _volume_hessian(angles):
    """Hessian of the volume in the free chart (a12, a13, a14), (n, 3, 3).

    The volume is half the sum of the Lobachevsky function over the six
    slot angles ``c_j . u + const`` and over ``(pi - h) / 2`` with
    ``h = a12 + a13 + a14``; since its second derivative is ``-cot``,
    ``H = -1/2 [sum_j cot(a_j) c_j c_j^T + 1/4 cot((pi - h) / 2) 11^T]``.
    """
    A = np.asarray(angles, dtype=np.float64)
    half_gap = (PI - A[:, 0] - A[:, 1] - A[:, 2]) / 2.0
    H = (1.0 / np.tan(A)) @ _SLOT_OUTER + (0.25 / np.tan(half_gap))[:, None]
    return -0.5 * H.reshape(-1, 3, 3)


def _slot_pairs(T):
    """Edge-class (row, col) pairs of per-tetrahedron (n, 6, 6) slot blocks.

    Flattened in block order, so summing the blocks through them gives
    ``sum_t P_t^T block_t P_t``, where ``P_t`` maps the six slots of
    tetrahedron ``t`` to their edge classes.
    """
    sc = T.slot_class
    return np.repeat(sc, 6, axis=1).ravel(), np.tile(sc, 6).ravel()


def _dual_hessian(T, L):
    """Hessian of the dual energy over the edge classes, (E, E).

    The per-tetrahedron co-volume Hessians at the slot lengths ``L`` (n, 6),
    summed through ``slot_class``.  Each row's difference step follows its
    cosine-extension margin, so the stencil stays on one side of the
    degeneration walls.
    """
    margin = np.min(np.abs(1.0 - np.abs(phi_batch(L))), axis=1)
    h = np.minimum(1e-6, np.maximum(0.02 * margin, 1e-9))
    E = T.n_edge_classes
    rows, cols = _slot_pairs(T)
    blocks = _covolume_hessian_batch(L, h).ravel()
    return np.bincount(rows * E + cols, weights=blocks, minlength=E * E).reshape(E, E)


def _range_solver(T, W, inv_blocks):
    """Solve ``S lam = r`` for ``S = A B^-1 A^T``, ``A`` the edge equations.

    ``inv_blocks`` (n, 3, 3) is the block-diagonal ``B^-1`` in the free
    chart, so ``S`` is the slot blocks ``C B_t^-1 C^T`` (``C = SLOT_COEF``)
    summed through ``slot_class``.  ``S`` is singular exactly on the gauge:
    ``W^T A = 0`` for ``W``, the sparse ``T.gauge_matrix`` (the per-cusp
    counting identity), and ``rank A = E - (cusp classes)``, so the
    bordered system ``[[S, W], [W^T, 0]] [lam; nu] = [r; 0]`` is
    nonsingular and, for ``r`` in the range of ``A``, gives ``nu = 0`` and
    the solution with ``W^T lam = 0``.  Returns ``r -> lam``; a singular
    factorization raises ``LinAlgError``.
    """
    E = T.n_edge_classes
    blocks = (SLOT_COEF @ inv_blocks @ SLOT_COEF.T).ravel()
    S = sparse.csc_matrix((blocks, _slot_pairs(T)), shape=(E, E))
    try:
        lu = splu(sparse.bmat([[S, W], [W.T, None]], format="csc"))
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
    border = np.zeros(W.shape[1])
    return lambda r: lu.solve(np.concatenate([r, border]))[:E]


def _barrier_oracle(cs, mu, W, project):
    """Oracle of ``-(vol + mu * sum log c)`` over the edge equations.

    ``W`` is the sparse gauge matrix and ``project`` maps a gradient onto
    the null space of ``a_eq``.  The Newton direction is the range-space
    step ``dx = -B^-1 (g + A^T lam)`` with ``A B^-1 A^T lam = r - A B^-1 g``,
    for the block-diagonal barrier Hessian ``B`` (one positive definite 3x3
    block per tetrahedron) and the edge-equation residual
    ``r = A u - b_eq``, so that ``A dx = -r``: on the equations it is the
    feasible Newton step, off them the infeasible-start one.
    """
    n = cs.n_tetrahedra
    a_eq = cs.a_eq
    eye3 = np.eye(3)

    def blockmul(M, v):
        return np.einsum("tij,tj->ti", M, v.reshape(n, 3)).ravel()

    def oracle(u_vec):
        c = cs.constraint_values(u_vec)
        slack = c[3 * n :]
        A = cs.expand(u_vec).values
        f = -0.5 * float(volume2_batch(A).sum()) - mu * float(np.sum(np.log(c)))
        g = -volume_gradient_batch(A).ravel() - mu * (
            1.0 / u_vec - np.repeat(1.0 / slack, 3)
        )
        pg = project(g)

        def step():
            B = -_volume_hessian(A) + mu * (
                eye3 / u_vec.reshape(n, 3, 1) ** 2 + 1.0 / slack[:, None, None] ** 2
            )
            inv = np.linalg.inv(B)
            solve = _range_solver(cs.triangulation, W, inv)
            w = blockmul(inv, g)
            r = a_eq @ u_vec - cs.b_eq
            return blockmul(inv, a_eq.T @ solve(a_eq @ w - r)) - w

        return f, pg, float(np.max(np.abs(pg))), step

    return oracle


def _near_flat_flags(angles, tol=1e-6):
    """Per tetrahedron, whether its slot angles lie within ``tol`` of a flat
    pattern in max norm."""
    A = np.asarray(angles, dtype=np.float64)
    return (np.abs(A[:, None] - FLAT_PATTERNS).max(axis=2).min(axis=1) <= tol).tolist()


def _phase_one(cs, oracle, max_step, u):
    """Infeasible-start Newton steps from ``u`` onto the edge equations.

    ``u`` is strictly inside the inequalities.  Each step is the barrier
    oracle's Newton direction, which also cancels the edge-equation
    residual, cut by the fraction-to-boundary rule ``max_step``; the first
    full step lands on the equations (Boyd & Vandenberghe, *Convex
    Optimization*, sec. 10.3).  The landed point must pass the substitution
    certificate of ``find_interior``'s witness.  Returns ``(u, steps)``,
    with ``u`` None when no full step came within ``_PHASE_ONE`` steps, a
    solve failed or the certificate did.
    """
    for steps in range(1, _PHASE_ONE + 1):
        try:
            dx = oracle(u)[3]()
        except np.linalg.LinAlgError:
            return None, steps
        if not np.all(np.isfinite(dx)):
            return None, steps
        a = max_step(u, dx)
        u = u + a * dx
        # on the boundary to rounding: the next oracle call would divide by 0
        if min(np.min(cs.constraint_values(u)), np.min(cs.expand(u).values)) <= 0.0:
            return None, steps
        if a == 1.0:
            verdict, _ = is_member(cs.triangulation, cs.expand(u), cs.cone, tol=1e-8)
            return (u if verdict is Membership.INTERIOR else None), steps
    return None, _PHASE_ONE


def maximize_volume(T, k, tol=1e-8, max_inner=150, u0=None):
    """Log-barrier maximization of total volume over the polytope for ``k``.

    The barrier starts from ``u0`` (three free angles per tetrahedron,
    strictly inside the inequalities and on the edge equations to 1e-8)
    when given, otherwise from every free angle at pi/4.  A phase one of
    infeasible-start Newton steps at the first barrier weight carries that
    point onto the edge equations and certifies it interior by
    substitution; only when it fails does the max-slack feasibility LP
    (``find_interior``) supply the start or the verdict.  Each barrier
    weight then runs at most ``max_inner`` range-space Newton steps on the
    closed-form free-chart Hessian (see ``_range_solver``); no dense matrix
    over the 3n free angles is formed.  On success the KKT residual -- the
    max of the stationarity residual ``max|P g|`` (``P`` the orthogonal
    projector onto the null space of the edge equations, ``g`` the barrier
    gradient) and the final barrier weight (= complementarity) -- is at
    most ``tol``.
    """
    cs = assemble(T, k)
    n = T.n_tetrahedra
    a_eq = cs.a_eq
    W = sparse.csc_matrix(T.gauge_matrix)
    # B = I: the orthogonal projector onto the null space of the edge equations
    solve_eye = _range_solver(T, W, np.broadcast_to(np.eye(3), (n, 3, 3)))

    def project(g):
        return g - a_eq.T @ solve_eye(a_eq @ g)

    if u0 is not None:
        u = np.asarray(u0, dtype=np.float64).reshape(3 * n).copy()
        if float(np.max(np.abs(a_eq @ u - cs.b_eq))) > 1e-8:
            raise NoInteriorStart("u0 violates the edge equations")
        if np.any(cs.constraint_values(u) <= 0.0):
            raise NoInteriorStart("u0 is not strictly interior")
    else:
        u = np.full(3 * n, PI / 4.0)

    def max_step(u_vec, du):
        # fraction-to-boundary rule on the linear inequality constraints
        dc = np.concatenate([du, -du.reshape(n, 3).sum(axis=1)])
        shrink = dc < 0.0
        if not np.any(shrink):
            return 1.0
        c = cs.constraint_values(u_vec)
        return min(1.0, float(np.min(0.995 * c[shrink] / -dc[shrink])))

    mu_final = max(tol / 10.0, 1e-13)
    mus = []
    m = 1e-1
    while m > mu_final * 1.0000001:
        mus.append(m)
        m *= 0.1
    mus.append(mu_final)

    u, iterations = _phase_one(
        cs, _barrier_oracle(cs, mus[0], W, project), max_step, u
    )
    if u is None:
        fr = find_interior(T, k)
        if fr.status is not FeasibilityStatus.INTERIOR_FOUND:
            raise NoInteriorStart(f"feasibility status: {fr.status.value}")
        u = fr.witness.values[:, :3].ravel().copy()

    # 3n - rank(a_eq) free directions; none left means u is the only point
    if cs.n_free - T.n_edge_classes + W.shape[1] == 0:
        ang = cs.expand(u)
        vol = 0.5 * float(volume2_batch(ang.values).sum())
        return PrimalReport(
            ang, vol, 0.0, _near_flat_flags(ang.values), iterations, [vol]
        )

    trace = []
    for mu in mus:
        oracle = _barrier_oracle(cs, mu, W, project)
        run = _newton(u, oracle, max(0.1 * mu, 1e-13), max_inner, max_step)
        u = run.x
        iterations += run.iterations
        trace.append(0.5 * float(volume2_batch(cs.expand(u).values).sum()))

    kkt = max(run.res, mu_final)
    if kkt > tol:
        raise MaxIterations(
            f"barrier maximization stalled at residual {kkt:.3e}", residual=kkt
        )
    ang = cs.expand(u)
    return PrimalReport(
        ang,
        trace[-1],
        kkt,
        _near_flat_flags(ang.values),
        iterations,
        trace,
    )


def solve_cone_angles(T, k, tol=1e-8, x0=None, max_iter=50000):
    """Prescribe cone angles by minimizing the convex metric energy.

    Damped Newton steps in the orthogonal complement of the gauge, on the
    co-volume Hessian summed from per-tetrahedron blocks; succeeds when the
    cone angles of the iterate match ``k`` to ``tol`` in max norm.  A run
    that escapes the trust region without its gradient vanishing is
    flagged diverged, never reported as a solution.
    """
    k_vals = admissible_cone_values(T, k)
    slot_class = T.slot_class
    n_edges = T.n_edge_classes
    # orthonormal basis of the gauge complement: the trailing columns of a
    # complete QR of the gauge matrix, which has full column rank
    W = T.gauge_matrix
    Z = np.linalg.qr(W, mode="complete")[0][:, W.shape[1] :]

    def oracle(x):
        L = np.ascontiguousarray(x[slot_class])
        A = extended_angles_batch(L)
        obj = float(volume2_batch(A).sum() + np.sum(A * L)) - float(k_vals @ x)
        cone = np.bincount(
            slot_class.ravel(), weights=A.ravel(), minlength=n_edges
        )
        g = cone - k_vals
        res = float(np.max(np.abs(g)))
        gy = Z.T @ g

        def step():
            # PSD only: shift by the residual, which vanishes at the solution
            H = Z.T @ _dual_hessian(T, L) @ Z
            H[np.diag_indices_from(H)] += min(res, 1.0)
            return Z @ np.linalg.solve(H, -gy)

        return obj, Z @ gy, res, step

    if x0 is None:
        x = np.zeros(n_edges)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n_edges,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite vector over the edge classes")
        x = T.gauge_projector @ x0
    run = _newton(x, oracle, tol, max_iter)
    diverged = run.res > tol and float(np.max(np.abs(run.x))) > _ESCAPE
    if run.res > tol and not diverged:
        what = "stalled" if run.iterations < max_iter else "hit the iteration cap"
        raise MaxIterations(
            f"dual solve {what} at residual {run.res:.3e}", residual=run.res
        )
    return DualReport(
        gauge_project(T, run.x),
        run.res,
        diverged,
        run.f,
        run.iterations,
        run.trace,
    )


def duality_gap(T, k, tol=1e-8):
    """Difference (min dual objective) - 2 * (max volume), as a GapReport.

    At the optimum the dual energy equals twice the maximal volume, so the
    raw signed difference certifies the conjugacy of the two problems;
    ``relative_gap`` scales it by ``1 + |2 * volume|``.
    """
    primal = maximize_volume(T, k, tol=tol)
    dual = solve_cone_angles(T, k, tol=tol)
    gap = dual.objective - 2.0 * primal.volume
    return GapReport(gap, primal.volume, dual.objective)


def rigidity_check(T, k, n_starts=5, tol=1e-6, seed=0):
    """Solve the dual from several random starts and compare the results.

    The gauge-projected solutions must coincide (the metric is determined
    by its curvature up to decorations); ``all_agree`` records whether the
    max pairwise distance stays within ``tol``.
    """
    if n_starts < 2:
        raise ValueError("rigidity check needs at least two starts")
    rng = np.random.default_rng(seed)
    solutions = []
    failed = []
    last_error = None
    for s in range(n_starts):
        x0 = T.gauge_projector @ rng.uniform(-1.0, 1.0, T.n_edge_classes)
        try:
            rep = solve_cone_angles(T, k, tol=tol * 1e-2, x0=x0)
        except MaxIterations as exc:
            failed.append(s)
            last_error = exc
            continue
        if rep.diverged:
            failed.append(s)
            continue
        solutions.append(rep.metric.values)
    if len(solutions) < 2:
        if last_error is not None:
            raise last_error
        raise MaxIterations("fewer than two rigidity starts converged")
    dist = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            dist = max(dist, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return RigidityReport(n_starts, dist, dist <= tol, seed, failed)

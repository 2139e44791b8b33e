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
per-tetrahedron co-volume Hessians ``C (-2 H)^-1 C^T`` (Schlaefli, ``H`` the
volume Hessian), PSD with the gauge as kernel, factored by the primal's
bordered sparse LU.  The energy is unbounded below exactly when no closed
angle assignment has cone angles ``k``, and the dual stops at the first
point it evaluates that certifies this (a Farkas vector).

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
from scipy.linalg import null_space  # noqa: F401 -- perfbench/tracing.py traces it

from ._kernels import extended_angles_batch, volume2_batch, volume_gradient_batch
from .errors import MaxIterations, NoInteriorStart
from .structures import (
    FeasibilityStatus,
    Membership,
    assemble,
    find_interior,
    is_member,
)
from .tetra import (
    CELL_VERTICES,
    SLOT_COEF,
    _covolume_hessian,
    _near_flat,
    _volume_hessian,
)
from .triangulation import (
    AngleAssignment,
    GeneralizedMetric,
    _range_solver,
    admissible_cone_values,
)

PI = math.pi
_EPS = float(np.finfo(np.float64).eps)
#: step halvings before a line search counts as failed
_BACKTRACKS = 40
#: infeasible-start Newton steps before ``maximize_volume`` falls back to
#: the feasibility LP
_PHASE_ONE = 20
#: Newton steps per barrier weight in ``maximize_volume``
_INNER = 150


@dataclass
class PrimalReport:
    """Maximizer of the volume; ``kkt_residual`` is the larger of the final
    barrier weight and ``max|P g|``, the barrier gradient projected onto the
    null space of the edge equations.
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
    """``residual`` is the max-norm error of the cone angles of ``metric``;
    ``diverged`` marks a target certified infeasible, with ``metric`` the
    Farkas certificate (see ``solve_cone_angles``), so it solves nothing;
    ``iterations`` counts the Newton steps taken."""

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
    stopped: bool = False


class _Stop(Exception):
    """Raised by an oracle with ``(x, f, res)`` at a point that ends the run."""


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
    analytic gradient still is not.  A failed line search or an accepted
    step that moves ``x`` by float noise only stalls the run.  An oracle
    that raises ``_Stop`` ends the run at its point, flagged ``stopped``.
    """
    trace = []
    it = 0
    try:
        f, pg, res, step = oracle(x)
        trace.append(f)
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
                break
            noise = 4.0 * _EPS * (1.0 + float(np.max(np.abs(x))))
            moved = float(np.max(np.abs(x_try - x))) > noise
            x, f, pg, res, step = x_try, f_try, pg_try, res_try, step_try
            trace.append(f)
            if not moved and res > tol:
                break
    except _Stop as stop:
        return _Run(*stop.args, it, trace, True)
    return _Run(x, f, res, it, trace)


def _barrier_oracle(cs, mu, factor, project):
    """Oracle of ``-(vol + mu * sum log c)`` over the edge equations.

    ``factor`` is ``_range_solver(T)`` and ``project`` maps a gradient onto
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
            solve = factor(SLOT_COEF @ inv @ SLOT_COEF.T)
            w = blockmul(inv, g)
            r = a_eq @ u_vec - cs.b_eq
            return blockmul(inv, a_eq.T @ solve(a_eq @ w - r)) - w

        return f, pg, float(np.max(np.abs(pg))), step

    return oracle


def _equation_oracle(cs, barrier):
    """Oracle of ``|a_eq u - b_eq|^2 / 2`` whose step is ``barrier``'s.

    From ``u`` strictly inside the inequalities, the barrier oracle's Newton
    direction also cancels the edge-equation residual ``r``, so a run cut by
    the fraction-to-boundary rule lands on the equations at its first full
    step (an infeasible-start phase one; Boyd & Vandenberghe, *Convex
    Optimization*, sec. 10.3).  The residual is ``max|r|``.  A point on the
    boundary to rounding raises ``_Stop``: the barrier would divide by 0.
    """
    a_eq = cs.a_eq

    def oracle(u_vec):
        r = a_eq @ u_vec - cs.b_eq
        f = 0.5 * float(r @ r)
        res = float(np.max(np.abs(r)))
        edge = min(np.min(cs.constraint_values(u_vec)), np.min(cs.expand(u_vec).values))
        if edge <= 0.0:
            raise _Stop(u_vec, f, res)
        return f, a_eq.T @ r, res, lambda: barrier(u_vec)[3]()

    return oracle


def maximize_volume(T, k, tol=1e-8, u0=None):
    """Log-barrier maximization of total volume over the polytope for ``k``.

    The barrier starts from ``u0`` (three free angles per tetrahedron,
    strictly inside the inequalities and on the edge equations to 1e-8)
    when given, otherwise from every free angle at pi/4.  A phase one of at
    most ``_PHASE_ONE`` infeasible-start Newton steps at the first barrier
    weight (``_equation_oracle``) carries that point onto the edge
    equations to 1e-8, and the landed point must pass the substitution
    certificate of ``find_interior``'s witness; only when it fails does the
    max-slack feasibility LP (``find_interior``) supply the start or the
    verdict.  Each barrier weight then runs at most ``_INNER`` range-space
    Newton steps on the closed-form free-chart Hessian (see
    ``_range_solver``); no dense matrix over the 3n free angles is formed.
    On success the KKT residual -- the max of the stationarity residual
    ``max|P g|`` (``P`` the orthogonal projector onto the null space of the
    edge equations, ``g`` the barrier gradient) and the final barrier
    weight (= complementarity) -- is at most ``tol``.
    """
    cs = assemble(T, k)
    n = T.n_tetrahedra
    a_eq = cs.a_eq
    factor = _range_solver(T)
    # B = I: the orthogonal projector onto the null space of the edge equations
    solve_eye = factor(SLOT_COEF @ SLOT_COEF.T)

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

    barrier = _barrier_oracle(cs, mus[0], factor, project)
    run = _newton(u, _equation_oracle(cs, barrier), 1e-8, _PHASE_ONE, max_step)
    u, iterations = run.x, run.iterations
    if is_member(T, cs.expand(u), cs.cone, tol=1e-8)[0] is not Membership.INTERIOR:
        fr = find_interior(T, k)
        if fr.status is not FeasibilityStatus.INTERIOR_FOUND:
            raise NoInteriorStart(f"feasibility status: {fr.status.value}")
        u = fr.witness.values[:, :3].ravel().copy()

    trace = []
    for mu in mus:
        oracle = _barrier_oracle(cs, mu, factor, project)
        run = _newton(u, oracle, max(0.1 * mu, 1e-13), _INNER, max_step)
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
        _near_flat(ang.values, 1e-6).tolist(),
        iterations,
        trace,
    )


def solve_cone_angles(T, k, tol=1e-8, x0=None, max_iter=50000):
    """Prescribe cone angles by minimizing the convex metric energy.

    Damped Newton steps in the orthogonal complement of the gauge, from
    ``x0`` projected there; each solves ``(H + s I) dx = -P g`` there by
    ``_range_solver``, ``H`` the summed co-volume blocks, ``s = min(res, 1)``;
    the projector ``P`` onto that complement is the same solver with zero
    blocks and ``s = 1``.  Succeeds when the cone angles match ``k`` to
    ``tol`` in max norm.

    Every point the run evaluates, line-search trial points included, is a
    candidate Farkas vector: with ``L = x[slot_class]`` and ``v`` over the
    vertices of a cell's closed angle polytope, any angle assignment with
    cone angles ``k`` has ``k . x = sum_t <a_t, L_t> <= sum_t max_v <v, L_t>``
    (Boyd & Vandenberghe, *Convex Optimization*, sec. 5.8), and the energy
    is at least the right side minus ``k . x``.  Where ``k . x`` exceeds it
    by the rounding margin ``1e-9 (1 + k . |x| + pi sum |L|)`` the run stops
    with that point as a report flagged ``diverged``, never as a solution.
    """
    k_vals = admissible_cone_values(T, k)
    slot_class = T.slot_class
    n_edges = T.n_edge_classes
    factor = _range_solver(T)
    project = factor(0.0, 1.0)

    def oracle(x):
        L = np.ascontiguousarray(x[slot_class])
        A = extended_angles_batch(L)
        kx = float(k_vals @ x)
        obj = float(volume2_batch(A).sum() + np.sum(A * L)) - kx
        g = T.edge_sums(A) - k_vals
        res = float(np.max(np.abs(g)))
        support = float((L @ CELL_VERTICES).max(axis=1).sum())
        scale = 1.0 + float(k_vals @ np.abs(x)) + PI * float(np.abs(L).sum())
        if kx - support > 1e-9 * scale:
            raise _Stop(x, obj, res)
        pg = project(g)

        def step():
            return factor(_covolume_hessian(A), min(res, 1.0))(-pg)

        return obj, pg, res, step

    if x0 is None:
        x = np.zeros(n_edges)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n_edges,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite vector over the edge classes")
        x = project(x0)
    run = _newton(x, oracle, tol, max_iter)
    if run.res > tol and not run.stopped:
        what = "stalled" if run.iterations < max_iter else "hit the iteration cap"
        raise MaxIterations(
            f"dual solve {what} at residual {run.res:.3e}", residual=run.res
        )
    return DualReport(
        GeneralizedMetric(project(run.x)),
        run.res,
        run.stopped,
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
    max pairwise distance stays within ``tol``.  A start that certifies
    the target infeasible raises ``MaxIterations``: no start can converge.
    """
    if n_starts < 2:
        raise ValueError("rigidity check needs at least two starts")
    rng = np.random.default_rng(seed)
    solutions = []
    failed = []
    last_error = None
    for s in range(n_starts):
        x0 = rng.uniform(-1.0, 1.0, T.n_edge_classes)
        try:
            rep = solve_cone_angles(T, k, tol=tol * 1e-2, x0=x0)
        except MaxIterations as exc:
            failed.append(s)
            last_error = exc
            continue
        if rep.diverged:
            msg = "cone target certified infeasible: no angle structure has it"
            raise MaxIterations(msg, residual=rep.residual)
        solutions.append(rep.metric.values)
    if len(solutions) < 2:
        raise last_error
    dist = float(np.ptp(np.array(solutions), axis=0).max())
    return RigidityReport(n_starts, dist, dist <= tol, seed, failed)

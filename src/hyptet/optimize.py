"""Volume maximization, its dual curvature-prescription solve, and rigidity.

Primal: maximize the total hyperbolic volume over the assignment polytope
for a cone target ``k`` (a strictly concave problem on the free-variable
chart) by a log-barrier interior-point method.  The volume Hessian in the
free chart is closed form, because the Lobachevsky function has second
derivative ``-cot``.

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
from scipy.linalg import null_space

from ._kernels import (
    extended_angles_batch,
    phi_batch,
    volume2_batch,
    volume_gradient_batch,
)
from .errors import MaxIterations, NoInteriorStart
from .structures import (
    FeasibilityStatus,
    SLOT_COEF,
    SLOT_CONST,
    assemble,
    find_interior,
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
#: outer products c_j c_j^T of the slot coefficient rows, flattened to (6, 9)
_SLOT_OUTER = np.einsum("jp,jq->jpq", SLOT_COEF, SLOT_COEF).reshape(6, 9)


@dataclass
class PrimalReport:
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


def _newton(x, oracle, Z, tol, max_iter, max_step=None):
    """Damped Newton descent on a smooth convex objective over ``x + span(Z)``.

    ``oracle(x)`` returns ``(f, g, res, hess)``: the objective, its full
    gradient, the residual the run drives to ``tol`` or below, and a
    callable giving the reduced Hessian ``Z^T H Z``, called only at
    accepted points; an oracle whose Hessian is only semidefinite returns
    it regularized.  Each step solves ``Z^T H Z dy = -Z^T g`` (steepest
    descent when that fails to descend), is cut to
    ``max_step(x, dx)`` when given, and is halved until the Armijo test
    holds or the residual halves with ``f`` flat to float noise -- near the
    optimum the decrease of ``f`` is below float resolution while the
    analytic gradient still is not.  A failed line search, an accepted step
    that moves ``x`` by float noise only, or an escape (see ``_ESCAPE``)
    stalls the run.
    """
    f, g, res, hess = oracle(x)
    trace = [f]
    history = [res]
    it = 0
    while res > tol and it < max_iter:
        it += 1
        gy = Z.T @ g
        try:
            dy = np.linalg.solve(hess(), -gy)
        except np.linalg.LinAlgError:
            dy = None
        if dy is None or not np.all(np.isfinite(dy)) or float(gy @ dy) >= 0.0:
            dy = -gy
        dx = Z @ dy
        slope = float(gy @ dy)
        a = 1.0 if max_step is None else max_step(x, dx)
        for _ in range(_BACKTRACKS):
            x_try = x + a * dx
            f_try, g_try, res_try, hess_try = oracle(x_try)
            if f_try <= f + 1e-4 * a * slope or (
                res_try <= 0.5 * res and f_try <= f + 1e-12 * (1.0 + abs(f))
            ):
                break
            a *= 0.5
        else:
            return _Run(x, f, res, it, trace)
        noise = 4.0 * _EPS * (1.0 + float(np.max(np.abs(x))))
        moved = float(np.max(np.abs(x_try - x))) > noise
        x, f, g, res, hess = x_try, f_try, g_try, res_try, hess_try
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
    sc = T.slot_class
    index = (np.repeat(sc, 6, axis=1) * E + np.tile(sc, 6)).ravel()
    blocks = _covolume_hessian_batch(L, h).ravel()
    return np.bincount(index, weights=blocks, minlength=E * E).reshape(E, E)


def _near_flat_flags(angles, tol=1e-6):
    flags = []
    for row in angles:
        d = min(float(np.max(np.abs(row - p))) for p in FLAT_PATTERNS)
        flags.append(d <= tol)
    return flags


def maximize_volume(T, k, tol=1e-8, max_inner=150, u0=None):
    """Log-barrier maximization of total volume over the polytope for ``k``.

    Needs a strictly interior start: ``u0`` (three free angles per
    tetrahedron) when given, otherwise the max-slack feasibility LP
    witness.  Each barrier weight runs at most ``max_inner`` Newton steps
    on the closed-form free-chart Hessian.  On success the KKT residual --
    the max of the projected stationarity norm and the final barrier weight
    (= complementarity) -- is at most ``tol``.
    """
    cs = assemble(T, k)
    n = T.n_tetrahedra
    if u0 is not None:
        u = np.asarray(u0, dtype=np.float64).reshape(3 * n).copy()
        if float(np.max(np.abs(cs.a_eq @ u - cs.b_eq))) > 1e-8:
            raise NoInteriorStart("u0 violates the edge equations")
        # land exactly on the equality manifold before the barrier runs
        u -= np.linalg.lstsq(cs.a_eq, cs.a_eq @ u - cs.b_eq, rcond=None)[0]
        if np.any(cs.constraint_values(u) <= 0.0):
            raise NoInteriorStart("u0 is not strictly interior")
    else:
        fr = find_interior(T, k)
        if fr.status is not FeasibilityStatus.INTERIOR_FOUND:
            raise NoInteriorStart(f"feasibility status: {fr.status.value}")
        u = fr.witness.values[:, :3].ravel().copy()

    Z = null_space(cs.a_eq)
    if Z.shape[1] == 0:
        ang = cs.expand(u)
        vol = 0.5 * float(volume2_batch(ang.values).sum())
        return PrimalReport(ang, vol, 0.0, _near_flat_flags(ang.values), 0, [vol])
    Z3 = Z.reshape(n, 3, -1)
    eye3 = np.eye(3)

    def barrier_oracle(mu):
        # minimize -(vol + mu * sum log c) over the equality manifold
        def oracle(u_vec):
            c = cs.constraint_values(u_vec)
            slack = c[3 * n :]
            A = cs.expand(u_vec).values
            f = -0.5 * float(volume2_batch(A).sum()) - mu * float(np.sum(np.log(c)))
            g = -volume_gradient_batch(A).ravel() - mu * (
                1.0 / u_vec - np.repeat(1.0 / slack, 3)
            )

            def hess():
                B = -_volume_hessian(A) + mu * (
                    eye3 / u_vec.reshape(n, 3, 1) ** 2
                    + 1.0 / slack[:, None, None] ** 2
                )
                return Z.T @ (B @ Z3).reshape(3 * n, -1)

            return f, g, float(np.max(np.abs(Z.T @ g))), hess

        return oracle

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

    iterations = 0
    trace = []
    for mu in mus:
        run = _newton(
            u, barrier_oracle(mu), Z, max(0.1 * mu, 1e-13), max_inner, max_step
        )
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
    P = T.gauge_projector
    slot_class = T.slot_class
    n_edges = T.n_edge_classes
    w, V = np.linalg.eigh(P)
    Z = V[:, w > 0.5]

    def oracle(x):
        L = np.ascontiguousarray(x[slot_class])
        A = extended_angles_batch(L)
        obj = float(volume2_batch(A).sum() + np.sum(A * L)) - float(k_vals @ x)
        cone = np.bincount(
            slot_class.ravel(), weights=A.ravel(), minlength=n_edges
        )
        g = cone - k_vals
        res = float(np.max(np.abs(g)))

        def hess():
            # PSD only: shift by the residual, which vanishes at the solution
            H = Z.T @ _dual_hessian(T, L) @ Z
            H[np.diag_indices_from(H)] += min(res, 1.0)
            return H

        return obj, g, res, hess

    if x0 is None:
        x = np.zeros(n_edges)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n_edges,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite vector over the edge classes")
        x = P @ x0
    run = _newton(x, oracle, Z, tol, max_iter)
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

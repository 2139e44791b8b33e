"""Volume maximization, its dual curvature-prescription solve, and rigidity.

Primal: maximize the total hyperbolic volume over the assignment polytope
for a cone target ``k`` (a strictly concave problem on the free-variable
chart) by a log-barrier interior-point method.  The volume Hessian in the
free chart is closed form, because the Lobachevsky function has second
derivative ``-cot``, so the barrier Hessian ``B`` is block diagonal with
one 3x3 block per tetrahedron, inverted in closed form.  Newton steps on
the sparse edge equations ``A = T.a_eq`` are range-space
(Schur-complement) steps: ``T.factor`` of the blocks ``B^-1``, an LU of
``A B^-1 A^T`` bordered by the gauge matrix, replaces any basis of the
null space of ``A`` (Nocedal & Wright, *Numerical Optimization*, ch. 16),
and ``T.solve_eye`` is the null-space projector's LU.  ``_Barrier.step``
takes that step; with the edge-equation residual on its right-hand side it
also carries a start that is only inside the inequalities onto the edge
equations (an infeasible-start phase one), so the feasibility LP runs only
when that phase fails.

Dual: minimize the convex C^1 energy ``sum_tet covolume - <k, l>`` over
metrics in the orthogonal complement of the gauge; its gradient is
``cone_angles(extended angles) - k`` and its Hessian is ``A X A^T`` for the
co-volume blocks ``X = (-2 H)^-1`` (Schlaefli, ``H`` the volume Hessian),
PSD with the gauge as kernel: ``T.factor`` of ``X`` too, whose border keeps
each step off the gauge; ``T.project`` maps only the start and the result.
Every LU is the triangulation's, built once for it.
The energy is unbounded below exactly when no closed angle assignment has
cone angles ``k``, and the dual stops at the first point it evaluates
that certifies this (a Farkas vector).

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

from ._kernels import extended_angles_batch, volume2_batch, volume_gradient_batch
from .errors import MaxIterations, NoInteriorStart
from .structures import (
    FeasibilityStatus,
    Membership,
    _check_tol,
    _reach,
    assemble,
    find_interior,
    is_member,
)
from .tetra import (
    CELL_VERTICES,
    SLACK_COEF,
    _cell_slacks,
    _covolume_block,
    _near_flat,
    _slot_angles,
    _volume_hessian,
)
from .triangulation import AngleAssignment, GeneralizedMetric, admissible_cone_values


def __getattr__(name):
    # ``perfbench/tracing.py`` still traces ``optimize.null_space``, which no
    # code here calls; resolved on access, it loads scipy.linalg only for the
    # tracer.  ROADMAP item 4 deletes the tracer's name, and this hook with it.
    if name == "null_space":
        from scipy.linalg import null_space

        return null_space
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


PI = math.pi
_EPS = float(np.finfo(np.float64).eps)
#: step halvings before a line search counts as failed
_BACKTRACKS = 40
#: infeasible-start Newton steps before ``maximize_volume`` falls back to
#: the feasibility LP
_PHASE_ONE = 20
#: Newton steps per barrier weight in ``maximize_volume``
_INNER = 150
#: Newton steps of ``solve_cone_angles`` before it gives up
_DUAL_STEPS = 1000
#: the six distinct entries of a symmetric 3x3, spread over its rows
_SYM3 = [0, 1, 2, 1, 3, 4, 2, 4, 5]


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
    on the feasible directions (projected, or raw where ``step`` keeps to
    them), the residual the run drives to ``tol`` or below, and a callable
    giving the Newton direction in ``x`` coordinates, called only at accepted
    points; an oracle whose Hessian is only semidefinite regularizes it.
    Each step takes that direction (``-pg`` when its solve fails or it does
    not descend), is cut to ``max_step(x, dx)`` when given, and is halved
    until the Armijo test holds or the residual halves with ``f`` flat to
    float noise -- near the optimum the decrease of ``f`` is below float
    resolution while the analytic gradient still is not.  A failed line
    search or an accepted step that moves ``x`` by float noise only stalls
    the run.  An oracle that raises ``_Stop`` ends the run at its point,
    flagged ``stopped``.
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


def _sym3_inverse(B):
    """Inverses of the symmetric 3x3 blocks ``B`` (n, 3, 3) in closed form,
    flattened row by row to (n, 9).

    ``B = L D L^T`` with ``L`` unit lower triangular (``p, q, r`` below its
    diagonal) and ``D = diag(d1, d2, d3)``, so ``B^-1 = sum_k l_k l_k^T / d_k``
    over the rows ``l_k`` of ``L^-1``.  Without pivoting this is backward
    stable for positive definite blocks, as the barrier's are; the adjugate
    is not, and loses ``cond(B)^2 eps`` near the apex wall, where a barrier
    block is a large multiple of ``1 1^T`` plus a small part.  A block with
    a pivot of 0 or not finite (determinant ``d1 d2 d3``) raises
    ``LinAlgError``, as ``np.linalg.inv`` does for a singular matrix, and
    warns of nothing.
    """
    a, b, c = B[:, 0, 0], B[:, 0, 1], B[:, 0, 2]
    d, e, f = B[:, 1, 1], B[:, 1, 2], B[:, 2, 2]
    with np.errstate(all="ignore"):
        p, q = b / a, c / a
        d2 = d - p * b
        r = (e - q * b) / d2
        d3 = f - q * c - r * (e - q * b)
        w = p * r - q
        i1, i2, i3 = 1.0 / a, 1.0 / d2, 1.0 / d3
        inv = np.stack(
            [i1 + p * p * i2 + w * w * i3, -p * i2 - w * r * i3, w * i3,
             i2 + r * r * i3, -r * i3, i3],
            axis=1,
        )[:, _SYM3]
    pivots = np.concatenate([a, d2, d3])
    if not (np.all(np.isfinite(pivots) & (pivots != 0.0)) and np.all(np.isfinite(inv))):
        raise np.linalg.LinAlgError("Singular matrix")
    return inv


def _barrier_hessian(A, c, mu):
    """Hessian blocks (n, 3, 3) of ``-(vol + mu * sum log c)`` in the free
    chart, at slot angles ``A`` and the cell slacks ``c`` (n, 4) of
    ``tetra._cell_slacks``: three free angles, then the apex slack."""
    u, slack = c[:, :3, None], c[:, 3:, None]
    return -_volume_hessian(A) + mu * (np.eye(3) / u**2 + 1.0 / slack**2)


def _blockmul(inv, v):
    """``B^-1 v`` for the block inverses ``inv`` (n, 3, 3), ``v`` (3n,)."""
    return np.einsum("tij,tj->ti", inv, v.reshape(-1, 3)).ravel()


class _Barrier:
    """The log-barrier problems ``-(vol + mu * sum log c)``,
    ``c = _cell_slacks(u)``, of one primal solve over the edge equations
    ``T.a_eq u = b_eq``: the gradient and Newton step of any weight ``mu``,
    and one oracle per weight.

    It holds the cell terms of the last point evaluated -- the slot angles,
    twice the volume and its gradient -- which a step, a new weight's start
    and the volume trace read again instead of recomputing.
    """

    def __init__(self, T, b_eq):
        self.T, self.b_eq = T, b_eq
        self._last = None

    def cells(self, u):
        """Slot angles, twice the volume and its gradient (3n,) at ``u``."""
        if self._last is None or not np.array_equal(self._last[0], u):
            A = _slot_angles(u)
            vol2 = float(volume2_batch(A).sum())
            self._last = u.copy(), A, vol2, volume_gradient_batch(A).ravel()
        return self._last[1:]

    def gradient(self, u, mu):
        """The cell slacks (n, 4) and the barrier gradient (3n,) at ``u``."""
        c = _cell_slacks(u)
        return c, -self.cells(u)[2] - mu * (1.0 / c[:, :3] - 1.0 / c[:, 3:]).ravel()

    def step(self, u, mu):
        """The Newton direction of the weight ``mu`` at ``u``: the range-space
        step ``dx = -B^-1 (g + A^T lam)``, ``A B^-1 A^T lam = r - A B^-1 g``
        (``T.factor`` of the blocks ``B^-1``), for the barrier Hessian ``B``
        (one positive definite 3x3 block per tetrahedron) and the edge
        residual ``r = A u - b_eq``.  As ``A dx = -r``, it is the feasible
        Newton step on the equations and the infeasible-start one off them."""
        T = self.T
        c, g = self.gradient(u, mu)
        inv = _sym3_inverse(_barrier_hessian(self.cells(u)[0], c, mu)).reshape(-1, 3, 3)
        w = _blockmul(inv, g)
        r = T.a_eq @ u - self.b_eq
        return _blockmul(inv, T.a_eq_t @ T.factor(inv)(T.a_eq @ w - r)) - w

    def oracle(self, mu):
        """Oracle of the weight ``mu``: the barrier, its gradient projected
        onto the null space of the edge equations, and ``step``."""
        T = self.T

        def oracle(u_vec):
            c, g = self.gradient(u_vec, mu)
            f = -0.5 * self.cells(u_vec)[1] - mu * float(np.sum(np.log(c)))
            pg = g - T.a_eq_t @ T.solve_eye(T.a_eq @ g)
            return f, pg, float(np.max(np.abs(pg))), lambda: self.step(u_vec, mu)

        return oracle


def _equation_oracle(barrier, mu):
    """Oracle of ``|a_eq u - b_eq|^2 / 2`` whose step is ``barrier.step`` at ``mu``.

    From ``u`` strictly inside the inequalities, the barrier's Newton
    direction also cancels the edge-equation residual ``r``, so a run cut by
    the fraction-to-boundary rule lands on the equations at its first full
    step (an infeasible-start phase one; Boyd & Vandenberghe, *Convex
    Optimization*, sec. 10.3).  The residual is ``max|r|``.  A point on the
    boundary to rounding raises ``_Stop``: the barrier would divide by 0.
    """
    T, b_eq = barrier.T, barrier.b_eq

    def oracle(u_vec):
        r = T.a_eq @ u_vec - b_eq
        f = 0.5 * float(r @ r)
        res = float(np.max(np.abs(r)))
        edge = min(np.min(_cell_slacks(u_vec)), np.min(_slot_angles(u_vec)))
        if edge <= 0.0:
            raise _Stop(u_vec, f, res)
        return f, T.a_eq_t @ r, res, lambda: barrier.step(u_vec, mu)

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
    Newton steps on the closed-form free-chart Hessian (see ``T.factor``);
    no dense matrix over the 3n free angles is formed.  On success the KKT
    residual -- the max of the stationarity residual ``max|P g|`` (``P`` the
    orthogonal projector onto the null space of the edge equations, ``g``
    the barrier gradient) and the final barrier weight (= complementarity)
    -- is at most ``tol``.
    """
    _check_tol(tol)
    b_eq = assemble(T, k)
    n = T.n_tetrahedra
    barrier = _Barrier(T, b_eq)

    if u0 is not None:
        u = np.array(u0, dtype=np.float64).reshape(-1)
        if u.size != 3 * n or not np.all(np.isfinite(u)):
            raise ValueError(
                "u0 must be a finite vector of three free angles per tetrahedron"
            )
        if float(np.max(np.abs(T.a_eq @ u - b_eq))) > 1e-8:
            raise NoInteriorStart("u0 violates the edge equations")
        if np.any(_cell_slacks(u) <= 0.0):
            raise NoInteriorStart("u0 is not strictly interior")
    else:
        u = np.full(3 * n, PI / 4.0)

    def max_step(u_vec, du):
        # fraction-to-boundary rule on the cell slacks, affine in u
        return _reach(0.995 * _cell_slacks(u_vec), du.reshape(n, 3) @ SLACK_COEF.T)

    mu_final = max(tol / 10.0, 1e-13)
    mus = []
    m = 1e-1
    while m > mu_final * 1.0000001:
        mus.append(m)
        m *= 0.1
    mus.append(mu_final)

    run = _newton(u, _equation_oracle(barrier, mus[0]), 1e-8, _PHASE_ONE, max_step)
    u, iterations = run.x, run.iterations
    if is_member(T, _slot_angles(u), k, tol=1e-8)[0] is not Membership.INTERIOR:
        fr = find_interior(T, k)
        if fr.status is not FeasibilityStatus.INTERIOR_FOUND:
            raise NoInteriorStart(f"feasibility status: {fr.status.value}")
        u = fr.witness.values[:, :3].ravel().copy()

    trace = []
    for mu in mus:
        run = _newton(u, barrier.oracle(mu), max(0.1 * mu, 1e-13), _INNER, max_step)
        u = run.x
        iterations += run.iterations
        trace.append(0.5 * barrier.cells(u)[1])

    kkt = max(run.res, mu_final)
    if kkt > tol:
        raise MaxIterations(
            f"barrier maximization stalled at residual {kkt:.3e}", residual=kkt
        )
    A = _slot_angles(u)
    return PrimalReport(
        AngleAssignment(A),
        trace[-1],
        kkt,
        _near_flat(A, 1e-6).tolist(),
        iterations,
        trace,
    )


def solve_cone_angles(T, k, tol=1e-8, x0=None):
    """Prescribe cone angles by minimizing the convex metric energy.

    Damped Newton steps in the orthogonal complement of the gauge, from
    ``x0`` projected there; each is ``T.factor``'s solve of
    ``(H + s I) dx = -g``, ``H`` the summed co-volume blocks and
    ``s = min(res, 1)``, whose gauge border alone keeps ``dx`` there.
    ``T.project`` maps only the start and the reported metric.  Succeeds
    when the cone angles match ``k`` to ``tol`` in max norm.

    Every point the run evaluates, line-search trial points included, is a
    candidate Farkas vector: with ``L = x[slot_class]`` and ``v`` over the
    vertices of a cell's closed angle polytope, any angle assignment with
    cone angles ``k`` has ``k . x = sum_t <a_t, L_t> <= sum_t max_v <v, L_t>``
    (Boyd & Vandenberghe, *Convex Optimization*, sec. 5.8), and the energy
    is at least the right side minus ``k . x``.  Where ``k . x`` exceeds it
    by the rounding margin ``1e-9 (1 + k . |x| + pi sum |L|)`` the run stops
    with that point as a report flagged ``diverged``, never as a solution.
    """
    _check_tol(tol)
    k_vals = admissible_cone_values(T, k)
    slot_class = T.slot_class
    n_edges = T.n_edge_classes

    def oracle(x):
        L = x[slot_class]
        A = extended_angles_batch(L)
        kx = float(k_vals @ x)
        obj = float(volume2_batch(A).sum() + np.sum(A * L)) - kx
        g = T.edge_sums(A) - k_vals
        res = float(np.max(np.abs(g)))
        support = float((L @ CELL_VERTICES).max(axis=1).sum())
        scale = 1.0 + float(k_vals @ np.abs(x)) + PI * float(np.abs(L).sum())
        if kx - support > 1e-9 * scale:
            raise _Stop(x, obj, res)
        return obj, g, res, lambda: T.factor(_covolume_block(A), min(res, 1.0))(-g)

    if x0 is None:
        x = np.zeros(n_edges)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n_edges,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a finite vector over the edge classes")
        x = T.project(x0)
    run = _newton(x, oracle, tol, _DUAL_STEPS)
    if run.res > tol and not run.stopped:
        what = "stalled" if run.iterations < _DUAL_STEPS else "hit the iteration cap"
        raise MaxIterations(
            f"dual solve {what} at residual {run.res:.3e}", residual=run.res
        )
    return DualReport(
        GeneralizedMetric(T.project(run.x)),
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
    _check_tol(tol)
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
    _check_tol(tol)
    if n_starts < 2:
        raise ValueError("rigidity check needs at least two starts")
    # the starts solve 100x tighter; the least subnormal keeps that positive
    # where ``tol * 1e-2`` underflows
    inner_tol = max(tol * 1e-2, math.ulp(0.0))
    rng = np.random.default_rng(seed)
    solutions = []
    failed = []
    last_error = None
    for s in range(n_starts):
        x0 = rng.uniform(-1.0, 1.0, T.n_edge_classes)
        try:
            rep = solve_cone_angles(T, k, tol=inner_tol, x0=x0)
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

"""Hessian oracles of the shared Newton core, its linear algebra and its
iteration and work counts."""

import gc
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)
from scipy import sparse
from scipy.linalg import block_diag, null_space
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from hyptet import (
    AngleAssignment,
    Membership,
    RegionLabel,
    angles_to_lengths,
    assemble,
    classify,
    cone_angles,
    covolume_hessian,
    curvature,
    duality_gap,
    find_interior,
    gauge_project,
    is_member,
    maximize_volume,
    rigidity_check,
    solve_cone_angles,
    validate,
)
from hyptet import optimize, triangulation
from hyptet._kernels import (
    extended_angles_batch,
    phi_batch,
    volume2_batch,
    volume_gradient_batch,
)
from hyptet.optimize import (
    _Barrier,
    _barrier_hessian,
    _newton,
    _sym3_inverse,
)
from hyptet.selftest import sample_interior_angles
from hyptet.structures import FeasibilityStatus, _schur
from hyptet.tetra import (
    GAUGE_VECTORS,
    SLOT_COEF,
    SLOT_CONST,
    _cell_slacks,
    _covolume_block,
    _covolume_hessian,
    _slot_angles,
    _volume_hessian,
)
from hyptet.triangulation import double_document

FIXTURES = {
    "cover4": lambda: cover_document(4),
    "cover16": lambda: cover_document(16),
    "random16": random_gluing_document,
    "snake": snake_document,
    "double": double_document,
    "double2": disjoint_double_document,
}


def _interior_target(T, rng):
    angles = sample_interior_angles(rng, T.n_tetrahedra)
    return angles, cone_angles(T, AngleAssignment(angles))


def _fd_covolume_hessian(lengths, h):
    """Co-volume Hessians of the rows of ``lengths``, (n, 6, 6), by
    symmetrized central differences of the extended angles with step ``h``:
    the reference the closed form is checked against."""
    L = np.asarray(lengths, dtype=np.float64)
    shift = h * np.eye(6)
    pts = np.concatenate([L[:, None, :] + shift, L[:, None, :] - shift], axis=1)
    grads = extended_angles_batch(pts.reshape(-1, 6)).reshape(-1, 12, 6)
    hess = (grads[:, :6] - grads[:, 6:]) / (2.0 * h)
    return 0.5 * (hess + hess.transpose(0, 2, 1))


def _slot_sum(T, blocks):
    """``S`` of ``T.factor``: slot blocks (n, 6, 6) summed densely over
    the edge classes, (E, E)."""
    S = np.zeros((T.n_edge_classes, T.n_edge_classes))
    sc = T.slot_class
    np.add.at(S, (sc[:, :, None], sc[:, None, :]), blocks)
    return S


def _dense_dual_hessian(T, L):
    """The dual Hessian over the edge classes, (E, E), summed densely."""
    return _slot_sum(T, _covolume_hessian(extended_angles_batch(L)))


def _primal_blocks(u, mu):
    """The primal step's blocks ``B^-1`` (n, 3, 3) at ``u`` and weight ``mu``."""
    B = _barrier_hessian(_slot_angles(u), _cell_slacks(u), mu)
    return _sym3_inverse(B).reshape(-1, 3, 3)


def _lp_blocks(T, d):
    """The scaled Schur blocks (n, 3, 3) that ``_schur`` factors at weights ``d``."""
    seen = []
    _schur(SimpleNamespace(edge_sums=T.edge_sums, factor=seen.append), d)
    return seen[0]


def test_volume_hessian_matches_fd_of_gradient():
    rng = np.random.default_rng(70)
    U = sample_interior_angles(rng, 200, margin=0.1)[:, :3]
    h = 1e-5
    fd = np.empty((U.shape[0], 3, 3))
    for d in range(3):
        step = np.zeros(3)
        step[d] = h
        gp = volume_gradient_batch((U + step) @ SLOT_COEF.T + SLOT_CONST)
        gm = volume_gradient_batch((U - step) @ SLOT_COEF.T + SLOT_CONST)
        fd[:, :, d] = (gp - gm) / (2.0 * h)
    H = _volume_hessian(U @ SLOT_COEF.T + SLOT_CONST)
    assert np.max(np.abs(H - fd)) <= 1e-7 * (1.0 + np.max(np.abs(H)))
    # strictly concave in the free chart
    assert np.all(np.linalg.eigvalsh(H) < 0.0)


@pytest.mark.parametrize(
    "doc", [snake_document, disjoint_double_document], ids=["snake", "double2"]
)
def test_dual_hessian_psd_with_gauge_kernel(doc):
    T = validate(doc())
    rng = np.random.default_rng(71)
    done = 0
    while done < 5:
        x = rng.uniform(-0.4, 0.4, T.n_edge_classes)
        L = x[T.slot_class]
        if np.max(np.abs(phi_batch(L))) >= 1.0 - 1e-3:
            continue  # keep every cell strictly inside the realizable region
        done += 1
        H = _dense_dual_hessian(T, L)
        norm = float(np.max(np.abs(H)))
        assert np.max(np.abs(H - H.T)) <= 1e-12 * norm
        assert np.linalg.eigvalsh(H)[0] >= -1e-8 * norm
        for v in T.gauge_matrix.toarray().T:
            assert np.linalg.norm(H @ v) <= 1e-6 * norm


def test_covolume_hessian_closed_form_matches_fd():
    # C (-2 H_v)^-1 C^T against the central-difference oracle; h = 1e-5 puts
    # the O(h^2) difference error near 1e-8 on cells with small margins
    rng = np.random.default_rng(77)
    angles = sample_interior_angles(rng, 2000)
    # interior cells within 1e-15..1e-9 of the apex wall: some sums round to pi
    a12, a13 = rng.uniform(0.3, 1.3, (2, 400))
    a14 = np.pi - a12 - a13 - 10.0 ** rng.uniform(-15.0, -9.0, 400)
    wall = np.column_stack([
        a12, a13, a14, (np.pi - a12 - a13 + a14) / 2,
        (np.pi - a12 - a14 + a13) / 2, (np.pi - a13 - a14 + a12) / 2,
    ])
    L = np.array([angles_to_lengths(a) for a in np.vstack([angles, wall])])
    A = extended_angles_batch(L)
    assert np.count_nonzero(A[:, :3].sum(axis=1) >= np.pi) >= 10
    closed = _covolume_hessian(A)
    for H, fd in zip(closed, _fd_covolume_hessian(L, 1e-5)):
        assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_covolume_hessian_vanishes_on_clamped_cells():
    # in the degenerate regions the extended angles are locally constant, so
    # the difference oracle is exactly 0 and the closed form must be too
    rng = np.random.default_rng(78)
    L = rng.uniform(-3.0, 3.0, (4000, 6))
    A = extended_angles_batch(L)
    clamped = np.any((A == 0.0) | (A == np.pi), axis=1)
    fd_zero = ~np.any(_fd_covolume_hessian(L, 1e-4), axis=(1, 2))
    assert np.count_nonzero(fd_zero) >= 1000
    assert np.all(clamped[fd_zero])
    assert not any(classify(l) is RegionLabel.INTERIOR for l in L[clamped])
    H = _covolume_hessian(A)
    assert not np.any(H[clamped])
    assert np.all(np.any(H[~clamped], axis=(1, 2)))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_covolume_hessian_is_the_dual_block(name):
    # the single-cell query and the dual's batched block are one formula: the
    # same bits, with the gauge as kernel to rounding
    T = validate(FIXTURES[name]())
    rng = np.random.default_rng(80)
    x = rng.uniform(-0.4, 0.4, T.n_edge_classes)
    L = np.ascontiguousarray(x[T.slot_class])
    blocks = _covolume_hessian(extended_angles_batch(L))
    interior = [t for t, l in enumerate(L) if classify(l) is RegionLabel.INTERIOR]
    assert len(interior) >= T.n_tetrahedra // 2
    chart = _covolume_block(extended_angles_batch(L))
    for t in interior:
        H = covolume_hessian(L[t])
        assert np.array_equal(H, blocks[t])
        # and the 3x3 block the dual hands T.factor
        single = _covolume_block(extended_angles_batch(L[t : t + 1]))[0]
        assert np.array_equal(single, chart[t])
        norm = float(np.max(np.abs(H)))
        assert np.max(np.abs(H @ GAUGE_VECTORS.T)) <= 1e-12 * norm


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bordered_dual_step_matches_dense_gauge_complement_step(name):
    T = validate(FIXTURES[name]())
    rng = np.random.default_rng(79)
    factor, project = T.factor, T.project
    # dense oracles: the projector I - W (W^T W)^-1 W^T and an orthonormal
    # basis of the gauge complement
    W = T.gauge_matrix.toarray()
    P = np.eye(T.n_edge_classes) - W @ np.linalg.solve(W.T @ W, W.T)
    Z = null_space(W.T)
    # the solver's shift, a near-solution shift, and cells clamped by a wide draw
    for spread, shift in ((0.4, None), (0.4, 1e-6), (3.0, None)):
        _, k = _interior_target(T, rng)
        x = rng.uniform(-spread, spread, T.n_edge_classes)
        L = x[T.slot_class]
        g = cone_angles(T, AngleAssignment(extended_angles_batch(L))).values - k.values
        s = shift or min(float(np.max(np.abs(g))), 1.0)
        pg = project(g)
        assert np.max(np.abs(pg - P @ g)) <= 1e-12 * np.max(np.abs(g))
        dx = factor(_covolume_block(extended_angles_batch(L)), s)(-pg)
        # dense oracle: shifted Newton step in an orthonormal gauge-complement basis
        H = Z.T @ _dense_dual_hessian(T, L) @ Z + s * np.eye(Z.shape[1])
        dense = Z @ np.linalg.solve(H, -Z.T @ g)
        assert np.max(np.abs(dx - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_range_solver_raises_on_a_singular_matrix():
    # zero blocks and s = 0 leave only the gauge border: singular
    T = validate(double_document())
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        T.factor(0.0, 0.0)


def test_newton_stalls_on_a_step_of_float_noise():
    # flat f, a residual that halves per call, and a descent direction that
    # moves x by one ulp: the step is accepted, then the run stalls
    calls = []

    def oracle(x):
        calls.append(x.copy())
        return 0.0, np.full(1, -1.0), 0.5 ** len(calls), lambda: np.full(1, 3e-16)

    run = _newton(np.ones(1), oracle, 1e-12, 50)
    assert run.iterations == 1 and not run.stopped
    assert run.res == 0.25 and run.x[0] == 1.0 + np.finfo(float).eps


@pytest.mark.parametrize(
    "doc",
    [lambda: cover_document(16), snake_document, random_gluing_document],
    ids=["cover16", "snake", "random16"],
)
def test_newton_iteration_counts_stay_small(doc):
    T = validate(doc())
    rng = np.random.default_rng(72)
    for _ in range(3):
        angles = sample_interior_angles(rng, T.n_tetrahedra)
        k = cone_angles(T, AngleAssignment(angles))
        dual = solve_cone_angles(T, k, tol=1e-8)
        assert dual.residual <= 1e-8 and not dual.diverged
        assert dual.iterations <= 30
        primal = maximize_volume(T, k, tol=1e-8)
        assert primal.iterations <= 100


def _apex_rows(apex):
    """Slot-angle rows of the apex triples ``apex``, (n, 3) -> (n, 6)."""
    return SLOT_CONST + np.asarray(apex, dtype=np.float64) @ SLOT_COEF.T


def _above_pi(n, seed):
    # every apex angle in [1.1, 1.4]: each apex sum is above pi, every slot
    # angle stays positive
    return _apex_rows(np.random.default_rng(seed).uniform(1.1, 1.4, (n, 3)))


INFEASIBLE = {
    "double-a": (double_document, lambda n: _apex_rows([[1.5, 1.2, 1.0]] * n)),
    "double-b": (double_document, lambda n: _apex_rows([[0.2, 0.2, 2.8]] * n)),
    "cover16": (lambda: cover_document(16), lambda n: _above_pi(n, 76)),
    "random16": (random_gluing_document, lambda n: _above_pi(n, 77)),
}


def _farkas_gap(T, k, x):
    """``k . x - sum_t max_v <v, x[slot_class]_t>`` over the vertices ``v``
    of each cell's closed angle polytope, the slot maps of the apex
    triples 0, pi e_1, pi e_2, pi e_3."""
    vertices = _apex_rows(np.vstack([np.zeros(3), np.pi * np.eye(3)]))
    support = np.max(x[T.slot_class] @ vertices.T, axis=1).sum()
    return float(k.values @ x) - float(support)


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_dual_certifies_infeasible_target(name):
    # admissible (sum_e k_e fixes sum_t apex_t) but infeasible (that sum is
    # above n pi): the dual must stop with a Farkas certificate
    doc, rows = INFEASIBLE[name]
    T = validate(doc())
    k = cone_angles(T, AngleAssignment(rows(T.n_tetrahedra)))
    assert find_interior(T, k).status is FeasibilityStatus.INFEASIBLE
    rep = solve_cone_angles(T, k, tol=1e-8)
    assert rep.diverged and rep.residual > 1e-8
    assert _farkas_gap(T, k, rep.metric.values) > 1e-9 * (
        1.0 + float(k.values @ np.abs(rep.metric.values))
    )
    assert rep.iterations <= 30


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_gauge_borders_the_edge_equations(name):
    # the range-space step relies on W^T a_eq = 0 and rank a_eq = E - cusps
    T = validate(FIXTURES[name]())
    a_eq = T.a_eq.toarray()
    W = T.gauge_matrix.toarray()
    assert np.max(np.abs(W.T @ a_eq)) == 0.0
    assert np.linalg.matrix_rank(W) == W.shape[1]
    assert np.linalg.matrix_rank(a_eq) == T.n_edge_classes - W.shape[1]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_edge_equations_summed_slot_by_slot(name):
    # each slot adds its chart row at its cell's three free angles to the row
    # of its edge class; no stored zero survives the sums
    T = validate(FIXTURES[name]())
    n = T.n_tetrahedra
    dense = np.zeros((T.n_edge_classes, 3 * n))
    for t in range(n):
        for j in range(6):
            dense[T.slot_class[t, j], 3 * t : 3 * t + 3] += SLOT_COEF[j]
    assert T.a_eq.format == "csr"
    assert np.array_equal(T.a_eq.toarray(), dense)
    assert T.a_eq.nnz == np.count_nonzero(dense)
    # the transpose is a view: no second copy of the matrix is kept
    assert T.a_eq_t.format == "csc"
    assert np.array_equal(T.a_eq_t.toarray(), dense.T)
    assert np.shares_memory(T.a_eq_t.data, T.a_eq.data)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sparse_primal_step_matches_dense_null_space_step(name):
    T = validate(FIXTURES[name]())
    n = T.n_tetrahedra
    rng = np.random.default_rng(75)
    for mu in (1e-1, 1e-3, 1e-6):
        angles, k = _interior_target(T, rng)
        u = angles[:, :3].ravel()
        _, pg, res, step = _Barrier(T, assemble(T, k)).oracle(mu)(u)
        dx = step()

        # dense oracle: Newton step in an orthonormal null-space basis
        slack = np.pi - u.reshape(n, 3).sum(axis=1)
        g = -volume_gradient_batch(angles).ravel() - mu * (
            1.0 / u - np.repeat(1.0 / slack, 3)
        )
        B = block_diag(
            *(-_volume_hessian(angles) + mu * (
                np.eye(3) / u.reshape(n, 3, 1) ** 2
                + 1.0 / slack[:, None, None] ** 2
            ))
        )
        Z = null_space(T.a_eq.toarray())
        dense = -Z @ np.linalg.solve(Z.T @ B @ Z, Z.T @ g)
        assert np.max(np.abs(dx - dense)) <= 1e-10 * np.max(np.abs(dense))
        assert np.max(np.abs(pg - Z @ (Z.T @ g))) <= 1e-10 * np.max(np.abs(g))
        assert res == np.max(np.abs(pg))


def test_maximize_cover512_solves():
    # the dense null-space chart failed here with "SVD did not converge"; the
    # dual solves the same target on the bordered sparse step
    T = validate(cover_document(512))
    _, k = _interior_target(T, np.random.default_rng(76))
    rep = maximize_volume(T, k, tol=1e-6)
    assert rep.kkt_residual <= 1e-6
    verdict, _ = is_member(T, rep.maximizer, k)
    assert verdict is not Membership.OUTSIDE
    dual = solve_cone_angles(T, k, tol=1e-6)
    assert dual.residual <= 1e-6 and not dual.diverged
    assert np.max(np.abs(curvature(T, dual.metric) - (2.0 * np.pi - k.values))) <= 1e-5


def _solver_systems(T, rng):
    """(label, blocks, s) of every kind of system the solvers factor: primal
    blocks at the start and at the last iterate of a barrier run, the LP's
    Schur blocks at weights spread over 1e-8..1e8, the dual's co-volume
    blocks with its shift ``min(res, 1)``, at cells inside and clamped by a
    wide draw, and the blocks of ``solve_eye`` and ``project``."""
    angles, k = _interior_target(T, rng)
    last = maximize_volume(T, k, tol=1e-8).maximizer.values[:, :3].ravel()
    even = rng.uniform(0.5, 2.0, (T.n_tetrahedra, 4))
    weights = 10.0 ** rng.uniform(-8.0, 8.0, (T.n_tetrahedra, 4))
    out = [
        ("primal start", _primal_blocks(angles[:, :3].ravel(), 1e-1), 0.0),
        ("primal last", _primal_blocks(last, 1e-9), 0.0),
        ("lp even", _lp_blocks(T, even), 0.0),
        ("lp spread", _lp_blocks(T, weights), 0.0),
        ("solve_eye", np.eye(3), 0.0),
        ("projector", 0.0, 1.0),
    ]
    for spread in (0.4, 3.0):
        x = rng.uniform(-spread, spread, T.n_edge_classes)
        A = extended_angles_batch(x[T.slot_class])
        res = float(np.max(np.abs(T.edge_sums(A) - k.values)))
        out.append((f"dual {spread}", _covolume_block(A), min(res, 1.0)))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bordered_solve_residual(name):
    # for W^T r = 0 the bordered solve is the x with (A X A^T + s I) x = r and
    # W^T x = 0; thresholded pivoting must keep it accurate on every kind of
    # block the solvers pass, each checked against its own dense A X A^T
    T = validate(FIXTURES[name]())
    rng = np.random.default_rng(83)
    A = T.a_eq.toarray()
    W = T.gauge_matrix.toarray()
    P = np.eye(T.n_edge_classes) - W @ np.linalg.solve(W.T @ W, W.T)
    for label, blocks, s in _solver_systems(T, rng):
        X = block_diag(*np.broadcast_to(blocks, (T.n_tetrahedra, 3, 3)))
        S = A @ X @ A.T
        r = P @ rng.standard_normal(T.n_edge_classes)
        x = T.factor(blocks, s)(r)
        scale = float(np.max(np.abs(r)))
        if label == "lp spread":
            # weights over 16 decades leave A X A^T singular to float
            # precision: there the solve can only be backward stable
            scale += float(np.max(np.abs(S))) * float(np.max(np.abs(x)))
        assert np.max(np.abs(S @ x + s * x - r)) <= 1e-10 * scale, label
        assert np.max(np.abs(W.T @ x)) <= 1e-10 * float(np.max(np.abs(x))), label


def test_factor_builds_no_matrix_per_call(monkeypatch):
    # the builder makes the one CSC pattern; a call hands SuperLU a copy
    # with its own values and the shared index arrays, so no call constructs
    # a matrix or writes one an earlier LU was made from, and an LU made
    # before later ones, or beside them in other threads, still solves as a
    # fresh factorization does
    T = validate(cover_document(16))
    rng = np.random.default_rng(90)
    factor, built, seen = T.factor, [], []
    for cls in (sparse.csc_matrix, sparse.csc_array):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *a, init=init, **kw: built.append(1) or init(self, *a, **kw),
        )
    monkeypatch.setattr(
        triangulation, "splu",
        lambda A, **kw: seen.append((A, A.data.copy())) or splu(A, **kw),
    )
    angles, _ = _interior_target(T, rng)
    blocks = _primal_blocks(angles[:, :3].ravel(), 1e-3)
    r = T.project(rng.standard_normal(T.n_edge_classes))
    first = factor(blocks)
    x = first(r)
    T.solve_eye(r)
    y = factor(2.0 * blocks, 1.0)(r)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = pool.map(lambda c: factor(c * blocks, c - 1.0)(r), [1.0, 2.0] * 128)
            runs = [run.tobytes() for run in runs]
    finally:
        sys.setswitchinterval(switch)
    assert built == []
    assert first(r).tobytes() == x.tobytes() == factor(blocks)(r).tobytes()
    assert runs == [x.tobytes(), y.tobytes()] * 128
    assert len({id(A) for A, _ in seen}) == len(seen)
    assert all(A.indices is seen[0][0].indices for A, _ in seen)
    assert all(np.array_equal(A.data, data) for A, data in seen)


def _barrier_blocks(rng, n, mu, apex=None, gap=None):
    """Barrier Hessian blocks at ``n`` seeded interior cells; ``apex`` and
    ``gap``, ranges of log10 distances, put each cell's a12 or its apex
    slack that close to 0."""
    U = sample_interior_angles(rng, n)[:, :3].copy()
    if apex is not None:
        U[:, 0] = 10.0 ** rng.uniform(*apex, n)
    if gap is not None:
        U[:, 2] = np.pi - U[:, :2].sum(axis=1) - 10.0 ** rng.uniform(*gap, n)
    c = np.concatenate([U.ravel(), np.pi - U.sum(axis=1)])
    assert np.all(c > 0.0)
    return _barrier_hessian(U @ SLOT_COEF.T + SLOT_CONST, c, mu)


def test_block_inverse_matches_linalg_inv():
    rng = np.random.default_rng(84)
    for mu in (1e-1, 1e-6, 1e-13):
        B = np.concatenate([
            _barrier_blocks(rng, 300, mu), _barrier_blocks(rng, 300, mu, apex=(-14, -4))
        ])
        ref = np.linalg.inv(B).reshape(-1, 9)
        err = np.max(np.abs(_sym3_inverse(B) - ref), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))
    # near the apex-sum wall a block is a large multiple of 1 1^T plus a small
    # part, and two inverses agree only to cond(B) eps (np.linalg.inv's
    # included): there the closed form must be as backward stable as an LU
    for mu, gap in ((1e-1, (-3, -2)), (1e-6, (-7, -2)), (1e-13, (-12, -2))):
        B = _barrier_blocks(rng, 600, mu, gap=gap)
        X = _sym3_inverse(B).reshape(-1, 3, 3)
        scale = np.max(np.abs(B), axis=(1, 2)) * np.max(np.abs(X), axis=(1, 2))
        assert np.all(np.max(np.abs(B @ X - np.eye(3)), axis=(1, 2)) <= 1e-14 * scale)


@pytest.mark.parametrize(
    "block",
    [np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, np.nan, 1.0]),
     np.diag([1.0, np.inf, 1.0])],
    ids=["zero", "rank-one", "nan", "inf"],
)
def test_block_inverse_rejects_singular_blocks(block):
    # as np.linalg.inv does, and without a warning: _newton then takes the
    # gradient step, as on the boundary targets maximize_volume must reject
    B = np.stack([np.eye(3), block, 2.0 * np.eye(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            _sym3_inverse(B)


@pytest.mark.parametrize(
    "doc",
    [lambda: cover_document(64), random_gluing_document],
    ids=["cover64", "random16"],
)
def test_solver_work_counts(doc, monkeypatch):
    # one LU per Newton step plus the projector's, and the cell kernels once
    # per distinct point: recomputation or per-trial factoring fails here
    T = validate(doc())
    _, k = _interior_target(T, np.random.default_rng(85))
    lus, volumes, gradients = [], [], []

    def counted_splu(*args, **kwargs):
        lus.append(None)
        return splu(*args, **kwargs)

    def counted(kernel, points):
        def run(A):
            points.append(A.tobytes())
            return kernel(A)

        return run

    monkeypatch.setattr(triangulation, "splu", counted_splu)
    monkeypatch.setattr(optimize, "volume2_batch", counted(volume2_batch, volumes))
    monkeypatch.setattr(
        optimize, "volume_gradient_batch", counted(volume_gradient_batch, gradients)
    )
    rep = maximize_volume(T, k, tol=1e-8)
    assert len(lus) == rep.iterations + 1
    assert len(volumes) == len(set(volumes)) and gradients == volumes
    lus.clear()
    dual = solve_cone_angles(T, k, tol=1e-8)
    assert len(lus) == dual.iterations + 1


def test_one_build_per_triangulation(monkeypatch):
    # the edge equations, the bordered pattern, its order and the projectors'
    # LUs belong to the triangulation: every mix of targets, solves, starts
    # and projections shares them
    T = validate(cover_document(64))
    _, k = _interior_target(T, np.random.default_rng(86))
    _, k2 = _interior_target(T, np.random.default_rng(88))
    a_eq, a_eq_t = T.a_eq, T.a_eq_t
    orders, lus = [], []

    def counted(fn, calls):
        def run(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(
        triangulation, "reverse_cuthill_mckee", counted(reverse_cuthill_mckee, orders)
    )
    monkeypatch.setattr(triangulation, "splu", counted(splu, lus))
    assert not np.array_equal(assemble(T, k), assemble(T, k2))
    assert find_interior(T, k2).status is FeasibilityStatus.INTERIOR_FOUND
    maximize_volume(T, k, tol=1e-8)
    solve_cone_angles(T, k, tol=1e-8)
    rigidity_check(T, k, n_starts=3)
    duality_gap(T, k, tol=1e-8)
    gauge_project(T, np.ones(T.n_edge_classes))
    assert T.gauge_projector.shape == (T.n_edge_classes, T.n_edge_classes)
    assert len(orders) == 1
    assert vars(T)["a_eq"] is a_eq and vars(T)["a_eq_t"] is a_eq_t
    lus.clear()
    dual = solve_cone_angles(T, k, tol=1e-8)
    assert len(lus) == dual.iterations
    # one LU per Newton step, phase one included; ``T.solve_eye`` is reused
    lus.clear()
    primal = maximize_volume(T, k, tol=1e-8)
    assert len(lus) == primal.iterations


def test_used_triangulation_is_freed_by_refcount():
    # the cached matrix, solver and projectors hold sizes and arrays, never the
    # triangulation: a closure over it would be a cycle only gc frees
    T = validate(cover_document(64))
    _, k = _interior_target(T, np.random.default_rng(87))
    gc.disable()
    try:
        maximize_volume(T, k, tol=1e-8)
        solve_cone_angles(T, k, tol=1e-8)
        assert {"a_eq", "a_eq_t", "factor", "project", "solve_eye"} <= vars(T).keys()
        ref = weakref.ref(T)
        del T
        assert ref() is None
    finally:
        gc.enable()

"""Hessian oracles of the shared Newton core and its iteration counts."""

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)
from scipy.linalg import block_diag, null_space

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
    find_interior,
    is_member,
    maximize_volume,
    solve_cone_angles,
    validate,
)
from hyptet._kernels import extended_angles_batch, phi_batch, volume_gradient_batch
from hyptet.optimize import _barrier_oracle
from hyptet.selftest import sample_interior_angles
from hyptet.structures import SLOT_COEF, SLOT_CONST, FeasibilityStatus
from hyptet.tetra import GAUGE_VECTORS, _covolume_hessian, _volume_hessian
from hyptet.triangulation import _range_solver, double_document

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


def _dense_dual_hessian(T, L):
    """The dual Hessian over the edge classes, (E, E), summed densely."""
    H = np.zeros((T.n_edge_classes, T.n_edge_classes))
    sc = T.slot_class
    blocks = _covolume_hessian(extended_angles_batch(L))
    np.add.at(H, (sc[:, :, None], sc[:, None, :]), blocks)
    return H


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
    for t in interior:
        H = covolume_hessian(L[t])
        assert np.array_equal(H, blocks[t])
        norm = float(np.max(np.abs(H)))
        assert np.max(np.abs(H @ GAUGE_VECTORS.T)) <= 1e-12 * norm


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bordered_dual_step_matches_dense_gauge_complement_step(name):
    T = validate(FIXTURES[name]())
    rng = np.random.default_rng(79)
    factor = _range_solver(T)
    project = factor(0.0, 1.0)
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
        dx = factor(_covolume_hessian(extended_angles_batch(L)), s)(-pg)
        # dense oracle: shifted Newton step in an orthonormal gauge-complement basis
        H = Z.T @ _dense_dual_hessian(T, L) @ Z + s * np.eye(Z.shape[1])
        dense = Z @ np.linalg.solve(H, -Z.T @ g)
        assert np.max(np.abs(dx - dense)) <= 1e-10 * np.max(np.abs(dense))


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
    _, k = _interior_target(T, np.random.default_rng(74))
    a_eq = assemble(T, k).a_eq.toarray()
    W = T.gauge_matrix.toarray()
    assert np.max(np.abs(W.T @ a_eq)) == 0.0
    assert np.linalg.matrix_rank(W) == W.shape[1]
    assert np.linalg.matrix_rank(a_eq) == T.n_edge_classes - W.shape[1]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sparse_primal_step_matches_dense_null_space_step(name):
    T = validate(FIXTURES[name]())
    n = T.n_tetrahedra
    rng = np.random.default_rng(75)
    factor = _range_solver(T)
    for mu in (1e-1, 1e-3, 1e-6):
        angles, k = _interior_target(T, rng)
        cs = assemble(T, k)
        a_eq = cs.a_eq
        solve_eye = factor(np.broadcast_to(SLOT_COEF @ SLOT_COEF.T, (n, 6, 6)))

        def project(g):
            return g - a_eq.T @ solve_eye(a_eq @ g)

        u = angles[:, :3].ravel()
        _, pg, res, step = _barrier_oracle(cs, mu, factor, project)(u)
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
        Z = null_space(a_eq.toarray())
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

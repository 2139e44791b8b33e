"""Hessian oracles of the shared Newton core and its iteration counts."""

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)

from hyptet import (
    AngleAssignment,
    cone_angles,
    maximize_volume,
    solve_cone_angles,
    validate,
)
from hyptet._kernels import phi_batch, volume_gradient_batch
from hyptet.optimize import _dual_hessian, _volume_hessian
from hyptet.selftest import sample_interior_angles
from hyptet.structures import SLOT_COEF, SLOT_CONST


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
        H = _dual_hessian(T, L)
        norm = float(np.max(np.abs(H)))
        assert np.max(np.abs(H - H.T)) <= 1e-12 * norm
        assert np.linalg.eigvalsh(H)[0] >= -1e-8 * norm
        for v in T.gauge_matrix.T:
            assert np.linalg.norm(H @ v) <= 1e-6 * norm


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


def test_dual_flags_escape_on_infeasible_target():
    # admissible but infeasible (apex sum above pi): the energy is unbounded
    # below, so the run must stop as diverged instead of walking to max_iter
    from hyptet.triangulation import double_document

    T = validate(double_document())
    a12, a13, a14 = 1.5, 1.2, 1.0
    row = [a12, a13, a14, (np.pi - a12 - a13 + a14) / 2,
           (np.pi - a12 - a14 + a13) / 2, (np.pi - a13 - a14 + a12) / 2]
    k = cone_angles(T, AngleAssignment(np.array([row, row])))
    rep = solve_cone_angles(T, k, tol=1e-8)
    assert rep.diverged and rep.residual > 1e-8
    assert rep.iterations <= 2000

"""Assignment-polytope encoding, membership verdicts, feasibility LP."""

import math

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)
from scipy import sparse
from scipy.optimize import linprog

from hyptet import (
    AngleAssignment,
    ConeTarget,
    FeasibilityStatus,
    Membership,
    assemble,
    cone_angles,
    doubled_fixture,
    find_interior,
    is_member,
)
from hyptet.errors import InadmissibleTarget
from hyptet.selftest import sample_interior_angles
from hyptet.structures import FEASIBILITY_TOL, SLOT_COEF, SLOT_CONST
from hyptet.triangulation import PAIR_INDEX, double_document, validate

PI = math.pi


def _fixture():
    return doubled_fixture([0.3, -0.2, 0.1, 0.25, -0.15, 0.4])


def test_slot_affine_map_respects_bounds():
    rng = np.random.default_rng(40)
    for _ in range(2000):
        u = rng.uniform(0, 1, 3)
        u *= rng.uniform(0, PI) / max(u.sum(), 1e-9)
        if u.sum() > PI:
            continue
        slots = SLOT_COEF @ u + SLOT_CONST
        assert np.all(slots >= -1e-12)
        assert np.all(slots <= PI + 1e-12)


def test_assemble_shapes_and_rank():
    T, k, _ = _fixture()
    cs = assemble(T, k)
    assert cs.a_eq.shape == (6, 6)
    assert cs.n_free == 6
    assert np.linalg.matrix_rank(cs.a_eq.toarray()) == 3


def test_assemble_feasible_point_reproduces_target():
    T, k, assignment = _fixture()
    u = assignment.values[:, :3].ravel()
    back = cone_angles(T, assemble(T, k).expand(u)).values
    assert np.max(np.abs(back - k.values)) <= 1e-12


def test_assemble_rejects_inadmissible():
    T, k, _ = _fixture()
    with pytest.raises(InadmissibleTarget):
        assemble(T, ConeTarget(k.values * 1.5))
    bad = k.values.copy()
    bad[0] += 0.05
    with pytest.raises(InadmissibleTarget):
        assemble(T, ConeTarget(bad))


def test_zero_cone_edge_forces_zero_slots():
    # an admissible target with one apex-slot class pinned at zero
    T = validate(double_document())
    boundary = np.array(
        [0.0, 0.7, 0.9, (PI - 0.7 + 0.9) / 2, (PI - 0.9 + 0.7) / 2, (PI - 1.6) / 2]
    )
    a = AngleAssignment(np.stack([boundary, boundary]))
    k = cone_angles(T, a)
    assert k.values[T.slot_class[0, PAIR_INDEX[(1, 2)]]] == 0.0
    cs = assemble(T, k)
    verdict, _ = is_member(T, a, k)
    assert verdict is Membership.BOUNDARY
    fr = find_interior(T, k)
    assert fr.status is not FeasibilityStatus.INTERIOR_FOUND
    if fr.witness is not None:
        # any feasible point must keep both slots of the zero class at zero
        assert np.all(np.abs(fr.witness.values[:, 0]) <= 1e-7)


def test_is_member_verdicts():
    T, k, assignment = _fixture()
    verdict, violations = is_member(T, assignment, k)
    assert verdict is Membership.INTERIOR and not violations

    flat = AngleAssignment(
        np.stack([np.array([PI, 0, 0, 0, 0, PI]), assignment.values[1]])
    )
    verdict, violations = is_member(T, flat, cone_angles(T, flat))
    assert verdict is Membership.BOUNDARY

    off = AngleAssignment(assignment.values.copy())
    off.values[0, 0] += 0.1
    verdict, violations = is_member(T, off, k)
    assert verdict is Membership.OUTSIDE
    assert any("cone angle" in v or "cusp" in v for v in violations)


def _violations_by_loop(T, A, k_vals, tol):
    cone = cone_angles(T, A).values
    out = []
    for e, (have, want) in enumerate(zip(cone, k_vals)):
        if abs(have - want) > tol:
            out.append(f"edge {T.edge_keys[e]}: cone angle {have:.12g} != {want:.12g}")
    for t in range(A.shape[0]):
        sums = (
            A[t, 0] + A[t, 3] + A[t, 4],
            A[t, 1] + A[t, 3] + A[t, 5],
            A[t, 2] + A[t, 4] + A[t, 5],
        )
        for v, s in zip((2, 3, 4), sums):
            if abs(s - PI) > tol:
                out.append(f"tet {t}: cusp {v} angle sum {s:.12g} != pi")
        apex = A[t, 0] + A[t, 1] + A[t, 2]
        if apex > PI + tol:
            out.append(f"tet {t}: apex angle sum {apex:.12g} > pi")
    if np.any(A < -tol) or np.any(A > PI + tol):
        out.append("slot angles leave [0, pi]")
    return out


def test_is_member_violations_match_row_loop():
    T = validate(cover_document(4))
    A = sample_interior_angles(np.random.default_rng(33), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(A)).values.copy()
    k[2] += 0.01  # one cone equation off
    A[1, 0] += 0.2  # cusp sums 2 and apex-slot cone equations off
    A[3, :3] = [1.4, 1.3, 1.2]  # apex sum above pi
    A[5, 5] = 3.5  # a slot angle beyond pi
    A[6, 3] -= 1e-10  # within tol: no message
    verdict, violations = is_member(T, AngleAssignment(A), k)
    assert verdict is Membership.OUTSIDE
    assert violations == _violations_by_loop(T, A, k, 1e-9)
    for kind in ("cone angle", "cusp 2", "apex angle sum", "leave [0, pi]"):
        assert any(kind in v for v in violations)
    assert not any(v.startswith("tet 6") for v in violations)
    with pytest.raises(ValueError):
        is_member(T, AngleAssignment(A), k[:-1])


def test_is_member_rejects_negative_slot_angles():
    # a negative slot makes an edge sum negative: a violation, not a bad target
    T = validate(double_document())
    row = np.full(6, PI / 4.0)
    row[0] = -0.5
    A = AngleAssignment(np.stack([row, row]))
    k = np.full(T.n_edge_classes, PI / 2.0)
    verdict, violations = is_member(T, A, k)
    assert verdict is Membership.OUTSIDE
    assert "slot angles leave [0, pi]" in violations


def test_find_interior_on_fixture():
    T, k, assignment = _fixture()
    fr = find_interior(T, k)
    assert fr.status is FeasibilityStatus.INTERIOR_FOUND
    assert fr.min_slack > 0
    verdict, _ = is_member(T, fr.witness, k, tol=1e-8)
    assert verdict is Membership.INTERIOR


def test_feasibility_report_to_json():
    T, k, _ = _fixture()
    fr = find_interior(T, k)
    doc = fr.to_json()
    assert doc == {
        "status": "InteriorFound",
        "witness": fr.witness.to_json(),
        "min_slack": fr.min_slack,
    }
    assert AngleAssignment.from_json(doc["witness"]).values.tolist() == (
        fr.witness.values.tolist()
    )
    fr = find_interior(T, ConeTarget(k.values * 1.5))
    assert fr.to_json() == {
        "status": "Infeasible", "witness": None, "min_slack": fr.min_slack,
    }


def test_find_interior_certificate_at_tenth_tolerance():
    T, k, _ = _fixture()
    fr = find_interior(T, k)
    verdict, _ = is_member(T, fr.witness, k, tol=1e-8)
    assert verdict is Membership.INTERIOR


def test_find_interior_zero_target_never_feasible():
    T, _, _ = _fixture()
    fr = find_interior(T, ConeTarget(np.zeros(T.n_edge_classes)))
    assert fr.status is FeasibilityStatus.INFEASIBLE


def test_find_interior_scaled_target_infeasible():
    T, k, _ = _fixture()
    fr = find_interior(T, ConeTarget(k.values * 1.5))
    assert fr.status is FeasibilityStatus.INFEASIBLE


def test_membership_convex_midpoints():
    T, k, assignment = _fixture()
    fr = find_interior(T, k)
    mid = AngleAssignment(0.5 * (assignment.values + fr.witness.values))
    verdict, _ = is_member(T, mid, k, tol=1e-9)
    assert verdict is Membership.INTERIOR


def test_expand_round_trip_membership():
    T, k, _ = _fixture()
    cs = assemble(T, k)
    fr = find_interior(T, k)
    u = fr.witness.values[:, :3].ravel()
    verdict, _ = is_member(T, cs.expand(u), k, tol=1e-8)
    assert verdict is not Membership.OUTSIDE


def _reference_lp(T, k):
    """Optimal slack ``t*`` of the max-min-slack LP in the variables
    ``(u, t)``: one row ``t - u_i <= 0`` per free angle, one row
    ``sum_tet u + t <= pi`` per tetrahedron, and the box ``|u_i| <= 4 pi``;
    -inf when the LP or the target is infeasible."""
    try:
        cs = assemble(T, k)
    except InadmissibleTarget:
        return -np.inf
    n, nf = T.n_tetrahedra, cs.n_free
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    a_eq = sparse.hstack([cs.a_eq, sparse.csr_matrix((cs.a_eq.shape[0], 1))])
    i = np.arange(nf)
    rows = np.concatenate([i, i, nf + i // 3, nf + np.arange(n)])
    cols = np.concatenate([i, np.full(nf, nf), i, np.full(n, nf)])
    vals = np.concatenate([-np.ones(nf), np.ones(2 * nf + n)])
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(nf + n, nf + 1))
    b_ub = np.concatenate([np.zeros(nf), np.full(n, PI)])
    bounds = [(-4.0 * PI, 4.0 * PI)] * nf + [(-4.0 * PI, PI)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=cs.b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return float(res.x[-1])


def _status_of(t_star):
    if t_star > FEASIBILITY_TOL:
        return FeasibilityStatus.INTERIOR_FOUND
    if t_star >= -FEASIBILITY_TOL:
        return FeasibilityStatus.BOUNDARY_ONLY
    return FeasibilityStatus.INFEASIBLE


REFERENCE_INSTANCES = {
    "double": double_document,
    "snake": snake_document,
    "double2": disjoint_double_document,
    "cover4": lambda: cover_document(4),
    "cover64": lambda: cover_document(64),
    **{f"random16-{s}": (lambda s=s: random_gluing_document(16, s)) for s in range(5)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_find_interior_matches_reference_lp(name):
    # the slack-variable LP has the same verdict and optimal slack as the
    # 4n-row boxed LP in (u, t) on every kind of target
    T = validate(REFERENCE_INSTANCES[name]())
    n = T.n_tetrahedra
    interior = cone_angles(
        T, AngleAssignment(sample_interior_angles(np.random.default_rng(70), n))
    )
    targets = {
        FeasibilityStatus.INTERIOR_FOUND: [interior],
        # apex sums pi in every cell: the largest total the target allows
        FeasibilityStatus.BOUNDARY_ONLY: [
            cone_angles(T, AngleAssignment(np.tile(SLOT_COEF @ u + SLOT_CONST, (n, 1))))
            for u in ([0.5, 1.0, PI - 1.5], [1e-6, PI - 2e-6, 1e-6])
        ],
        # apex sums above pi, then the counting identity broken
        FeasibilityStatus.INFEASIBLE: [
            cone_angles(T, AngleAssignment(
                np.tile(SLOT_COEF @ [1.5, 1.2, 1.0] + SLOT_CONST, (n, 1))
            )),
            ConeTarget(interior.values * 1.5),
        ],
    }
    for status, ks in targets.items():
        for k in ks:
            fr = find_interior(T, k)
            t_ref = _reference_lp(T, k)
            assert fr.status is status is _status_of(t_ref)
            assert fr.min_slack == t_ref or abs(fr.min_slack - t_ref) <= 1e-8
            if status is FeasibilityStatus.INTERIOR_FOUND:
                verdict, _ = is_member(T, fr.witness, k, tol=1e-9)
                assert verdict is Membership.INTERIOR

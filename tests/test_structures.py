"""Assignment-polytope encoding, membership verdicts, feasibility LP."""

import math

import numpy as np
import pytest

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
from hyptet.structures import SLOT_COEF, SLOT_CONST
from hyptet.triangulation import double_document, validate

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
    assert k.values[T.edge_class_of[(0, (1, 2))]] == 0.0
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


def test_find_interior_on_fixture():
    T, k, assignment = _fixture()
    fr = find_interior(T, k)
    assert fr.status is FeasibilityStatus.INTERIOR_FOUND
    assert fr.min_slack > 0
    verdict, _ = is_member(T, fr.witness, k, tol=1e-8)
    assert verdict is Membership.INTERIOR


def test_find_interior_certificate_at_tenth_tolerance():
    T, k, _ = _fixture()
    fr = find_interior(T, k, tol=1e-7)
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

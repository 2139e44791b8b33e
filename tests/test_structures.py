"""Assignment-polytope encoding, membership verdicts, feasibility LP."""

import functools
import itertools
import json
import math
import warnings

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

import hyptet.structures
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
from hyptet.errors import InadmissibleTarget, LpFailure
from hyptet.selftest import sample_interior_angles
from hyptet.structures import FEASIBILITY_TOL, _LP_GAP, _LP_TOL, _schur
from hyptet.tetra import SLOT_COEF, SLOT_CONST, _cell_slacks, _slot_angles
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
    b_eq = assemble(T, k)
    assert T.a_eq.shape == (6, 6)
    assert isinstance(b_eq, np.ndarray) and b_eq.shape == (6,)
    assert _cell_slacks(np.zeros(6)).shape == (2, 4)
    assert np.linalg.matrix_rank(T.a_eq.toarray()) == 3


def test_assemble_feasible_point_reproduces_target():
    T, k, assignment = _fixture()
    u = assignment.values[:, :3].ravel()
    back = cone_angles(T, _slot_angles(u)).values
    assert np.max(np.abs(back - k.values)) <= 1e-12
    assert np.max(np.abs(T.a_eq @ u - assemble(T, k))) <= 1e-12


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
    assemble(T, k)
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


def test_is_member_rejects_nan_slot_angle():
    # every comparison with NaN is false, so only a range test that asks for
    # membership of [0, pi] catches it
    T, k, assignment = _fixture()
    A = assignment.values.copy()
    A[0, 4] = np.nan
    verdict, violations = is_member(T, A, k)
    assert verdict is Membership.OUTSIDE
    assert "slot angles leave [0, pi]" in violations


def test_is_member_judges_opposite_infinities_without_warning():
    # inf + -inf in one cusp sum is NaN; the suite turns a RuntimeWarning
    # from that sum into an error, so this also checks that none is emitted
    T, k, assignment = _fixture()
    A = assignment.values.copy()
    A[0, 0], A[0, 3] = np.inf, -np.inf
    verdict, violations = is_member(T, A, k)
    assert verdict is Membership.OUTSIDE
    assert violations[-1] == "slot angles leave [0, pi]"
    assert not any(v.startswith("tet ") for v in violations)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cone_angles_rejects_non_finite_assignment(value):
    # the assignment is the input at fault, not a cone target
    T, _, assignment = _fixture()
    A = assignment.values.copy()
    A[0, 0] = value
    with pytest.raises(ValueError, match="assignment values must be finite"):
        cone_angles(T, A)


@pytest.mark.parametrize("rows", [1, 3])
def test_assignment_rows_must_match_tetrahedra(rows):
    T, k, _ = _fixture()
    A = np.full((rows, 6), PI / 4.0)
    message = r"assignment must have shape \(2, 6\), got \(%d, 6\)" % rows
    with pytest.raises(ValueError, match=message):
        cone_angles(T, A)
    with pytest.raises(ValueError, match=message):
        cone_angles(T, AngleAssignment(A))
    with pytest.raises(ValueError, match=message):
        is_member(T, A, k)
    with pytest.raises(ValueError, match=message):
        is_member(T, AngleAssignment(A), k)


def test_angle_assignment_rejects_non_finite_values():
    _, _, assignment = _fixture()
    bad = assignment.values.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        AngleAssignment(bad)
    doc = assignment.to_json()
    doc["values"][0][0] = float("nan")
    with pytest.raises(ValueError, match="must be finite"):
        AngleAssignment.from_json(json.loads(json.dumps(doc)))


def _stub_linprog(result):
    """A stand-in for ``structures.linprog``: returns ``result``, or raises
    it when it is an exception."""

    def linprog(T, b_eq):
        if isinstance(result, Exception):
            raise result
        return result

    return linprog


def test_find_interior_reads_the_lp_status(monkeypatch):
    # a run whose bracket neither closes nor fixes the verdict raises
    # LpFailure, and find_interior passes its message on: one step leaves
    # t* = 0 of an apex-pi target between a negative slack and a positive bound
    T, k, _ = _fixture()
    apex = np.tile(SLOT_COEF @ [0.5, 1.0, PI - 1.5] + SLOT_CONST, (T.n_tetrahedra, 1))
    monkeypatch.setattr(hyptet.structures, "_LP_STEPS", 1)
    with pytest.raises(LpFailure, match="failed: no certified bracket in 1 steps"):
        find_interior(T, cone_angles(T, AngleAssignment(apex)))
    monkeypatch.undo()
    stub = _stub_linprog(LpFailure("LP solver failed: stub"))
    monkeypatch.setattr(hyptet.structures, "linprog", stub)
    with pytest.raises(LpFailure, match="LP solver failed: stub"):
        find_interior(T, k)


def test_find_interior_rejects_a_witness_substitution_refutes(monkeypatch):
    # every free angle 0.3, so a least slack of 0.3, off the edge equations
    T, k, _ = _fixture()
    u = np.full(3 * T.n_tetrahedra, 0.3)
    run = hyptet.structures._LpRun(u, 0.3, 0.3, 1)
    monkeypatch.setattr(hyptet.structures, "linprog", _stub_linprog(run))
    with pytest.raises(LpFailure, match="substitution disagrees"):
        find_interior(T, k)


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
    fr = find_interior(T, k)
    u = fr.witness.values[:, :3].ravel()
    verdict, _ = is_member(T, _slot_angles(u), k, tol=1e-8)
    assert verdict is not Membership.OUTSIDE


def _reference_lp(T, k):
    """Optimal slack ``t*`` of the max-min-slack LP in the variables
    ``(u, t)``: one row ``t - u_i <= 0`` per free angle, one row
    ``sum_tet u + t <= pi`` per tetrahedron, and the box ``|u_i| <= 4 pi``;
    -inf when the LP or the target is infeasible."""
    try:
        b_eq = assemble(T, k)
    except InadmissibleTarget:
        return -np.inf
    n = T.n_tetrahedra
    nf = 3 * n
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    a_eq = sparse.hstack([T.a_eq, sparse.csr_matrix((T.n_edge_classes, 1))])
    i = np.arange(nf)
    rows = np.concatenate([i, i, nf + i // 3, nf + np.arange(n)])
    cols = np.concatenate([i, np.full(nf, nf), i, np.full(n, nf)])
    vals = np.concatenate([-np.ones(nf), np.ones(2 * nf + n)])
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(nf + n, nf + 1))
    b_ub = np.concatenate([np.zeros(nf), np.full(n, PI)])
    bounds = [(-4.0 * PI, 4.0 * PI)] * nf + [(-4.0 * PI, PI)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
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


@pytest.mark.parametrize("seed, key, turns, t_star", [
    (0, "13:12", 24, -49.218), (1, "2:24", 12, -13.823),
])
def test_find_interior_reports_t_star_below_minus_four_pi(seed, key, turns, t_star):
    # admissible targets whose optimal slack lies below -4 pi: the verdict
    # carries t* of the LP in (u, t) with no bounds at all
    T = validate(random_gluing_document(16, seed))
    values = np.zeros(T.n_edge_classes)
    values[T.edge_keys.index(key)] = 2 * turns * PI
    k = ConeTarget(values)
    n = T.n_tetrahedra
    nf = 3 * n
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    # rows t - u_i <= 0, then sum_tet u + t <= pi
    a_ub = np.zeros((nf + n, nf + 1))
    a_ub[np.arange(nf), np.arange(nf)] = -1.0
    a_ub[nf + np.arange(nf) // 3, np.arange(nf)] = 1.0
    a_ub[:, -1] = 1.0
    b_ub = np.concatenate([np.zeros(nf), np.full(n, PI)])
    a_eq = np.hstack([T.a_eq.toarray(), np.zeros((T.n_edge_classes, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=assemble(T, k),
                  bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    fr = find_interior(T, k)
    assert fr.status is FeasibilityStatus.INFEASIBLE and fr.witness is None
    assert abs(fr.min_slack - res.x[-1]) <= 1e-8
    assert fr.min_slack == pytest.approx(t_star, abs=1e-3)
    # only an inadmissible target, for which no LP runs, reports -inf
    k = ConeTarget(1.5 * values)
    with pytest.raises(InadmissibleTarget):
        assemble(T, k)
    assert find_interior(T, k).min_slack == -np.inf


# The LP's own robustness corpus.  Each of the five checks below guards a
# failure of an interior-point LP on these targets: a residual test that is
# absolute, a gap test on mu instead of N mu, normal equations that lose the
# edge rows, Schur blocks unscaled against T.factor's O(1) border, and a stop
# on a tighter tolerance instead of the certified bracket.  HiGHS, through
# ``_reference_lp``, is only the oracle here.
LP_CORPUS = {
    "double": double_document,
    "cover4": lambda: cover_document(4),
    "cover64": lambda: cover_document(64),
    "random16-0": lambda: random_gluing_document(16, 0),
    "random1024-0": lambda: random_gluing_document(1024, 0),
}
LP_KINDS = {
    "pinned-zero": [0.0, 0.7, 0.9],
    "apex-pi": [0.5, 1.0, PI - 1.5],
    "near-flat": [1e-6, PI - 2e-6, 1e-6],
    "apex-above-pi": [1.5, 1.2, 1.0],
}


@functools.lru_cache(maxsize=None)
def _lp_corpus(name):
    """``T`` and, per target kind, ``(k, t*_HiGHS, report)``."""
    T = validate(LP_CORPUS[name]())
    n = T.n_tetrahedra
    targets = {
        "interior": cone_angles(
            T, AngleAssignment(sample_interior_angles(np.random.default_rng(70), n))
        )
    }
    for kind, u in LP_KINDS.items():
        row = SLOT_COEF @ np.array(u) + SLOT_CONST
        targets[kind] = cone_angles(T, AngleAssignment(np.tile(row, (n, 1))))
    return T, {
        kind: (k, _reference_lp(T, k), find_interior(T, k))
        for kind, k in targets.items()
    }


@pytest.mark.parametrize("name", sorted(LP_CORPUS))
def test_linprog_matches_highs_on_the_corpus(name):
    T, runs = _lp_corpus(name)
    for kind, (k, t_ref, fr) in runs.items():
        assert fr.status is _status_of(t_ref), kind
        assert abs(fr.min_slack - t_ref) <= 1e-8, kind
        if fr.status is FeasibilityStatus.INTERIOR_FOUND:
            assert is_member(T, fr.witness, k, tol=1e-9)[0] is Membership.INTERIOR


def test_linprog_residual_test_is_relative():
    # |b| is in the thousands on the 1024-tet gluing: an absolute residual
    # test at _LP_TOL would never stop there
    T, runs = _lp_corpus("random1024-0")
    for kind, (k, _, fr) in runs.items():
        b_eq = assemble(T, k)
        assert np.max(np.abs(b_eq)) > 1000.0
        if fr.witness is not None:
            u = fr.witness.values[:, :3].ravel()
            residual = np.max(np.abs(T.a_eq @ u - b_eq))
            assert residual <= _LP_TOL * (1.0 + np.max(np.abs(b_eq))), kind


@pytest.mark.parametrize("name", ["random1024-0", "cover64"])
def test_linprog_gap_is_the_total_gap(name):
    # N mu, not mu, closes: the bracket holds t* and is at most _LP_GAP wide
    # on every target, at n = 1024 too
    _, runs = _lp_corpus(name)
    for kind, (_, t_ref, fr) in runs.items():
        assert fr.upper_bound - fr.min_slack <= _LP_GAP, kind
        assert fr.min_slack - 1e-10 <= t_ref <= fr.upper_bound + 1e-10, kind


@pytest.mark.parametrize("name", ["cover4", "random1024-0"])
def test_linprog_keeps_boundary_only_witnesses_on_the_edge_rows(name):
    # the Newton step alone lost the edge rows on boundary-only targets
    T, runs = _lp_corpus(name)
    for kind, (k, _, fr) in runs.items():
        if fr.status is FeasibilityStatus.BOUNDARY_ONLY:
            cone = cone_angles(T, fr.witness).values
            assert np.max(np.abs(cone - k.values)) <= 1e-9 * (1 + np.max(k.values))
            assert is_member(T, fr.witness, k, tol=1e-8)[0] is not Membership.OUTSIDE


@pytest.mark.parametrize("c", [1e-100, 1e-20, 1e20, 1e100])
def test_schur_blocks_are_scaled_before_the_factor(c):
    # T.factor's gauge border is O(1), so the 3x3 chart blocks reach it scaled
    # to a largest edge sum of slot diagonals c_j B c_j^T of 1, and the solve
    # is the same at any scale
    T = validate(cover_document(4))
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 2.0, (T.n_tetrahedra, 4))
    r = T.a_eq @ rng.normal(size=3 * T.n_tetrahedra)
    x = _schur(T, d)(r)
    factor, seen = T.factor, []
    T.__dict__["factor"] = lambda blocks: seen.append(blocks) or factor(blocks)
    y = c * _schur(T, c * d)(r)
    assert seen[0].shape == (T.n_tetrahedra, 3, 3)
    slot_diagonals = np.einsum("jp,tpq,jq->tj", SLOT_COEF, seen[0], SLOT_COEF)
    assert np.max(T.edge_sums(slot_diagonals)) == pytest.approx(1.0)
    assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))


def test_linprog_stops_on_the_certified_bracket(monkeypatch):
    # random16-0's near-flat target: the bracket stop lands within 1e-8 of
    # t*, and a stop on a tighter gap runs on into singular LUs, where the
    # bracket it holds still decides the verdict
    T, runs = _lp_corpus("random16-0")
    k, t_ref, fr = runs["near-flat"]
    assert fr.status is FeasibilityStatus.BOUNDARY_ONLY
    assert fr.min_slack - 1e-10 <= t_ref <= fr.upper_bound + 1e-10
    assert abs(fr.min_slack - t_ref) <= 1e-8
    monkeypatch.setattr(hyptet.structures, "_LP_GAP", 0.0)
    tight = find_interior(T, k)
    assert tight.status is FeasibilityStatus.BOUNDARY_ONLY
    assert tight.iterations > fr.iterations


def test_schur_raises_on_blocks_of_scale_zero():
    # weights on the apex slack alone make every Schur block 0
    T = validate(double_document())
    d = np.zeros((T.n_tetrahedra, 4))
    d[:, 3] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"Schur blocks of scale 0\.0$"):
            _schur(T, d)


def _schur_failing_from(calls):
    """``_schur`` that raises LinAlgError from its call ``calls + 1`` on."""
    count = itertools.count()

    def schur(T, d):
        if next(count) >= calls:
            raise np.linalg.LinAlgError("stub")
        return _schur(T, d)

    return schur


@pytest.mark.parametrize(
    "doc",
    [double_document, lambda: cover_document(4), lambda: random_gluing_document(16, 0)],
    ids=["double", "cover4", "random16"],
)
def test_linprog_keeps_its_bracket_when_an_lu_fails(doc, monkeypatch):
    # a singular LU ends the run, and the bracket it holds serves when it
    # fixes the verdict: on these interior targets it does from the start
    T = validate(doc())
    angles = sample_interior_angles(np.random.default_rng(7), T.n_tetrahedra)
    b_eq = assemble(T, cone_angles(T, AngleAssignment(angles)))
    calls = []
    monkeypatch.setattr(
        hyptet.structures, "_schur", lambda T, d: calls.append(None) or _schur(T, d)
    )
    full = hyptet.structures.linprog(T, b_eq)
    for j in range(len(calls)):
        monkeypatch.setattr(hyptet.structures, "_schur", _schur_failing_from(j))
        run = hyptet.structures.linprog(T, b_eq)
        assert FEASIBILITY_TOL < run.lower <= full.upper + 1e-12
        assert full.lower - 1e-12 <= run.upper and run.iterations <= full.iterations


def test_linprog_without_a_certified_bracket_raises(monkeypatch):
    # on a pinned-zero target every point has a least slack of at most 0, and
    # before a step the dual bound is pi/4: that bracket fixes no verdict
    T = validate(double_document())
    row = SLOT_COEF @ np.array(LP_KINDS["pinned-zero"]) + SLOT_CONST
    b_eq = assemble(T, cone_angles(T, AngleAssignment(np.tile(row, (2, 1)))))
    monkeypatch.setattr(hyptet.structures, "_schur", _schur_failing_from(0))
    message = r"no certified bracket in 0 steps .* bound 7\.854e-01\)"
    with pytest.raises(LpFailure, match=message):
        hyptet.structures.linprog(T, b_eq)


def test_feasibility_report_carries_the_bracket():
    T, k, _ = _fixture()
    fr = find_interior(T, k)
    assert fr.iterations > 0
    assert -1e-12 <= fr.upper_bound - fr.min_slack <= _LP_GAP
    assert set(fr.to_json()) == {"status", "witness", "min_slack"}
    fr = find_interior(T, ConeTarget(k.values * 1.5))
    assert (fr.min_slack, fr.upper_bound, fr.iterations) == (-np.inf, -np.inf, 0)

"""Primal maximization, dual solve, gap, and rigidity on forward fixtures."""

import math

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)

import hyptet.optimize
import hyptet.structures
from hyptet import (
    AngleAssignment,
    ConeTarget,
    GeneralizedMetric,
    RegionLabel,
    assignment_from_metric,
    classify,
    cone_angles,
    doubled_fixture,
    duality_gap,
    find_interior,
    gauge_project,
    maximize_volume,
    rigidity_check,
    solve_cone_angles,
    volume_from_angles,
)
from hyptet.errors import InadmissibleTarget, NoInteriorStart
from hyptet.optimize import _near_flat_flags
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import FLAT_PATTERNS
from hyptet.triangulation import PAIR_INDEX, double_document, validate

PI = math.pi


def _interior_lengths(rng):
    while True:
        l0 = rng.uniform(-0.9, 0.9, 6)
        if classify(l0) is RegionLabel.INTERIOR:
            return l0


def _double_metric(T, l0):
    values = np.zeros(T.n_edge_classes)
    for pair, slot in PAIR_INDEX.items():
        values[T.edge_class_of[(0, pair)]] = l0[slot]
    return GeneralizedMetric(values)


def test_maximize_recovers_fixture_assignment():
    rng = np.random.default_rng(50)
    for _ in range(3):
        l0 = _interior_lengths(rng)
        T, k, assignment = doubled_fixture(l0)
        rep = maximize_volume(T, k, tol=1e-8)
        assert rep.kkt_residual <= 1e-8
        assert np.max(np.abs(rep.maximizer.values - assignment.values)) <= 1e-6
        vol_expected = 2.0 * volume_from_angles(assignment.values[0])
        assert rep.volume == pytest.approx(vol_expected, abs=1e-9)
        assert rep.boundary_flags == [False, False]


def test_maximize_symmetric_zero_lengths():
    T, k, assignment = doubled_fixture(np.zeros(6))
    rep = maximize_volume(T, k)
    acos34 = math.acos(0.75)
    assert np.allclose(rep.maximizer.values[:, :3], acos34, atol=1e-6)
    assert np.max(np.abs(rep.maximizer.values - assignment.values)) <= 1e-6


def test_maximize_multistart_uniqueness():
    from scipy.linalg import null_space

    from hyptet import assemble, find_interior

    rng = np.random.default_rng(51)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    cs = assemble(T, k)
    witness = find_interior(T, k).witness.values[:, :3].ravel()
    Z = null_space(cs.a_eq.toarray())
    reps = []
    while len(reps) < 5:
        u0 = witness + Z @ rng.uniform(-0.5, 0.5, Z.shape[1])
        if np.any(cs.constraint_values(u0) <= 1e-3):
            continue
        reps.append(maximize_volume(T, k, u0=u0))
    for a in reps:
        for b in reps:
            assert np.max(np.abs(a.maximizer.values - b.maximizer.values)) <= 1e-6


def test_maximize_monotone_outer_trace():
    rng = np.random.default_rng(52)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    rep = maximize_volume(T, k)
    trace = rep.objective_trace
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def _apex_row(a12, a13, a14):
    return [a12, a13, a14, (PI - a12 - a13 + a14) / 2,
            (PI - a12 - a14 + a13) / 2, (PI - a13 - a14 + a12) / 2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_maximize_rejects_inadmissible_and_infeasible():
    rng = np.random.default_rng(53)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    with pytest.raises(InadmissibleTarget):
        maximize_volume(T, ConeTarget(k.values * 1.2))
    # admissible targets without interior: phase one must fail without a
    # warning and hand the verdict to the feasibility LP
    for row, status in (
        (_apex_row(0.0, 0.7, 0.9), "BoundaryOnly"),  # a class pinned at zero
        (_apex_row(1e-6, PI - 2e-6, 1e-6), "BoundaryOnly"),  # boundary to rounding
        (_apex_row(1.5, 1.2, 1.0), "Infeasible"),  # apex sums above pi
        (_apex_row(0.2, 0.2, 2.8), "Infeasible"),
    ):
        a = AngleAssignment(np.array([row, row]))
        with pytest.raises(NoInteriorStart, match=f"feasibility status: {status}"):
            maximize_volume(T, cone_angles(T, a))


START_FIXTURES = {
    "cover4": lambda: cover_document(4),
    "cover64": lambda: cover_document(64),
    "random16": random_gluing_document,
    "snake": snake_document,
    "double2": disjoint_double_document,
}


@pytest.mark.parametrize("name", sorted(START_FIXTURES))
def test_maximize_starts_without_lp(name, monkeypatch):
    T = validate(START_FIXTURES[name]())
    angles = sample_interior_angles(np.random.default_rng(62), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(angles))
    witness = find_interior(T, k).witness.values[:, :3].ravel()

    def no_lp(*args, **kwargs):
        raise AssertionError("the feasibility LP ran on the success path")

    monkeypatch.setattr(hyptet.optimize, "find_interior", no_lp)
    monkeypatch.setattr(hyptet.structures, "linprog", no_lp)
    rep = maximize_volume(T, k, tol=1e-8)
    from_lp = maximize_volume(T, k, tol=1e-8, u0=witness)
    assert rep.kkt_residual <= 1e-8
    assert abs(rep.volume - from_lp.volume) <= 1e-10 * abs(from_lp.volume)
    assert np.max(np.abs(rep.maximizer.values - from_lp.maximizer.values)) <= 1e-6


def test_maximize_falls_back_to_lp_start(monkeypatch):
    T = validate(cover_document(4))
    angles = sample_interior_angles(np.random.default_rng(63), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(angles))
    rep = maximize_volume(T, k, tol=1e-8)
    # no phase-one step allowed: the start is the LP witness
    monkeypatch.setattr(hyptet.optimize, "_PHASE_ONE", 0)
    from_lp = maximize_volume(T, k, tol=1e-8)
    assert from_lp.kkt_residual <= 1e-8
    assert abs(rep.volume - from_lp.volume) <= 1e-10 * abs(from_lp.volume)
    assert np.max(np.abs(rep.maximizer.values - from_lp.maximizer.values)) <= 1e-6


def _near_flat_flags_by_loop(angles, tol=1e-6):
    flags = []
    for row in angles:
        d = min(float(np.max(np.abs(row - p))) for p in FLAT_PATTERNS)
        flags.append(d <= tol)
    return flags


def test_near_flat_flags_match_row_loop():
    rng = np.random.default_rng(64)
    rows = [sample_interior_angles(rng, 20)]
    for p in FLAT_PATTERNS:
        for d in (0.0, 5e-7, 1e-6, 2e-6):
            rows.append(p + rng.choice([-d, d], size=(4, 6)))
    A = np.concatenate(rows)
    flags = _near_flat_flags(A)
    assert flags == _near_flat_flags_by_loop(A)
    assert type(flags) is list and all(type(f) is bool for f in flags)
    assert any(flags) and not all(flags)


def test_dual_recovers_fixture_metric():
    rng = np.random.default_rng(54)
    for _ in range(3):
        l0 = _interior_lengths(rng)
        T, k, _ = doubled_fixture(l0)
        rep = solve_cone_angles(T, k, tol=1e-8)
        assert not rep.diverged
        assert rep.residual <= 1e-8
        target = gauge_project(T, _double_metric(T, l0).values).values
        assert np.max(np.abs(rep.metric.values - target)) <= 1e-6
        # the metric is a fixed point of the gauge projection
        again = gauge_project(T, rep.metric.values).values
        assert np.max(np.abs(again - rep.metric.values)) <= 1e-12


def test_dual_monotone_descent():
    rng = np.random.default_rng(55)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    rep = solve_cone_angles(T, k)
    trace = rep.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_dual_rejects_inadmissible():
    T, k, _ = doubled_fixture(np.zeros(6))
    with pytest.raises(InadmissibleTarget):
        solve_cone_angles(T, ConeTarget(np.zeros(T.n_edge_classes)))
    with pytest.raises(InadmissibleTarget):
        solve_cone_angles(T, ConeTarget(k.values * 1.5))


def test_dual_rejects_wrong_length_target():
    T, k, _ = doubled_fixture(np.zeros(6))
    with pytest.raises(ValueError, match="does not match edge classes"):
        solve_cone_angles(T, np.append(k.values, 1.0))


def test_dual_never_false_success_on_boundary_only_target():
    # admissible, but only boundary assignments exist: the infimum is not
    # attained, so the solver must either flag divergence or fail honestly
    from hyptet import AngleAssignment, cone_angles
    from hyptet.errors import MaxIterations

    T = validate(double_document())
    b = np.array(
        [0.0, 0.7, 0.9, (PI - 0.7 + 0.9) / 2, (PI - 0.9 + 0.7) / 2, (PI - 1.6) / 2]
    )
    k = cone_angles(T, AngleAssignment(np.stack([b, b])))
    try:
        rep = solve_cone_angles(T, k, tol=1e-8, max_iter=1500)
    except MaxIterations as exc:
        assert exc.residual > 1e-8
    else:
        assert rep.diverged


def test_primal_dual_consistency():
    rng = np.random.default_rng(56)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    primal = maximize_volume(T, k)
    dual = solve_cone_angles(T, k)
    induced = assignment_from_metric(T, dual.metric)
    assert np.max(np.abs(induced.values - primal.maximizer.values)) <= 1e-6


def test_duality_gap_small_on_fixtures():
    rng = np.random.default_rng(57)
    for _ in range(3):
        l0 = _interior_lengths(rng)
        T, k, _ = doubled_fixture(l0)
        primal = maximize_volume(T, k)
        g = duality_gap(T, k).gap
        assert abs(g) <= 1e-6 * (1.0 + abs(2.0 * primal.volume))


def test_dual_gradient_gauge_orthogonal():
    rng = np.random.default_rng(58)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    from hyptet import cone_angles

    m = rng.uniform(-1, 1, T.n_edge_classes)
    g = cone_angles(T, assignment_from_metric(T, m)).values - k.values
    assert np.max(np.abs(T.gauge_matrix.T @ g)) <= 1e-10


def test_rigidity_agreement():
    rng = np.random.default_rng(59)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    rep = rigidity_check(T, k, n_starts=5, tol=1e-6)
    assert rep.all_agree
    assert rep.pairwise_distance <= 1e-6
    assert rep.failed_starts == []
    assert rep.seed == 0


def test_rigidity_needs_two_starts():
    T, k, _ = doubled_fixture(np.zeros(6))
    with pytest.raises(ValueError):
        rigidity_check(T, k, n_starts=1)


def test_distinct_targets_give_distinct_metrics():
    rng = np.random.default_rng(60)
    l0 = _interior_lengths(rng)
    l1 = _interior_lengths(rng)
    T, k0, _ = doubled_fixture(l0)
    _, k1, _ = doubled_fixture(l1)
    m0 = solve_cone_angles(T, k0).metric.values
    m1 = solve_cone_angles(T, k1).metric.values
    assert np.max(np.abs(m0 - m1)) > 1e-3


def test_full_pipeline_on_self_glued_complex():
    from conftest import snake_document
    from hyptet import find_interior, validate
    from hyptet.structures import FeasibilityStatus

    T = validate(snake_document())
    metric = np.zeros(T.n_edge_classes)
    forward = assignment_from_metric(T, metric)
    from hyptet import cone_angles

    k = cone_angles(T, forward)
    assert find_interior(T, k).status is FeasibilityStatus.INTERIOR_FOUND
    primal = maximize_volume(T, k)
    assert np.max(np.abs(primal.maximizer.values - forward.values)) <= 1e-6
    dual = solve_cone_angles(T, k)
    target = gauge_project(T, metric).values
    assert np.max(np.abs(dual.metric.values - target)) <= 1e-6
    assert abs(dual.objective - 2 * primal.volume) <= 1e-6 * (
        1 + abs(2 * primal.volume)
    )
    rig = rigidity_check(T, k, n_starts=4, tol=1e-6)
    assert rig.all_agree


def test_dual_near_flat_targets():
    # convex mixes of a flat-pattern target with an interior one pull the
    # solution toward a degeneration wall; mild mixes must solve, extreme
    # ones may only fail honestly (the energy is merely C1 at the wall)
    from hyptet import assignment_from_metric as afm, cone_angles
    from hyptet.errors import MaxIterations

    T, k0, _ = doubled_fixture(np.zeros(6))
    m_flat = np.zeros(T.n_edge_classes)
    m_flat[T.edge_class_of[(0, (3, 4))]] = 25.0
    k_flat = cone_angles(T, afm(T, m_flat))

    mild = ConeTarget(0.99 * k_flat.values + 0.01 * k0.values)
    rep = solve_cone_angles(T, mild, tol=1e-8)
    assert rep.residual <= 1e-8 and not rep.diverged

    extreme = ConeTarget(0.999 * k_flat.values + 0.001 * k0.values)
    try:
        rep = solve_cone_angles(T, extreme, tol=1e-10, max_iter=1500)
    except MaxIterations as exc:
        assert exc.residual > 1e-10
    else:
        assert rep.diverged or rep.residual <= 1e-10


def test_dual_rejects_bad_start():
    T, k, _ = doubled_fixture(np.zeros(6))
    with pytest.raises(ValueError):
        solve_cone_angles(T, k, x0=np.full(T.n_edge_classes, np.nan))
    with pytest.raises(ValueError):
        solve_cone_angles(T, k, x0=np.zeros(3))


def test_two_component_complex_pipeline():
    # disjoint union of two doubles: block-separable problem, four cells
    rng = np.random.default_rng(61)
    la = _interior_lengths(rng)
    lb = _interior_lengths(rng)
    doc = double_document()
    doc["tetrahedra"] = 4
    for g in list(doc["gluings"]):
        doc["gluings"].append(
            {
                "tet": g["tet"] + 2,
                "face": g["face"],
                "to_tet": g["to_tet"] + 2,
                "to_face": g["to_face"],
                "vertex_map": list(g["vertex_map"]),
            }
        )
    T = validate(doc)
    assert T.n_edge_classes == 12 and len(T.vertex_classes) == 8
    metric = np.zeros(T.n_edge_classes)
    for pair, slot in PAIR_INDEX.items():
        metric[T.edge_class_of[(0, pair)]] = la[slot]
        metric[T.edge_class_of[(2, pair)]] = lb[slot]
    forward = assignment_from_metric(T, metric)
    from hyptet import cone_angles

    k = cone_angles(T, forward)
    primal = maximize_volume(T, k)
    assert np.max(np.abs(primal.maximizer.values - forward.values)) <= 1e-6
    dual = solve_cone_angles(T, k)
    target = gauge_project(T, metric).values
    assert np.max(np.abs(dual.metric.values - target)) <= 1e-6
    assert abs(dual.objective - 2 * primal.volume) <= 1e-6 * (
        1 + abs(2 * primal.volume)
    )


def test_reports_serialize():
    T, k, _ = doubled_fixture(np.zeros(6))
    primal = maximize_volume(T, k)
    dual = solve_cone_angles(T, k)
    rig = rigidity_check(T, k, n_starts=2)
    pj = primal.to_json()
    assert set(pj) == {
        "maximizer",
        "volume",
        "kkt_residual",
        "boundary_flags",
        "iterations",
    }
    dj = dual.to_json(T)
    assert set(dj) == {"metric", "residual", "diverged", "objective"}
    rj = rig.to_json()
    assert rj["all_agree"] is True

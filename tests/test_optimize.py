"""Primal maximization, dual solve, gap, and rigidity on forward fixtures."""

import itertools
import math
import time
import warnings

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
    AngleRegionLabel,
    ConeTarget,
    GeneralizedMetric,
    RegionLabel,
    assemble,
    assignment_from_metric,
    classify,
    classify_angles,
    cone_angles,
    curvature,
    doubled_fixture,
    duality_gap,
    find_interior,
    gauge_project,
    is_member,
    maximize_volume,
    rigidity_check,
    solve_cone_angles,
    volume_from_angles,
)
from hyptet.errors import InadmissibleTarget, MaxIterations, NoInteriorStart
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import (
    FLAT_PATTERNS,
    SLOT_COEF,
    SLOT_CONST,
    _cell_slacks,
    _near_flat,
    _slot_angles,
)
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
        values[T.slot_class[0, slot]] = l0[slot]
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
        flags = rep.boundary_flags
        assert type(flags) is list and all(type(f) is bool for f in flags)


def test_maximize_symmetric_zero_lengths():
    T, k, assignment = doubled_fixture(np.zeros(6))
    rep = maximize_volume(T, k)
    acos34 = math.acos(0.75)
    assert np.allclose(rep.maximizer.values[:, :3], acos34, atol=1e-6)
    assert np.max(np.abs(rep.maximizer.values - assignment.values)) <= 1e-6


def test_maximize_multistart_uniqueness():
    from scipy.linalg import null_space

    from hyptet import find_interior

    rng = np.random.default_rng(51)
    l0 = _interior_lengths(rng)
    T, k, _ = doubled_fixture(l0)
    witness = find_interior(T, k).witness.values[:, :3].ravel()
    Z = null_space(T.a_eq.toarray())
    reps = []
    while len(reps) < 5:
        u0 = witness + Z @ rng.uniform(-0.5, 0.5, Z.shape[1])
        if np.any(_cell_slacks(u0) <= 1e-3):
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


def test_maximize_raises_when_the_barrier_stalls(monkeypatch):
    # no Newton step per barrier weight: the KKT residual stays far above tol
    T = validate(cover_document(4))
    angles = sample_interior_angles(np.random.default_rng(63), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(angles))
    monkeypatch.setattr(hyptet.optimize, "_INNER", 0)
    with pytest.raises(MaxIterations, match="barrier maximization stalled") as exc:
        maximize_volume(T, k, tol=1e-8)
    assert exc.value.residual > 1e-8


def test_maximize_rejects_bad_u0():
    T = validate(cover_document(4))
    angles = sample_interior_angles(np.random.default_rng(66), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(angles))
    u0 = angles[:, :3].ravel()
    with pytest.raises(NoInteriorStart, match="u0 violates the edge equations"):
        maximize_volume(T, k, u0=u0 + 1e-3)
    # on the edge equations of its own cone angles, but with one free angle 0
    outside = u0.copy()
    outside[0] = 0.0
    k_out = cone_angles(T, _slot_angles(outside))
    with pytest.raises(NoInteriorStart, match="u0 is not strictly interior"):
        maximize_volume(T, k_out, u0=outside)
    # a NaN would pass the edge check by failing its comparison
    message = "u0 must be a finite vector of three free angles per tetrahedron"
    for bad in (np.full_like(u0, np.nan), np.r_[np.inf, u0[1:]], u0[:5]):
        with pytest.raises(ValueError, match=message):
            maximize_volume(T, k, u0=bad)


#: every entry point that reads a cone target or a metric as a plain array,
#: called on the double with its assignment ``A`` and the vector ``v``
_EDGE_VECTOR_CALLS = {
    "assemble": (lambda T, A, v: assemble(T, v), "cone target"),
    "find_interior": (lambda T, A, v: find_interior(T, v), "cone target"),
    "maximize_volume": (lambda T, A, v: maximize_volume(T, v), "cone target"),
    "solve_cone_angles": (lambda T, A, v: solve_cone_angles(T, v), "cone target"),
    "duality_gap": (lambda T, A, v: duality_gap(T, v), "cone target"),
    "rigidity_check": (lambda T, A, v: rigidity_check(T, v, n_starts=3), "cone target"),
    "is_member": (lambda T, A, v: is_member(T, A, v), "cone target"),
    "curvature": (lambda T, A, v: curvature(T, v), "metric"),
    "gauge_project": (lambda T, A, v: gauge_project(T, v), "metric"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(_EDGE_VECTOR_CALLS))
def test_non_finite_edge_vector_is_rejected(name, bad):
    # a NaN passes every comparison by failing it, and an inf overflows the
    # counting identity: both stop where the vector enters, without a warning
    T, k, assignment = doubled_fixture(
        _interior_lengths(np.random.default_rng(90))
    )
    call, what = _EDGE_VECTOR_CALLS[name]
    one_bad = k.values.copy()
    one_bad[2] = bad
    for v in ([bad] * T.n_edge_classes, one_bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{what} must be finite$"):
                call(T, assignment, v)


def test_start_on_the_equations_takes_no_phase_step(monkeypatch):
    T = validate(cover_document(4))
    angles = sample_interior_angles(np.random.default_rng(65), T.n_tetrahedra)
    k = cone_angles(T, AngleAssignment(angles))
    u0 = angles[:, :3].ravel()
    rep = maximize_volume(T, k, tol=1e-8, u0=u0)
    monkeypatch.setattr(hyptet.optimize, "_PHASE_ONE", 0)
    monkeypatch.setattr(hyptet.optimize, "find_interior", None)
    assert maximize_volume(T, k, tol=1e-8, u0=u0).to_json() == rep.to_json()


def _near_flat_flags_by_loop(angles, tol=1e-6):
    flags = []
    for row in angles:
        d = min(float(np.max(np.abs(row - p))) for p in FLAT_PATTERNS)
        flags.append(d <= tol)
    return flags


def test_near_flat_flags_match_row_loop():
    rng = np.random.default_rng(64)
    rows = [sample_interior_angles(rng, 20)]
    # on the apex face of the closed polytope, at slot distance d from a corner
    for i in range(3):
        for d in (0.0, 5e-7, 1e-6, 2e-6, 1e-3):
            u = np.zeros((4, 3))
            u[:, i] = PI - d
            u[:, (i + 1) % 3] = rng.uniform(0.0, d, 4)
            u[:, (i + 2) % 3] = d - u[:, (i + 1) % 3]
            rows.append(u @ SLOT_COEF.T + SLOT_CONST)
    polytope = np.concatenate(rows)
    for p in FLAT_PATTERNS:
        for d in (0.0, 5e-7, 1e-6, 2e-6):
            rows.append(p + rng.choice([-d, d], size=(4, 6)))
    A = np.concatenate(rows)
    flags = _near_flat(A, 1e-6).tolist()
    assert flags == _near_flat_flags_by_loop(A)
    assert any(flags) and not all(flags)
    # in the polytope, classify_angles says B_II exactly on the flagged rows
    labels = [classify_angles(row, tol=1e-6) for row in polytope]
    assert [lab is AngleRegionLabel.B_II for lab in labels] == flags[: len(polytope)]
    assert {AngleRegionLabel.B, AngleRegionLabel.B_II, AngleRegionLabel.B_III} <= set(
        labels
    )


def test_barrier_always_has_free_directions():
    # 3n - rank(a_eq) >= 3n - E + cusps = 2n - h + chi >= n, with chi >= 0 and
    # at most n hyperideal classes h, so the polytope ``maximize_volume``
    # searches is never a single point; random gluings pair the faces
    # opposite the truncated vertex, so n is even
    docs = [double_document(), snake_document(), disjoint_double_document()]
    docs += [cover_document(m) for m in (1, 4, 16, 64)]
    sizes = itertools.cycle(range(2, 33, 2))
    docs += [random_gluing_document(next(sizes), seed) for seed in range(300)]
    for doc in docs:
        T = validate(doc)
        n = T.n_tetrahedra
        assert 3 * n - T.n_edge_classes + T.gauge_matrix.shape[1] >= n


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


@pytest.mark.parametrize(
    "tol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
)
@pytest.mark.parametrize(
    "solver",
    [
        maximize_volume,
        solve_cone_angles,
        duality_gap,
        rigidity_check,
        lambda T, k, tol: is_member(T, np.zeros((2, 6)), k, tol=tol),
    ],
    ids=["maximize", "solve", "gap", "rigidity", "is_member"],
)
def test_solvers_reject_bad_tolerances(solver, tol):
    # checked before any work: the target's wrong length is not reached.  An
    # is_member tol of -1 would judge an exact maximizer Outside, and one of
    # inf a negative slot angle a boundary point
    T, k, _ = doubled_fixture([0.1, -0.2, 0.3, 0.5, 0.4, 0.6])
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        solver(T, np.append(k.values, 1.0), tol=tol)


@pytest.mark.parametrize("tol", [1e-300, 1e-322, 5e-324])
def test_rigidity_accepts_every_positive_tolerance(tol):
    # the starts solve at tol / 100, which underflows to 0 below ~5e-322;
    # a tolerance no solve can reach stalls, quickly, and is never rejected
    T, k, _ = doubled_fixture([0.1, -0.2, 0.3, 0.5, 0.4, 0.6])
    t0 = time.perf_counter()
    with pytest.raises(MaxIterations, match="stalled"):
        rigidity_check(T, k, tol=tol)
    assert time.perf_counter() - t0 < 1.0


def test_dual_never_false_success_on_boundary_only_target():
    # admissible, but only boundary assignments exist: the infimum is not
    # attained, and the target is feasible, so no Farkas certificate exists;
    # the solver must fail honestly
    from hyptet import AngleAssignment, cone_angles

    T = validate(double_document())
    b = np.array(
        [0.0, 0.7, 0.9, (PI - 0.7 + 0.9) / 2, (PI - 0.9 + 0.7) / 2, (PI - 1.6) / 2]
    )
    k = cone_angles(T, AngleAssignment(np.stack([b, b])))
    with pytest.raises(MaxIterations) as exc:
        solve_cone_angles(T, k, tol=1e-8)
    assert exc.value.residual > 1e-8


@pytest.mark.parametrize(
    "apex",
    [(0.0, 0.7, 0.9), (1.2, 1.0, PI - 2.2), (1e-3, PI - 2e-3, 1e-3)],
    ids=["pinned-zero", "apex-pi", "apex-pi-near-flat"],
)
@pytest.mark.parametrize(
    "doc",
    [double_document, lambda: cover_document(4), random_gluing_document],
    ids=["double", "cover4", "random16"],
)
def test_dual_never_certifies_a_closed_assignment_target(doc, apex):
    # every cell on one boundary row of its closed angle polytope: that
    # assignment realizes k, so a diverged verdict would be a false
    # certificate of infeasibility
    T = validate(doc())
    row = SLOT_CONST + SLOT_COEF @ np.array(apex)
    k = cone_angles(T, AngleAssignment(np.tile(row, (T.n_tetrahedra, 1))))
    try:
        rep = solve_cone_angles(T, k, tol=1e-8)
    except MaxIterations as exc:
        assert exc.residual > 1e-8
    else:
        assert not rep.diverged and rep.residual <= 1e-8


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


def test_rigidity_reports_certified_infeasible_target():
    # apex sum above pi in both cells: the first start certifies infeasibility
    T = validate(double_document())
    row = SLOT_CONST + SLOT_COEF @ np.array([1.5, 1.2, 1.0])
    k = cone_angles(T, AngleAssignment(np.stack([row, row])))
    with pytest.raises(MaxIterations, match="certified infeasible"):
        rigidity_check(T, k)


def test_rigidity_needs_two_starts():
    T, k, _ = doubled_fixture(np.zeros(6))
    with pytest.raises(ValueError):
        rigidity_check(T, k, n_starts=1)


def test_rigidity_skips_a_failed_start(monkeypatch):
    T, k, _ = doubled_fixture(_interior_lengths(np.random.default_rng(59)))
    solve = hyptet.optimize.solve_cone_angles
    calls = []

    def second_start_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MaxIterations("dual solve stalled", residual=1.0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(hyptet.optimize, "solve_cone_angles", second_start_fails)
    rep = rigidity_check(T, k, n_starts=4, tol=1e-6)
    assert rep.failed_starts == [1]
    assert rep.all_agree and rep.pairwise_distance <= 1e-6
    assert rep.to_json()["failed_starts"] == [1]


def test_rigidity_reraises_when_every_start_fails(monkeypatch):
    T, k, _ = doubled_fixture(np.zeros(6))
    calls = []

    def always_fails(*args, **kwargs):
        calls.append(None)
        raise MaxIterations(f"start {len(calls) - 1} stalled", residual=1.0)

    monkeypatch.setattr(hyptet.optimize, "solve_cone_angles", always_fails)
    with pytest.raises(MaxIterations, match="^start 2 stalled$"):
        rigidity_check(T, k, n_starts=3)
    assert len(calls) == 3


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

    T, k0, _ = doubled_fixture(np.zeros(6))
    m_flat = np.zeros(T.n_edge_classes)
    m_flat[T.slot_class[0, PAIR_INDEX[(3, 4)]]] = 25.0
    k_flat = cone_angles(T, afm(T, m_flat))

    mild = ConeTarget(0.99 * k_flat.values + 0.01 * k0.values)
    rep = solve_cone_angles(T, mild, tol=1e-8)
    assert rep.residual <= 1e-8 and not rep.diverged

    # an interior target: a diverged verdict would be a false certificate
    extreme = ConeTarget(0.999 * k_flat.values + 0.001 * k0.values)
    try:
        rep = solve_cone_angles(T, extreme, tol=1e-10)
    except MaxIterations as exc:
        assert exc.residual > 1e-10
    else:
        assert not rep.diverged and rep.residual <= 1e-10


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
    assert T.n_edge_classes == 12 and T.n_vertex_classes == 8
    metric = np.zeros(T.n_edge_classes)
    for pair, slot in PAIR_INDEX.items():
        metric[T.slot_class[0, slot]] = la[slot]
        metric[T.slot_class[2, slot]] = lb[slot]
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

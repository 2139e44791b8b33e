"""Single-tetrahedron geometry: cosine extensions, regions, conversions."""

import math

import numpy as np
import pytest

from hyptet import (
    AngleRegionLabel,
    Membership,
    RegionLabel,
    angles_to_lengths,
    apply_decoration,
    classify,
    classify_angles,
    extended_angles,
    is_member,
    phi,
    theta_table,
    volume_from_angles,
    volume_gradient,
)
from hyptet.errors import (
    AmbiguousClassification,
    BoundaryGradient,
    InvalidAngles,
    NotInteriorAngle,
)
from hyptet import tetra
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import (
    CELL_VERTICES,
    FLAT_PATTERNS,
    _judge_cells,
    _near_flat,
    _slot_angles,
)
from hyptet.triangulation import double_document, validate

PI = math.pi
ACOS_3_4 = math.acos(0.75)
LOG_HALF_SQRT2 = math.log(math.sqrt(2.0) / 2.0)  # = -ln(2)/2


def test_phi_hand_example():
    p = phi([1, 1, 1, 2, 2, 2])
    assert np.allclose(p[:3], 0.75, atol=1e-14)
    assert np.allclose(p[3:], 1.0 / (2.0 * math.sqrt(2.0)), atol=1e-14)


def test_phi_symmetric_normalized_example():
    s = LOG_HALF_SQRT2
    p = phi([0, 0, 0, s, s, s])
    assert np.allclose(p[:3], math.sqrt(2.0) / 2.0, atol=1e-14)


def test_phi_decoration_invariance_exact_on_dyadics():
    # on a dyadic grid every shift is exact in binary, so the outputs
    # must agree bitwise
    rng = np.random.default_rng(0)
    for _ in range(200):
        l = rng.integers(-192, 192, 6) / 64.0
        w = rng.integers(-128, 128, 3) / 64.0
        assert np.array_equal(phi(l), phi(np.asarray(apply_decoration(l, w))))


def test_phi_decoration_invariance_generic():
    rng = np.random.default_rng(22)
    for _ in range(200):
        l = rng.uniform(-3, 3, 6)
        w = rng.uniform(-2, 2, 3)
        p0 = phi(l)
        p1 = phi(np.asarray(apply_decoration(l, w)))
        assert np.max(np.abs(p1 - p0) / np.maximum(1.0, np.abs(p0))) <= 1e-12


def test_phi_overflow_guard():
    rng = np.random.default_rng(1)
    for _ in range(50):
        l = rng.uniform(-300, 300, 6)
        p = phi(l)
        assert np.all(np.isfinite(p))
    a = np.asarray(extended_angles(rng.uniform(-300, 300, 6)))
    assert np.all((a >= 0.0) & (a <= PI))


def test_theta_table_at_zero():
    t = theta_table([0, 0, 0, 0, 0, 0])
    acosh3 = float(np.arccosh(3.0))
    assert t.t1_23 == pytest.approx(acosh3, abs=1e-14)
    assert t.t1_24 == pytest.approx(acosh3, abs=1e-14)
    assert t.t1_34 == pytest.approx(acosh3, abs=1e-14)
    for name in ("t2_13", "t2_14", "t3_12", "t3_14", "t4_12", "t4_13"):
        assert getattr(t, name) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
    for name in ("t2_34", "t3_24", "t4_23"):
        assert getattr(t, name) == pytest.approx(2.0, abs=1e-14)


def test_theta_table_decorated_example():
    t = theta_table([1, 1, 1, 2, 2, 2])
    acosh3 = float(np.arccosh(3.0))
    assert t.t1_23 == pytest.approx(acosh3, abs=1e-14)
    assert t.t1_34 == pytest.approx(acosh3, abs=1e-14)


def test_theta_positive_everywhere():
    rng = np.random.default_rng(2)
    for _ in range(500):
        l = rng.uniform(-5, 5, 6)
        assert all(v > 0.0 for v in theta_table(l))


def test_classify_interior_example():
    assert classify([1, 1, 1, 2, 2, 2]) is RegionLabel.INTERIOR


def test_classify_wall_example():
    # constructed so that the apex cosine extension hits -1 exactly on
    # slot 14; the value +1 on slots 12 and 13 is forced by the identities
    c = (
        2.0 * math.e**6
        + math.e**2
        + math.e**4
        - 2.0 * math.e**3 * math.sqrt((1.0 + math.e**2) * (1.0 + math.e**4))
    )
    label = classify([1, 1, 1, 6, 4, 2 + math.log(c)])
    assert label is not RegionLabel.INTERIOR
    assert label is RegionLabel.X3


def test_classify_degenerate_regions():
    assert classify([0, 0, 0, 10, 0, 0]) is RegionLabel.OMEGA3
    assert classify([0, 0, 0, 0, 10, 0]) is RegionLabel.OMEGA2
    assert classify([0, 0, 0, 0, 0, 10]) is RegionLabel.OMEGA1
    # the long slot violates the vertex-triangle inequality
    t = theta_table([0, 0, 0, 10, 0, 0])
    assert t.t1_23 > t.t1_24 + t.t1_34


def test_classify_tol_domain():
    with pytest.raises(ValueError):
        classify([0, 0, 0, 0, 0, 0], tol=1e-3)
    # classify_angles shares the band check and its message
    alpha = [PI / 4] * 3 + [3 * PI / 8] * 3
    for tol in (0.0, -1e-9, 2e-6, math.nan):
        for query, x in ((classify, [1, 1, 1, 2, 2, 2]), (classify_angles, alpha)):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1e-6\]"):
                query(x, tol=tol)
    assert classify_angles(alpha, tol=1e-6) is AngleRegionLabel.B


def test_classify_ambiguous_band_straddle():
    # bisect the wall along one length, then step inside by a few
    # tolerances: the apex slot reads interior while shallower slots are
    # still inside their bands -> inconsistent pattern
    base = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.0])

    def phi12(t):
        v = base.copy()
        v[5] = t
        return phi(v)[0]

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi12(mid) > -1.0:
            lo = mid
        else:
            hi = mid
    tol = 1e-7
    slope = abs(phi12(lo + 1e-6) - phi12(lo - 1e-6)) / 2e-6
    v = base.copy()
    v[5] = 0.5 * (lo + hi) - 5.0 * tol / slope
    with pytest.raises(AmbiguousClassification):
        classify(v, tol=tol)


#: band tolerances from 1e-9 to 1e-6, two per decade and the ends
BAND_TOLS = [m * 10.0**e for e in (-9, -8, -7) for m in (1, 2, 5)] + [1e-6]


@pytest.mark.parametrize("tol", BAND_TOLS)
def test_classify_band_edges_leave_no_gap(tol, monkeypatch):
    # the wall test and the interior test read the same rounded bound
    # fl(-1 + tol): when it rounds up, an apex phi of exactly that bound is
    # more than tol from -1, yet not above the bound, and must still be X1
    hi, lo = -1.0 + tol, -1.0 - tol
    want = {
        np.nextafter(hi, -2.0): RegionLabel.X1,
        hi: RegionLabel.X1,
        np.nextafter(hi, 0.0): RegionLabel.INTERIOR,
        lo: RegionLabel.OMEGA1,
        np.nextafter(lo, 0.0): RegionLabel.X1,
    }
    for p, label in want.items():
        monkeypatch.setattr(tetra, "phi", lambda _: np.array([p, .5, .5, .5, .5, p]))
        assert classify(np.zeros(6), tol=tol) is label


def test_classify_band_edge_sweep_reaches_the_gap():
    # the sweep above holds a tol whose bound rounds up, where a wall test
    # on the exact |p + 1| would call the bound neither wall nor interior
    assert any((-1.0 + tol) + 1.0 > tol for tol in BAND_TOLS)


def test_classify_walls_by_bisection():
    # walk one length into each degenerate region and bisect the crossing;
    # the crossing point must classify as the corresponding wall
    for slot, wall in ((5, RegionLabel.X1), (4, RegionLabel.X2), (3, RegionLabel.X3)):
        base = np.array([0.2, -0.1, 0.3, 0.1, -0.2, 0.15])

        def apex_phi(t):
            v = base.copy()
            v[slot] = t
            return float(np.min(phi(v)[:3]))

        lo, hi = base[slot], 30.0
        assert apex_phi(lo) > -1.0 > apex_phi(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if apex_phi(mid) > -1.0:
                lo = mid
            else:
                hi = mid
        v = base.copy()
        v[slot] = 0.5 * (lo + hi)
        assert classify(v, tol=1e-9) is wall


def test_extended_angles_constants_on_degenerate_regions():
    a = extended_angles([0, 0, 0, 0, 0, 10])
    assert tuple(a) == (PI, 0.0, 0.0, 0.0, 0.0, PI)
    a = extended_angles([0, 0, 0, 0, 10, 0])
    assert tuple(a) == (0.0, PI, 0.0, 0.0, PI, 0.0)
    a = extended_angles([0, 0, 0, 10, 0, 0])
    assert tuple(a) == (0.0, 0.0, PI, PI, 0.0, 0.0)


def test_extended_angles_interior_example():
    a = extended_angles([1, 1, 1, 2, 2, 2])
    assert a.a12 == pytest.approx(ACOS_3_4, abs=1e-14)
    assert a.a34 == pytest.approx(PI / 2.0 - ACOS_3_4 / 2.0, abs=1e-13)


def test_extended_angles_decoration_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        l = rng.integers(-192, 192, 6) / 64.0
        w = rng.integers(-128, 128, 3) / 64.0
        a1 = np.asarray(extended_angles(l))
        a2 = np.asarray(extended_angles(np.asarray(apply_decoration(l, w))))
        assert np.array_equal(a1, a2)


def test_apply_decoration_definition():
    out = apply_decoration([0, 0, 0, 0, 0, 0], (1, 1, 1))
    assert tuple(out) == (1, 1, 1, 2, 2, 2)
    l = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.1])
    assert tuple(apply_decoration(l, (0, 0, 0))) == tuple(l)


def test_angles_to_lengths_symmetric_example():
    alpha = [PI / 4] * 3 + [3 * PI / 8] * 3
    l = angles_to_lengths(alpha)
    assert l.l12 == 0.0 and l.l13 == 0.0 and l.l14 == 0.0
    for v in (l.l23, l.l24, l.l34):
        assert v == pytest.approx(LOG_HALF_SQRT2, abs=1e-14)


def test_angles_to_lengths_inverse_of_phi_example():
    a = ACOS_3_4
    alpha = [a] * 3 + [PI / 2 - a / 2] * 3
    l = angles_to_lengths(alpha)
    for v in (l.l23, l.l24, l.l34):
        assert v == pytest.approx(0.0, abs=1e-13)


def test_angles_to_lengths_rejects_flat_pattern():
    with pytest.raises(NotInteriorAngle):
        angles_to_lengths([PI, 0, 0, 0, 0, PI])
    with pytest.raises(NotInteriorAngle):
        angles_to_lengths([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])  # cusp sums off


def test_round_trip_on_random_interior_angles():
    rng = np.random.default_rng(4)
    A = sample_interior_angles(rng, 1000)
    worst = 0.0
    for row in A:
        back = np.asarray(extended_angles(np.asarray(angles_to_lengths(row))))
        worst = max(worst, float(np.max(np.abs(back - row))))
    assert worst <= 1e-10


def _mp_cosh_sides(angles, mpmath):
    """cosh of the side opposite each angle, in mpmath from the float angles."""
    A = [mpmath.mpf(float(a)) for a in angles]
    return [
        (mpmath.cos(A[i]) + mpmath.cos(A[j]) * mpmath.cos(A[k]))
        / (mpmath.sin(A[j]) * mpmath.sin(A[k]))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-160, 1e-200, 1e-300, 5e-324])
def test_vertex_triangle_with_tiny_angles_against_mpmath(eps):
    # sin B sin C underflows, and cosh of a side overflows, though the sides
    # and lengths themselves are moderate
    mpmath = pytest.importorskip("mpmath")
    for apex in ([eps, eps, eps], [1.0, eps, eps], [eps, 0.5, eps]):
        with mpmath.workdps(60):
            x = _mp_cosh_sides(apex, mpmath)
            sides = [mpmath.acosh(v) for v in x]
            lengths = [mpmath.log((v - 1) / 2) for v in x]
        for got, want in zip(tetra.hyperbolic_triangle_sides(*apex), sides):
            assert abs(got - want) <= 1e-13 * want
        l = angles_to_lengths(_slot_angles(apex)[0])
        # the vertex triangle's sides, opposite a12, a13, a14, are l34, l24, l23
        for got, want in zip((l.l34, l.l24, l.l23), lengths):
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.filterwarnings("error")
def test_vertex_triangle_near_flat_is_finite():
    # cos A + cos B cos C rounds to 0 here; the 60-digit values are those of
    # the float angles
    sides = tetra.hyperbolic_triangle_sides(PI - 1e-9, 1e-10, 1e-10)
    want = (4.5848637579953667, 2.2924318789976833, 2.2924318789976833)
    for got, w in zip(sides, want):
        assert abs(got - w) <= 1e-13 * w
    l = angles_to_lengths(_slot_angles([PI - 1e-9, 1e-10, 1e-10])[0])
    want = (3.1780542578584208, 0.69314743706622601, 0.69314743706622601)
    for got, w in zip((l.l34, l.l24, l.l23), want):
        assert abs(got - w) <= 1e-13 * w


def _near_flat_triangles(d):
    """Four families of vertex triangles with angle defect ``d`` (to the
    rounding of the float angles), the smallest angle at least 1e-10 and
    every length ln sinh^2(t/2) at least 0.39 in size."""
    return [
        (PI - d - 2e-10, 1e-10, 1e-10),  # A -> pi
        (1e-10, 1.0, PI - 1.0 - 1e-10 - d),  # B + C -> pi, A small
        ((PI - 2.0 * d) / 2.0, (PI - 2.0 * d) / 2.0, d),  # A = B -> pi/2
        (0.3, 2.0, PI - 2.3 - d),  # B + C -> pi - A, A = 0.3
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", np.logspace(-15, -3, 7))
def test_vertex_triangle_near_flat_against_mpmath(d):
    # the defect is summed exactly against a two-term pi, so the error stays
    # at rounding level however flat the triangle
    mpmath = pytest.importorskip("mpmath")
    for apex in _near_flat_triangles(d):
        with mpmath.workdps(60):
            x = _mp_cosh_sides(apex, mpmath)
            sides = [mpmath.acosh(v) for v in x]
            lengths = [mpmath.log((v - 1) / 2) for v in x]
        for got, want in zip(tetra.hyperbolic_triangle_sides(*apex), sides):
            assert abs(got - want) <= 1e-13 * want
        l = angles_to_lengths(_slot_angles(apex)[0])
        for got, want in zip((l.l34, l.l24, l.l23), lengths):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_classify_angles_cases():
    assert classify_angles([0, PI, 0, 0, PI, 0]) is AngleRegionLabel.B_II
    assert (
        classify_angles([PI / 4] * 3 + [3 * PI / 8] * 3) is AngleRegionLabel.B
    )
    assert (
        classify_angles([0, PI / 2, PI / 2, PI / 2, PI / 2, 0])
        is AngleRegionLabel.B_III
    )
    assert (
        classify_angles([0.0, 0.3, 0.4, (PI - 0.3 + 0.4) / 2,
                         (PI - 0.4 + 0.3) / 2, (PI - 0.7) / 2])
        is AngleRegionLabel.B_I_BOUNDARY
    )
    assert classify_angles([1, 1, 1, 1, 1, 1]) is AngleRegionLabel.OUTSIDE


def test_region_sign_identities_bulk():
    rng = np.random.default_rng(5)
    L = rng.uniform(-3, 3, (20_000, 6))
    from hyptet._kernels import phi_batch

    P = phi_batch(L)
    clear = np.all(np.abs(np.abs(P) - 1.0) > 1e-12, axis=1)
    P = P[clear]
    neg = P <= -1.0
    pos = P >= 1.0
    for a, b in ((0, 5), (1, 4), (2, 3)):
        assert np.array_equal(neg[:, a], neg[:, b])
        assert np.array_equal(pos[:, a], pos[:, b])
    for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        assert np.array_equal(pos[:, a], np.logical_xor(neg[:, b], neg[:, c]))
    assert np.max(neg[:, :3].sum(axis=1)) <= 1


# the single-cell checks that the one cell judge (``tetra._judge_cells``)
# replaced, kept verbatim as oracles for it


def _cusp_sums(A):
    """Angle sums at the cusped vertices 2, 3, 4 of each row, (..., 3)."""
    return A[..., [0, 1, 2]] + A[..., [3, 3, 4]] + A[..., [4, 5, 5]]


def _check_closure_membership(a, tol):
    """Return None if ``a`` lies in the closed angle polytope, else a reason."""
    if np.any(a < -tol) or np.any(a > PI + tol):
        return "entries outside [0, pi]"
    if a[0] + a[1] + a[2] > PI + tol:
        return "apex angle sum exceeds pi"
    bad = np.abs(_cusp_sums(a) - PI) > tol
    if np.any(bad):
        return "cusp angle sums differ from pi"
    return None


def _require_interior_angles(a):
    if np.any(a <= 0.0) or np.any(a >= PI):
        raise NotInteriorAngle("all six angles must lie strictly in (0, pi)")
    if a[0] + a[1] + a[2] >= PI:
        raise NotInteriorAngle("apex angle sum must be strictly below pi")
    if np.any(np.abs(_cusp_sums(a) - PI) > 1e-9):
        raise NotInteriorAngle("cusp angle sums must equal pi within 1e-9")


def _classify_angles_by_oracle(a, tol):
    """``classify_angles`` before the cell judge, after its tol and input checks."""
    if _check_closure_membership(a, tol) is not None:
        return AngleRegionLabel.OUTSIDE
    if a[0] + a[1] + a[2] < PI - tol:
        if np.all(a > tol):
            return AngleRegionLabel.B
        return AngleRegionLabel.B_I_BOUNDARY
    if _near_flat(a, tol):
        return AngleRegionLabel.B_II
    return AngleRegionLabel.B_III


def _judged_reason(a, tol):
    """The first failed closed-polytope condition of ``_judge_cells``."""
    cell = _judge_cells(a.reshape(1, 6), tol)
    for failed, reason in (
        (cell.range, "entries outside [0, pi]"),
        (cell.apex, "apex angle sum exceeds pi"),
        (cell.cusp, "cusp angle sums differ from pi"),
    ):
        if failed.any():
            return reason
    return None


def _pushed_rows(tol):
    """Seeded interior rows, the flat patterns and the polytope's vertices,
    then rows pushed 0.5 tol and 2 tol past each face: an angle below 0 or
    above pi, the apex sum above pi, and each cusp sum off pi either way."""
    inner = sample_interior_angles(np.random.default_rng(61), 20)
    corners = np.vstack([FLAT_PATTERNS, CELL_VERTICES.T])
    rows = [inner, corners]
    for d in (0.5 * tol, 2.0 * tol):
        for base in (inner[:5], corners):
            for j in range(6):
                for value in (-d, PI + d):
                    pushed = base.copy()
                    pushed[:, j] = value
                    rows.append(pushed)
        u = inner[:, :3] * ((PI + d) / inner[:, :3].sum(axis=1, keepdims=True))
        rows.append(_slot_angles(u.ravel()))
        rows.append(corners + d)
        for j in range(3):  # the apex slot a1j moves cusp j + 2 alone
            for sign in (1.0, -1.0):
                pushed = inner.copy()
                pushed[:, j] += sign * d
                rows.append(pushed)
    return np.vstack(rows)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_cell_judge_matches_closure_oracle(tol):
    rows = _pushed_rows(tol)
    labels = set()
    for a in rows:
        label = classify_angles(a, tol=tol)
        assert label is _classify_angles_by_oracle(a, tol)
        assert _judged_reason(a, tol) == _check_closure_membership(a, tol)
        labels.add(label)
    assert labels == set(AngleRegionLabel)


def test_volume_from_angles_reasons_match_closure_oracle():
    for tol in (1e-9, 1e-6):
        for a in _pushed_rows(tol):
            reason = _check_closure_membership(a, 1e-9)
            if reason is None:
                assert volume_from_angles(a) >= 0.0
            else:
                with pytest.raises(InvalidAngles) as err:
                    volume_from_angles(a)
                assert str(err.value) == reason


@pytest.mark.parametrize("query", [angles_to_lengths, volume_gradient])
def test_open_cell_checks_match_interior_oracle(query):
    for tol in (1e-9, 1e-6):
        for a in _pushed_rows(tol):
            try:
                _require_interior_angles(a)
            except NotInteriorAngle as want:
                with pytest.raises(NotInteriorAngle) as got:
                    query(a)
                assert str(got.value) == str(want)
            else:
                try:
                    query(a)
                except BoundaryGradient:
                    pass


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_apex_band_edge_is_one_verdict(tol):
    # an apex sum of exactly fl(pi - tol) still has slack pi - apex > tol
    # when fl rounds down, as at these two tols; comparing the sum with the
    # rounded bound, as classify_angles once did, calls such a cell B_III
    # while is_member calls it interior; the one judge says interior in both
    a14 = (PI - tol) - 2.0
    row = _slot_angles(np.array([1.0, 1.0, a14]))[0]
    assert row[0] + row[1] + row[2] == PI - tol and PI - (PI - tol) > tol
    assert classify_angles(row, tol=tol) is AngleRegionLabel.B
    T = validate(double_document())
    A = np.stack([row, row])
    assert is_member(T, A, T.edge_sums(A), tol=tol)[0] is Membership.INTERIOR


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: phi([0.0] * 5), "lengths must have six entries, got shape (5,)"),
        (lambda: extended_angles([0.0] * 5 + [math.nan]), "lengths must be finite"),
        (lambda: apply_decoration([0.0] * 6, (1.0, 2.0)),
         "decoration must have three entries (w2, w3, w4)"),
        (lambda: apply_decoration([0.0] * 6, (1.0, math.inf, 0.0)),
         "decoration must be finite"),
        (lambda: tetra.hyperbolic_triangle_sides(0.5, 0.0, 0.5),
         "angles must be positive"),
    ],
    ids=["row-shape", "row-finite", "decoration-shape", "decoration-finite",
         "triangle-angle-zero"],
)
def test_each_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

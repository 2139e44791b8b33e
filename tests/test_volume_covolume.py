"""Volume, its gradient, the convex potential, and the Hessian structure."""

import math

import numpy as np
import pytest

from hyptet import (
    angles_to_lengths,
    apply_decoration,
    boundary_face_hessian,
    covolume,
    covolume_gradient,
    covolume_hessian,
    extended_angles,
    hyperbolic_triangle_sides,
    volume_from_angles,
    volume_gradient,
)
from hyptet.errors import (
    BoundaryGradient,
    InvalidAngles,
    NotHyperbolic,
    NotInterior,
    OutOfFace,
)
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import GAUGE_VECTORS

PI = math.pi
LOG_HALF_SQRT2 = math.log(math.sqrt(2.0) / 2.0)

# frozen from the quadrature oracle
VOL_PI_4 = 1.3253592488666603

ALPHA_PI_4 = np.array([PI / 4] * 3 + [3 * PI / 8] * 3)


def _full(apex):
    a12, a13, a14 = apex
    return np.array(
        [
            a12,
            a13,
            a14,
            (PI - a12 - a13 + a14) / 2,
            (PI - a12 - a14 + a13) / 2,
            (PI - a13 - a14 + a12) / 2,
        ]
    )


def test_volume_zero_on_flat_patterns():
    assert volume_from_angles([PI, 0, 0, 0, 0, PI]) == 0.0
    assert volume_from_angles([0, PI, 0, 0, PI, 0]) == 0.0
    assert volume_from_angles([0, 0, PI, PI, 0, 0]) == 0.0


def test_volume_symmetric_value():
    assert volume_from_angles(ALPHA_PI_4) == pytest.approx(VOL_PI_4, abs=1e-12)


def test_volume_ideal_limit_face():
    # at apex sum pi the cell degenerates to an ideal tetrahedron with
    # opposite angles equal; the extension must give the classical value
    from hyptet import lobachevsky, lobachevsky_reference

    rng = np.random.default_rng(23)
    for _ in range(50):
        ab = rng.uniform(0.1, PI - 0.2, 2)
        if ab.sum() >= PI - 0.1:
            continue
        a, b = ab
        c = PI - a - b
        v = volume_from_angles([a, b, c, c, b, a])
        classical = lobachevsky(a) + lobachevsky(b) + lobachevsky(c)
        assert v == pytest.approx(classical, abs=1e-13)
    # regular ideal tetrahedron, checked against the quadrature oracle
    v = volume_from_angles([PI / 3] * 6)
    assert v == pytest.approx(3.0 * lobachevsky_reference(PI / 3, 1e-13), abs=1e-12)


def test_volume_rejects_bad_relations():
    with pytest.raises(InvalidAngles):
        volume_from_angles([1, 1, 1, 1, 1, 1])
    with pytest.raises(InvalidAngles):
        volume_from_angles([-0.1, 0.2, 0.3, 1.0, 1.0, 1.0])


def test_volume_concavity_on_segments():
    rng = np.random.default_rng(11)
    A = sample_interior_angles(rng, 100)
    B = sample_interior_angles(rng, 100)
    for a, b in zip(A, B):
        mid = 0.5 * (a + b)
        v_mid = volume_from_angles(mid)
        avg = 0.5 * (volume_from_angles(a) + volume_from_angles(b))
        assert v_mid >= avg - 1e-12


def test_volume_gradient_symmetric_example():
    g = volume_gradient(ALPHA_PI_4)
    assert np.allclose(g, LOG_HALF_SQRT2 / 4.0, atol=1e-13)


def test_volume_gradient_matches_fd():
    rng = np.random.default_rng(12)
    A = sample_interior_angles(rng, 100)
    h = 1e-6
    for row in A:
        g = volume_gradient(row)
        for d in range(3):
            up = row[:3].copy()
            dn = row[:3].copy()
            up[d] += h
            dn[d] -= h
            fd = (volume_from_angles(_full(up)) - volume_from_angles(_full(dn))) / (
                2 * h
            )
            assert abs(fd - g[d]) <= 1e-6


def test_volume_gradient_symmetric_components_equal():
    g = volume_gradient(_full([0.4, 0.4, 0.4]))
    assert np.allclose(g, g[0], atol=1e-14)


def test_volume_gradient_boundary_error():
    with pytest.raises(BoundaryGradient):
        volume_gradient(_full([1e-10, 0.3, 0.4]))
    # apex sum at pi makes the first log-derivative argument vanish
    with pytest.raises((BoundaryGradient, Exception)):
        volume_gradient(_full([PI / 3, PI / 3, PI / 3 - 1e-13]))


def test_schlafli_identity_against_lengths():
    rng = np.random.default_rng(13)
    A = sample_interior_angles(rng, 100)
    h = 1e-6
    for row in A:
        l = np.asarray(angles_to_lengths(row))
        expected = np.array(
            [
                (l[3] + l[4] - l[5]) / 2 - l[0],
                (l[3] + l[5] - l[4]) / 2 - l[1],
                (l[4] + l[5] - l[3]) / 2 - l[2],
            ]
        )
        for d in range(3):
            up = row[:3].copy()
            dn = row[:3].copy()
            up[d] += h
            dn[d] -= h
            fd2 = (
                2 * volume_from_angles(_full(up)) - 2 * volume_from_angles(_full(dn))
            ) / (2 * h)
            assert abs(fd2 - expected[d]) <= 1e-6


def test_covolume_linear_on_degenerate_regions():
    assert covolume([0, 0, 0, 0, 0, 10]) == pytest.approx(10 * PI, abs=1e-12)
    l = np.array([0.4, -0.3, 0.2, 0.5, -1.0, 12.0])
    assert covolume(l) == pytest.approx(PI * (l[0] + l[5]), abs=1e-12)


def test_covolume_closed_form_example():
    l = np.asarray(angles_to_lengths(ALPHA_PI_4))
    expected = 2 * VOL_PI_4 + 3 * (3 * PI / 8) * LOG_HALF_SQRT2
    assert covolume(l) == pytest.approx(expected, abs=1e-12)


def test_covolume_decoration_shift_is_linear():
    rng = np.random.default_rng(14)
    for _ in range(50):
        l = rng.uniform(-2, 2, 6)
        w = rng.uniform(-1, 1, 3)
        lw = np.asarray(apply_decoration(l, w))
        alpha = covolume_gradient(l)
        shift = w @ GAUGE_VECTORS
        assert covolume(lw) - covolume(l) == pytest.approx(
            float(alpha @ shift), abs=1e-10
        )


def test_covolume_convex_on_segments():
    rng = np.random.default_rng(15)
    for _ in range(200):
        a = rng.uniform(-3, 3, 6)
        b = rng.uniform(-3, 3, 6)
        mid = 0.5 * (a + b)
        assert covolume(mid) <= 0.5 * (covolume(a) + covolume(b)) + 1e-10


def test_covolume_gradient_is_extended_angles():
    rng = np.random.default_rng(16)
    for _ in range(100):
        l = rng.uniform(-4, 4, 6)
        assert np.array_equal(
            covolume_gradient(l), np.asarray(extended_angles(l))
        )


def test_covolume_gradient_matches_fd_everywhere():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(50):
        l = rng.uniform(-3, 3, 6)
        g = covolume_gradient(l)
        for d in range(6):
            up = l.copy()
            dn = l.copy()
            up[d] += h
            dn[d] -= h
            fd = (covolume(up) - covolume(dn)) / (2 * h)
            assert abs(fd - g[d]) <= 1e-6


def _wall_crossing_pair(base, direction, dist=1e-3):
    """Two points straddling the first degeneration wall along a ray."""
    from hyptet import phi

    direction = direction / np.linalg.norm(direction)

    def apex_min(t):
        return float(np.min(phi(base + t * direction)[:3]) + 1.0)

    lo, hi = 0.0, 40.0
    assert apex_min(lo) > 0.0 > apex_min(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if apex_min(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    tstar = 0.5 * (lo + hi)
    return base + (tstar - dist / 2) * direction, base + (tstar + dist / 2) * direction


def _fd_gradient_5pt(f, x, h=1e-5):
    """Fourth-order central differences; robust near the walls, where the
    second derivative degrades like 1/sqrt(distance) and arccos noise
    inflates the value noise floor."""
    g = np.empty_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (
            -f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)
        ) / (12 * h)
    return g


def test_covolume_gradient_continuous_across_wall():
    from hyptet import RegionLabel, classify

    rng = np.random.default_rng(18)
    done = 0
    while done < 10:
        base = rng.uniform(-1, 1, 6)
        if classify(base) is not RegionLabel.INTERIOR:
            continue
        done += 1
        direction = np.zeros(6)
        direction[5] = 1.0  # push one cusp-to-cusp length into degeneracy
        inside, outside = _wall_crossing_pair(base, direction)
        for pt in (inside, outside):
            fd = _fd_gradient_5pt(covolume, pt)
            assert np.max(np.abs(fd - covolume_gradient(pt))) <= 1e-6


def test_covolume_hessian_rank_and_kernel():
    rng = np.random.default_rng(19)
    pts = [np.zeros(6)] + [rng.uniform(-1, 1, 6) for _ in range(10)]
    for l in pts:
        from hyptet import RegionLabel, classify

        if classify(l) is not RegionLabel.INTERIOR:
            continue
        H = covolume_hessian(l)
        w = np.linalg.eigvalsh(H)
        norm = float(np.max(np.abs(w)))
        assert w[0] >= -1e-8 * norm
        assert int(np.sum(w > 1e-4 * norm)) == 3
        assert np.all(np.abs(w[:3]) <= 1e-5 * (1.0 + norm))
        for v in GAUGE_VECTORS:
            assert np.linalg.norm(H @ v) <= 1e-4 * norm


def test_covolume_hessian_domain_checks():
    with pytest.raises(NotInterior):
        covolume_hessian([0, 0, 0, 0, 0, 10])


def test_boundary_face_hessian_closed_form():
    H = boundary_face_hessian(PI / 4, PI / 4)
    assert np.allclose(H, -0.5 * np.array([[3.0, 1.0], [1.0, 3.0]]), atol=1e-14)
    t = math.tan(PI / 8)
    assert np.linalg.det(H) == pytest.approx(
        0.25 * (1 + t * t) ** 2 / (t * t), abs=1e-10
    )
    assert np.linalg.det(H) == pytest.approx(2.0, abs=1e-12)


def test_boundary_face_hessian_matches_fd_and_det_formula():
    rng = np.random.default_rng(20)
    h = 1e-4
    count = 0
    while count < 100:
        # margins keep the fourth derivatives bounded, so the central
        # second differences stay within the 1e-5 comparison band
        a13 = rng.uniform(0.2, PI - 0.4)
        a14 = rng.uniform(0.2, PI - 0.4)
        if a13 + a14 >= PI - 0.3:
            continue
        count += 1
        H = boundary_face_hessian(a13, a14)
        w = np.linalg.eigvalsh(H)
        assert np.all(w < 0.0)
        t, tp = math.tan(a13 / 2), math.tan(a14 / 2)
        det_formula = 0.25 * (1 + t * tp) ** 2 / (t * tp)
        assert np.linalg.det(H) == pytest.approx(det_formula, abs=1e-10)

        def vol2(x, y):
            return 2.0 * volume_from_angles(
                [0.0, x, y, (PI - x + y) / 2, (PI - y + x) / 2, (PI - x - y) / 2]
            )

        fd = np.empty((2, 2))
        fd[0, 0] = (vol2(a13 + h, a14) - 2 * vol2(a13, a14) + vol2(a13 - h, a14)) / h**2
        fd[1, 1] = (vol2(a13, a14 + h) - 2 * vol2(a13, a14) + vol2(a13, a14 - h)) / h**2
        fd[0, 1] = fd[1, 0] = (
            vol2(a13 + h, a14 + h)
            - vol2(a13 + h, a14 - h)
            - vol2(a13 - h, a14 + h)
            + vol2(a13 - h, a14 - h)
        ) / (4 * h**2)
        assert np.max(np.abs(fd - H)) <= 1e-5


def test_boundary_face_domain():
    with pytest.raises(OutOfFace):
        boundary_face_hessian(2.0, 2.0)
    with pytest.raises(OutOfFace):
        boundary_face_hessian(-0.1, 0.5)


def test_triangle_sides_equilateral():
    a, b, c = hyperbolic_triangle_sides(PI / 4, PI / 4, PI / 4)
    expected = float(np.arccosh(math.sqrt(2.0) + 1.0))
    for v in (a, b, c):
        assert v == pytest.approx(expected, abs=1e-14)


def test_triangle_identity_random():
    rng = np.random.default_rng(21)
    n = 0
    while n < 10_000:
        ang = rng.uniform(0.05, PI - 0.1, 3)
        if ang.sum() >= PI - 0.05:
            continue
        n += 1
        A, B, C = ang
        a, b, c = hyperbolic_triangle_sides(A, B, C)
        lhs = (1 + math.cos(B + C - A)) / (1 + math.cos(B + C + A))
        rhs = (
            (math.cosh(b) + 1)
            * (math.cosh(c) + 1)
            / ((math.cosh(b) - 1) * (math.cosh(c) - 1))
        )
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_triangle_sides_reject_non_finite_angles(bad):
    for i in range(3):
        ang = [0.5, 0.5, 0.5]
        ang[i] = bad
        with pytest.raises(ValueError, match="angles must be finite"):
            hyperbolic_triangle_sides(*ang)


def test_triangle_euclidean_limit():
    a, b, c = hyperbolic_triangle_sides(1.0, 1.0, PI - 2.0 - 1e-7)
    assert max(a, b, c) <= 1e-3
    with pytest.raises(NotHyperbolic):
        hyperbolic_triangle_sides(1.0, 1.0, PI - 2.0)

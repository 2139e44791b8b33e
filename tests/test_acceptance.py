"""Acceptance gate: the thirteen contract criteria at fixed tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
summary on failure).  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import hyptet as H
from hyptet.selftest import (
    appendix_inequality_suite,
    consistency_suite,
    region_suite,
    sample_interior_angles,
)
from hyptet.tetra import FLAT_PATTERNS, GAUGE_VECTORS
from hyptet.triangulation import PAIR_INDEX

PI = math.pi


def _report(num, ok, text):
    print(f"[{num:2d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_lobachevsky_suite():
    rng = np.random.default_rng(101)
    th = rng.uniform(-10, 10, 10_000)
    odd = float(np.max(np.abs(H.lobachevsky(th) + H.lobachevsky(-th))))
    per = float(np.max(np.abs(H.lobachevsky(th + PI) - H.lobachevsky(th))))
    t2 = rng.uniform(1e-9, PI - 1e-9, 10_000)
    refl = float(np.max(np.abs(H.lobachevsky(t2) + H.lobachevsky(PI - t2))))
    grid = np.linspace(0, PI, 102)[1:-1]
    oracle = float(
        np.max(
            np.abs(
                H.lobachevsky(grid)
                - np.array([H.lobachevsky_reference(t, 1e-12) for t in grid])
            )
        )
    )
    t3 = rng.uniform(0.1, PI - 0.1, 2_000)
    h = 1e-6
    fd = (H.lobachevsky(t3 + h) - H.lobachevsky(t3 - h)) / (2 * h)
    dfd = float(np.max(np.abs(fd - H.lobachevsky_derivative(t3))))
    ok = odd <= 1e-12 and per <= 1e-12 and refl <= 1e-12 and oracle <= 1e-10 \
        and dfd <= 1e-6
    _report(
        1,
        ok,
        f"lobachevsky identities: odd={odd:.1e} per={per:.1e} refl={refl:.1e} "
        f"oracle={oracle:.1e} fd={dfd:.1e}",
    )


def test_criterion_02_membership_examples():
    inside = H.classify([1, 1, 1, 2, 2, 2]) is H.RegionLabel.INTERIOR
    c = (
        2 * math.e**6
        + math.e**2
        + math.e**4
        - 2 * math.e**3 * math.sqrt((1 + math.e**2) * (1 + math.e**4))
    )
    outside = H.classify([1, 1, 1, 6, 4, 2 + math.log(c)]) is not H.RegionLabel.INTERIOR
    _report(2, inside and outside, "explicit membership examples reproduce")


def test_criterion_03_round_trip():
    rng = np.random.default_rng(103)
    A = sample_interior_angles(rng, 1000, margin=0.05)
    worst = 0.0
    for row in A:
        back = np.asarray(H.extended_angles(np.asarray(H.angles_to_lengths(row))))
        worst = max(worst, float(np.max(np.abs(back - row))))
    _report(3, worst <= 1e-10, f"angle/length round trip worst={worst:.2e}")


def test_criterion_04_consistency_equations():
    res = consistency_suite(seed=104, n=10_000, tol=1e-10)
    _report(4, res.passed, f"consistency equations worst={res.worst:.2e}")


def test_criterion_05_region_and_inequality_identities():
    r1 = region_suite(seed=105, n=100_000, band=1e-12)
    r2 = appendix_inequality_suite(seed=105, n=100_000, band=1e-12)
    ok = r1.passed and r2.passed
    _report(
        5,
        ok,
        f"region identities ({r1.checked} checks) and paired inequalities "
        f"({r2.checked} checks), zero violations",
    )


def test_criterion_06_schlafli():
    rng = np.random.default_rng(106)
    A = sample_interior_angles(rng, 100)
    h = 1e-6
    worst = 0.0
    for row in A:
        l = np.asarray(H.angles_to_lengths(row))
        expected = np.array(
            [
                (l[3] + l[4] - l[5]) / 2 - l[0],
                (l[3] + l[5] - l[4]) / 2 - l[1],
                (l[4] + l[5] - l[3]) / 2 - l[2],
            ]
        )
        for d in range(3):
            up = row.copy()
            dn = row.copy()
            up[:3][d] += h
            dn[:3][d] -= h
            up = _expand(up[:3])
            dn = _expand(dn[:3])
            fd = (
                2 * H.volume_from_angles(up) - 2 * H.volume_from_angles(dn)
            ) / (2 * h)
            worst = max(worst, abs(fd - expected[d]))
    _report(6, worst <= 1e-6, f"volume-derivative identity worst={worst:.2e}")


def _expand(apex):
    a12, a13, a14 = apex
    return [
        a12,
        a13,
        a14,
        (PI - a12 - a13 + a14) / 2,
        (PI - a12 - a14 + a13) / 2,
        (PI - a13 - a14 + a12) / 2,
    ]


def _fd5(f, x, h=1e-5):
    g = np.empty_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) / (
            12 * h
        )
    return g


def test_criterion_07_c1_extension():
    rng = np.random.default_rng(107)
    worst_eq = 0.0
    worst_fd = 0.0
    for _ in range(30):
        l = rng.uniform(-3, 3, 6)
        worst_eq = max(
            worst_eq,
            float(
                np.max(
                    np.abs(H.covolume_gradient(l) - np.asarray(H.extended_angles(l)))
                )
            ),
        )
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(_fd5(H.covolume, l) - H.covolume_gradient(l)))),
        )
    # pairs straddling the first wall at distance 1e-3
    done = 0
    while done < 10:
        base = rng.uniform(-1, 1, 6)
        if H.classify(base) is not H.RegionLabel.INTERIOR:
            continue
        done += 1
        direction = np.zeros(6)
        direction[5] = 1.0

        def apex_min(t):
            return float(np.min(H.phi(base + t * direction)[:3]) + 1.0)

        lo, hi = 0.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if apex_min(mid) > 0:
                lo = mid
            else:
                hi = mid
        tstar = 0.5 * (lo + hi)
        for pt in (base + (tstar - 5e-4) * direction, base + (tstar + 5e-4) * direction):
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(_fd5(H.covolume, pt) - H.covolume_gradient(pt)))),
            )
    ok = worst_eq == 0.0 and worst_fd <= 1e-6
    _report(
        7,
        ok,
        f"C1 potential: gradient==angles (dev {worst_eq:.1e}), "
        f"FD worst={worst_fd:.2e} incl. wall pairs",
    )


def test_criterion_08_hessian_structure():
    rng = np.random.default_rng(108)
    done = 0
    ok = True
    detail = ""
    while done < 20:
        l = rng.uniform(-1, 1, 6)
        if H.classify(l) is not H.RegionLabel.INTERIOR:
            continue
        done += 1
        M = H.covolume_hessian(l)
        w = np.linalg.eigvalsh(M)
        norm = float(np.max(np.abs(w)))
        psd = w[0] >= -1e-8 * norm
        rank3 = int(np.sum(w > 1e-4 * norm)) == 3
        kernel = all(
            np.linalg.norm(M @ v) <= 1e-4 * norm for v in GAUGE_VECTORS
        )
        if not (psd and rank3 and kernel):
            ok = False
            detail = f" (point {np.round(l, 3).tolist()})"
            break
    _report(8, ok, "convex potential Hessian: PSD, rank 3, gauge kernel" + detail)


def test_criterion_09_boundary_face_concavity():
    rng = np.random.default_rng(109)
    h = 1e-4
    worst_fd = 0.0
    worst_det = 0.0
    count = 0
    while count < 100:
        a13 = rng.uniform(0.2, PI - 0.4)
        a14 = rng.uniform(0.2, PI - 0.4)
        if a13 + a14 >= PI - 0.3:
            continue
        count += 1
        M = H.boundary_face_hessian(a13, a14)
        t, tp = math.tan(a13 / 2), math.tan(a14 / 2)
        worst_det = max(
            worst_det,
            abs(np.linalg.det(M) - 0.25 * (1 + t * tp) ** 2 / (t * tp)),
        )

        def vol2(x, y):
            return 2 * H.volume_from_angles(_expand([0.0, x, y])[:6])

        fd = np.empty((2, 2))
        fd[0, 0] = (vol2(a13 + h, a14) - 2 * vol2(a13, a14) + vol2(a13 - h, a14)) / h**2
        fd[1, 1] = (vol2(a13, a14 + h) - 2 * vol2(a13, a14) + vol2(a13, a14 - h)) / h**2
        fd[0, 1] = fd[1, 0] = (
            vol2(a13 + h, a14 + h)
            - vol2(a13 + h, a14 - h)
            - vol2(a13 - h, a14 + h)
            + vol2(a13 - h, a14 - h)
        ) / (4 * h**2)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - M))))
    ok = worst_fd <= 1e-5 and worst_det <= 1e-10
    _report(
        9, ok, f"face Hessian: fd worst={worst_fd:.2e} det worst={worst_det:.2e}"
    )


def test_criterion_10_triangle_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    n = 0
    while n < 10_000:
        ang = rng.uniform(0.05, PI - 0.1, 3)
        if ang.sum() >= PI - 0.05:
            continue
        n += 1
        A, B, C = ang
        a, b, c = H.hyperbolic_triangle_sides(A, B, C)
        lhs = (1 + math.cos(B + C - A)) / (1 + math.cos(B + C + A))
        rhs = (
            (math.cosh(b) + 1)
            * (math.cosh(c) + 1)
            / ((math.cosh(b) - 1) * (math.cosh(c) - 1))
        )
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)))
    _report(10, worst <= 1e-10, f"triangle angle-side identity worst={worst:.2e}")


def test_criterion_11_optimization_fixtures():
    rng = np.random.default_rng(111)
    worst_primal = 0.0
    worst_dual = 0.0
    worst_gap = 0.0
    worst_rig = 0.0
    slowest = 0.0
    done = 0
    while done < 10:
        l0 = rng.uniform(-0.9, 0.9, 6)
        if H.classify(l0) is not H.RegionLabel.INTERIOR:
            continue
        done += 1
        start = time.perf_counter()
        T, k, assignment = H.doubled_fixture(l0)

        primal = H.maximize_volume(T, k, tol=1e-8)
        worst_primal = max(
            worst_primal,
            float(np.max(np.abs(primal.maximizer.values - assignment.values))),
        )

        dual = H.solve_cone_angles(T, k, tol=1e-8)
        target = np.zeros(T.n_edge_classes)
        for pair, slot in PAIR_INDEX.items():
            target[T.slot_class[0, slot]] = l0[slot]
        target = H.gauge_project(T, target).values
        worst_dual = max(
            worst_dual, float(np.max(np.abs(dual.metric.values - target)))
        )

        gap = dual.objective - 2.0 * primal.volume
        worst_gap = max(worst_gap, abs(gap) / (1 + abs(2 * primal.volume)))

        rig = H.rigidity_check(T, k, n_starts=5, tol=1e-6)
        worst_rig = max(worst_rig, rig.pairwise_distance)
        assert rig.all_agree

        slowest = max(slowest, time.perf_counter() - start)
    ok = (
        worst_primal <= 1e-6
        and worst_dual <= 1e-6
        and worst_gap <= 1e-6
        and worst_rig <= 1e-6
        and slowest < 10.0
    )
    _report(
        11,
        ok,
        f"fixtures: primal={worst_primal:.2e} dual={worst_dual:.2e} "
        f"gap={worst_gap:.2e} rigidity={worst_rig:.2e} slowest={slowest:.2f}s",
    )


def test_criterion_12_extended_constants_bitwise():
    rng = np.random.default_rng(112)
    boosts = {
        0: (5, H.RegionLabel.OMEGA1, FLAT_PATTERNS[0]),  # boost l34
        1: (4, H.RegionLabel.OMEGA2, FLAT_PATTERNS[1]),  # boost l24
        2: (3, H.RegionLabel.OMEGA3, FLAT_PATTERNS[2]),  # boost l23
    }
    ok = True
    for _, (slot, label, pattern) in boosts.items():
        for _ in range(1000):
            l = rng.uniform(-2, 2, 6)
            l[slot] += rng.uniform(18.0, 25.0)
            if H.classify(l) is not label:
                ok = False
                break
            a = np.asarray(H.extended_angles(l))
            if not np.array_equal(a, pattern):
                ok = False
                break
        if not ok:
            break
    _report(12, ok, "degenerate-region angles equal the flat patterns bitwise")


def test_criterion_13_feasibility_certification():
    rng = np.random.default_rng(113)
    ok = True
    for _ in range(5):
        l0 = rng.uniform(-0.9, 0.9, 6)
        if H.classify(l0) is not H.RegionLabel.INTERIOR:
            continue
        T, k, _ = H.doubled_fixture(l0)
        fr = H.find_interior(T, k)
        if fr.status is not H.FeasibilityStatus.INTERIOR_FOUND:
            ok = False
            break
        verdict, _ = H.is_member(T, fr.witness, k, tol=1e-8)
        if verdict is not H.Membership.INTERIOR:
            ok = False
            break
        zero = H.find_interior(T, H.ConeTarget(np.zeros(T.n_edge_classes)))
        if zero.status is H.FeasibilityStatus.INTERIOR_FOUND:
            ok = False
            break
    _report(13, ok, "interior witnesses certify at tol/10; zero target infeasible")

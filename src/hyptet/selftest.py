"""Vectorized invariant suites, shared by the CLI selftest and the tests.

Each suite draws a seeded sample, checks an exact identity of the
geometry to a stated tolerance, and reports how many samples were checked,
how many failed, and the worst deviation seen.  ``_tally`` turns a suite's
``(deviations, tol)`` pairs into that report; the two suites that check
sign patterns, not deviations, count their own and report a worst of 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, tetra
from .lobachevsky import lobachevsky, lobachevsky_derivative, lobachevsky_reference
from .tetra import SLOT_COEF, _slot_angles

PI = math.pi


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: int
    worst: float

    @property
    def passed(self):
        return self.failures == 0

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name}: checked={self.checked} "
            f"failures={self.failures} worst={self.worst:.3e}"
        )


def _tally(name, checks):
    """The ``SuiteResult`` of ``checks``, pairs of a deviation array and the
    tolerance it must keep: a NaN deviation fails."""
    checks = [(np.asarray(dev), tol) for dev, tol in checks]
    return SuiteResult(
        name,
        sum(dev.size for dev, _ in checks),
        sum(int(np.count_nonzero(~(dev <= tol))) for dev, tol in checks),
        float(np.max([dev.max() for dev, _ in checks])),
    )


def lobachevsky_suite(seed=0):
    rng = np.random.default_rng(seed)
    th = rng.uniform(-10.0, 10.0, 10_000)
    t2 = rng.uniform(1e-6, PI - 1e-6, 10_000)
    grid = np.linspace(0.0, PI, 102)[1:-1]
    reference = [lobachevsky_reference(t, 1e-12) for t in grid]
    h = 1e-6
    t3 = rng.uniform(0.1, PI - 0.1, 2_000)
    fd = (lobachevsky(t3 + h) - lobachevsky(t3 - h)) / (2.0 * h)
    return _tally("lobachevsky identities", [
        (np.abs(lobachevsky(th) + lobachevsky(-th)), 1e-12),
        (np.abs(lobachevsky(th + PI) - lobachevsky(th)), 1e-12),
        (np.abs(lobachevsky(t2) + lobachevsky(PI - t2)), 1e-12),
        (np.abs(lobachevsky(grid) - reference), 1e-10),
        (np.abs(fd - lobachevsky_derivative(t3)), 1e-6),
    ])


def _theta_columns(L):
    return dict(zip(tetra.ThetaTable._fields, _kernels.theta_batch(L).T))


def consistency_suite(seed=0, n=10_000, tol=1e-10):
    """Each cosine extension against its two section-triangle cosine laws."""
    rng = np.random.default_rng(seed)
    L = rng.uniform(-3.0, 3.0, (n, 6))
    P = _kernels.phi_batch(L)
    t = _theta_columns(L)

    def euclid(a, b, c):
        return (t[a] ** 2 + t[b] ** 2 - t[c] ** 2) / (2.0 * t[a] * t[b])

    def hyper(a, b, c):
        return (np.cosh(t[a]) * np.cosh(t[b]) - np.cosh(t[c])) / (
            np.sinh(t[a]) * np.sinh(t[b])
        )

    alts = {
        0: (hyper("t1_23", "t1_24", "t1_34"), euclid("t2_13", "t2_14", "t2_34")),
        1: (hyper("t1_23", "t1_34", "t1_24"), euclid("t3_12", "t3_14", "t3_24")),
        2: (hyper("t1_24", "t1_34", "t1_23"), euclid("t4_12", "t4_13", "t4_23")),
        3: (euclid("t3_12", "t3_24", "t3_14"), euclid("t2_13", "t2_34", "t2_14")),
        4: (euclid("t4_12", "t4_23", "t4_13"), euclid("t2_14", "t2_34", "t2_13")),
        5: (euclid("t4_13", "t4_23", "t4_12"), euclid("t3_14", "t3_24", "t3_12")),
    }
    return _tally("consistency equations", [
        (np.abs(alt - P[:, slot]), tol) for slot, pair in alts.items() for alt in pair
    ])


def region_suite(seed=0, n=100_000, band=1e-12):
    """Sign-pattern equivalences between opposite and adjacent slots."""
    rng = np.random.default_rng(seed)
    L = rng.uniform(-3.0, 3.0, (n, 6))
    P = _kernels.phi_batch(L)
    clear = np.all(np.abs(np.abs(P) - 1.0) > band, axis=1)
    P = P[clear]
    neg = P <= -1.0
    pos = P >= 1.0

    checked = 0
    failures = 0
    # opposite slots degenerate together
    for a, b in ((0, 5), (1, 4), (2, 3)):
        bad = neg[:, a] != neg[:, b]
        bad |= pos[:, a] != pos[:, b]
        checked += P.shape[0]
        failures += int(np.sum(bad))
    # a +1 overshoot at one apex slot is exactly one -1 overshoot at another
    for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        one_neg = np.logical_xor(neg[:, b], neg[:, c])
        bad = pos[:, a] != one_neg
        checked += P.shape[0]
        failures += int(np.sum(bad))
    # at most one apex slot undershoots
    bad = neg[:, :3].sum(axis=1) > 1
    checked += P.shape[0]
    failures += int(np.sum(bad))
    return SuiteResult("region identities", checked, failures, 0.0)


def appendix_inequality_suite(seed=0, n=100_000, band=1e-12):
    """The paired radical inequalities decide the same comparisons."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(-2.0, 2.0, n))
    y = np.exp(rng.uniform(-2.0, 2.0, n))
    d = np.exp(rng.uniform(-2.0, 2.0, n))
    z = np.exp(rng.uniform(-2.0, 6.0, n))

    root_a = 2.0 * np.sqrt(x * y) * np.sqrt(1.0 + x / d) * np.sqrt(1.0 + y / d)
    root_b = 2.0 * np.sqrt(x * y + x * y * z / d)
    lhs1 = x + y + 2.0 * x * y / d + root_a
    lhs2 = x + y + root_b
    lhs3 = x + y + 2.0 * x * y / d - root_a
    lhs4 = x + y - root_b

    scale = np.abs(z) + np.abs(lhs1) + np.abs(lhs2)
    clear = (np.abs(lhs1 - z) > band * scale) & (np.abs(lhs2 - z) > band * scale)
    clear &= (np.abs(lhs3 - z) > band * scale) & (np.abs(lhs4 - z) > band * scale)

    bad_le = (lhs1[clear] <= z[clear]) != (lhs2[clear] <= z[clear])
    bad_ge = (lhs3[clear] >= z[clear]) != (lhs4[clear] >= z[clear])
    checked = 2 * int(np.sum(clear))
    failures = int(np.sum(bad_le)) + int(np.sum(bad_ge))
    return SuiteResult("paired radical inequalities", checked, failures, 0.0)


def sample_interior_angles(rng, n, margin=0.05):
    """Random interior angle vectors via apex triples with margins."""
    out = np.empty((n, 6))
    count = 0
    while count < n:
        cand = rng.uniform(margin, PI - 2.0 * margin, (4 * (n - count), 3))
        keep = cand.sum(axis=1) < PI - margin
        cand = cand[keep][: n - count]
        m = cand.shape[0]
        if m == 0:
            continue
        a12, a13, a14 = cand[:, 0], cand[:, 1], cand[:, 2]
        out[count : count + m, 0] = a12
        out[count : count + m, 1] = a13
        out[count : count + m, 2] = a14
        out[count : count + m, 3] = (PI - a12 - a13 + a14) / 2.0
        out[count : count + m, 4] = (PI - a12 - a14 + a13) / 2.0
        out[count : count + m, 5] = (PI - a13 - a14 + a12) / 2.0
        count += m
    return out


def schlafli_suite(seed=0, n=100, tol=1e-6):
    """FD of twice the volume against the length combination it must equal."""
    rng = np.random.default_rng(seed)
    A = sample_interior_angles(rng, n)
    h = 1e-6
    devs = []
    for row in A:
        expected = -np.asarray(tetra.angles_to_lengths(row)) @ SLOT_COEF
        for d, step in enumerate(h * np.eye(3)):
            u = np.stack([row[:3] + step, row[:3] - step])
            v2 = _kernels.volume2_batch(_slot_angles(u))
            devs.append(abs((v2[0] - v2[1]) / (2.0 * h) - expected[d]))
    return _tally("volume derivative identity", [(devs, tol)])


def triangle_suite(seed=0, n=10_000, tol=1e-10):
    """Angle-side identity for hyperbolic triangles."""
    rng = np.random.default_rng(seed)
    devs = []
    while len(devs) < n:
        ang = rng.uniform(0.05, PI - 0.1, 3)
        if ang.sum() >= PI - 0.05:
            continue
        A, B, C = ang
        a, b, c = tetra.hyperbolic_triangle_sides(A, B, C)
        lhs = (1.0 + math.cos(B + C - A)) / (1.0 + math.cos(B + C + A))
        rhs = ((math.cosh(b) + 1.0) * (math.cosh(c) + 1.0)) / (
            (math.cosh(b) - 1.0) * (math.cosh(c) - 1.0)
        )
        devs.append(abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return _tally("triangle angle-side identity", [(devs, tol)])


ALL_SUITES = (
    lobachevsky_suite,
    consistency_suite,
    region_suite,
    schlafli_suite,
    appendix_inequality_suite,
    triangle_suite,
)


def run_all(seed=0, out=print):
    results = [suite(seed) for suite in ALL_SUITES]
    for r in results:
        out(r.line())
    passed = sum(r.passed for r in results)
    out(f"{passed}/{len(results)} suites passed")
    return all(r.passed for r in results)

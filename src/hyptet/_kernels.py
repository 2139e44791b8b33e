"""Hot numeric kernels, vectorized in numpy.

Everything downstream (single-tetrahedron geometry, the optimizers, the
property suites) funnels its inner-loop arithmetic through the seven batch
functions defined here, each written once.  Kernels that build on one
another call the ``np_*`` definitions, not the public names, so a tracer
that wraps the public names sees one span per entry-point call.  Every
run record of ``perfbench/run.py`` holds the ns/row of each kernel
(``kernel_ns_per_row``), and ``--trace 1`` adds the ``kernels.*`` calls,
rows and busy time of the workload itself.

Conventions: float64 throughout; length/angle batches are ``(n, 6)`` arrays
in slot order (12, 13, 14, 23, 24, 34), vertex 1 being the truncated
vertex and vertices 2, 3, 4 the cusped ones.  All exponentials are taken
in max-shifted form so entries up to a few hundred in absolute value do
not overflow; the residual scale exponent is saturated at ``_EXP_CLAMP``,
which engages only for cosine-extension magnitudes around 1e304, where
only the sign can matter.
"""

import math

import numpy as np
from scipy.special import zeta

PI = math.pi
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_EXP_CLAMP = 700.0

# Coefficients of the log-split series for the Clausen-type integral on
# [0, pi/2]: value(x) = x*(1 - ln 2x) + sum_m c_m * x * (x/pi)^(2m) with
# c_m = zeta(2m) / (m*(2m+1)).  32 terms leave a remainder below 1e-19
# for |x| <= pi/2.
_N_TERMS = 32
_SERIES_COEF = np.array(
    [zeta(2.0 * m) / (m * (2 * m + 1)) for m in range(1, _N_TERMS + 1)]
)


def _np_softplus(x):
    return np.logaddexp(0.0, x)


def np_lobachevsky_batch(theta):
    """Clausen-type volume integrand primitive, vectorized."""
    theta = np.asarray(theta, dtype=np.float64)
    r = theta - PI * np.round(theta / PI)
    sgn = np.where(r < 0.0, -1.0, 1.0)
    x = np.abs(r)
    xs = np.where(x > 0.0, x, 1.0)
    acc = np.where(x > 0.0, x * (1.0 - np.log(2.0 * xs)), 0.0)
    q = (x / PI) ** 2
    p = np.ones_like(x)
    for c in _SERIES_COEF:
        p = p * q
        acc = acc + c * x * p
    return sgn * acc


def _np_log_abs_2sin(x):
    s = np.abs(2.0 * np.sin(x))
    return np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), -np.inf)


def np_phi_batch(lengths):
    """Cosine-extension functions of the six dihedral angles, (n,6)->(n,6)."""
    L = np.asarray(lengths, dtype=np.float64)
    l12, l13, l14, l23, l24, l34 = (L[:, j] for j in range(6))
    out = np.empty_like(L)

    # slots at the truncated vertex: exponents of the three cusp-to-cusp
    # quad ratios
    a23 = l23 - l12 - l13
    a24 = l24 - l12 - l14
    a34 = l34 - l13 - l14
    for idx, au, av, aw in ((0, a23, a24, a34), (1, a23, a34, a24), (2, a24, a34, a23)):
        m = np.maximum(np.maximum(au + av, aw), np.maximum(au, av))
        num = (
            2.0 * np.exp(au + av - m)
            + np.exp(au - m)
            + np.exp(av - m)
            - np.exp(aw - m)
        )
        ln_den = _LN2 + 0.5 * (au + av) + 0.5 * (_np_softplus(au) + _np_softplus(av))
        out[:, idx] = num * np.exp(np.minimum(m - ln_den, _EXP_CLAMP))

    # slots between two cusped vertices, written in decoration-invariant
    # exponent differences so the gauge action cancels before any
    # transcendental is taken
    X = l14 + l23
    Y = l13 + l24
    Z = l12 + l34
    for idx, p_, q_, s_ in (
        (3, Y - X, Z - X, l24 + l34 - l23 - 2.0 * l14),
        (4, X - Y, Z - Y, l23 + l34 - l24 - 2.0 * l13),
        (5, X - Z, Y - Z, l23 + l24 - l34 - 2.0 * l12),
    ):
        m = np.maximum(np.maximum(p_, q_), 0.0)
        num = np.exp(p_ - m) + np.exp(q_ - m) - np.exp(-m)
        ln_den = _LN2 + 0.5 * np.logaddexp(p_ + q_, s_)
        out[:, idx] = num * np.exp(np.minimum(m - ln_den, _EXP_CLAMP))
    return out


def np_theta_batch(lengths):
    """Vertex-triangle side lengths and horosphere-section lengths.

    Column order: (t1_23, t1_24, t1_34, t2_13, t2_14, t3_12, t3_14, t4_12,
    t4_13, t2_34, t3_24, t4_23).
    """
    L = np.asarray(lengths, dtype=np.float64)
    l12, l13, l14, l23, l24, l34 = (L[:, j] for j in range(6))
    out = np.empty((L.shape[0], 12), dtype=np.float64)

    for col, a in ((0, l23 - l12 - l13), (1, l24 - l12 - l14), (2, l34 - l13 - l14)):
        small = a <= 35.0
        ex = np.exp(np.where(small, a, 0.0))
        exact = np.log1p(2.0 * ex + 2.0 * np.sqrt(ex * (1.0 + ex)))
        out[:, col] = np.where(small, exact, a + _LN4)

    quads = (
        (3, l12, l13, l23),   # t2_13
        (4, l12, l14, l24),   # t2_14
        (5, l13, l12, l23),   # t3_12
        (6, l13, l14, l34),   # t3_14
        (7, l14, l12, l24),   # t4_12
        (8, l14, l13, l34),   # t4_13
    )
    for col, l1i, l1j, lij in quads:
        out[:, col] = 2.0 * np.exp(0.5 * np.logaddexp(-2.0 * l1i, l1j - lij - l1i))

    out[:, 9] = 2.0 * np.exp(0.5 * (l34 - l23 - l24))
    out[:, 10] = 2.0 * np.exp(0.5 * (l24 - l23 - l34))
    out[:, 11] = 2.0 * np.exp(0.5 * (l23 - l24 - l34))
    return out


def np_extended_angles_batch(lengths):
    return np.arccos(np.clip(np_phi_batch(lengths), -1.0, 1.0))


def np_volume2_batch(angles):
    """Twice the hyperbolic volume as a function of the six slot angles."""
    A = np.asarray(angles, dtype=np.float64)
    h = A[:, 0] + A[:, 1] + A[:, 2]
    return np_lobachevsky_batch(np.column_stack(((PI - h) / 2.0, A))).sum(axis=1)


def np_volume_gradient_batch(angles):
    """d(vol)/d(a12, a13, a14) with the dependent slots eliminated."""
    A = np.asarray(angles, dtype=np.float64)
    h = A[:, 0] + A[:, 1] + A[:, 2]
    lp_m = -_np_log_abs_2sin((PI - h) / 2.0)
    lp = -_np_log_abs_2sin(A)
    out = np.empty((A.shape[0], 3), dtype=np.float64)
    out[:, 0] = 0.5 * (-0.5 * lp_m + lp[:, 0] - 0.5 * lp[:, 3] - 0.5 * lp[:, 4] + 0.5 * lp[:, 5])
    out[:, 1] = 0.5 * (-0.5 * lp_m + lp[:, 1] - 0.5 * lp[:, 3] + 0.5 * lp[:, 4] - 0.5 * lp[:, 5])
    out[:, 2] = 0.5 * (-0.5 * lp_m + lp[:, 2] + 0.5 * lp[:, 3] - 0.5 * lp[:, 4] - 0.5 * lp[:, 5])
    return out


def np_covolume_batch(lengths):
    """Convex potential 2*vol(angles(l)) + <angles(l), l>, total on R^6."""
    L = np.asarray(lengths, dtype=np.float64)
    A = np_extended_angles_batch(L)
    return np_volume2_batch(A) + np.sum(A * L, axis=1)


lobachevsky_batch = np_lobachevsky_batch
phi_batch = np_phi_batch
theta_batch = np_theta_batch
extended_angles_batch = np_extended_angles_batch
volume2_batch = np_volume2_batch
volume_gradient_batch = np_volume_gradient_batch
covolume_batch = np_covolume_batch

#: the kernel table run records read; numpy is the only backend
BACKENDS = {
    "numpy": {
        "lobachevsky_batch": lobachevsky_batch,
        "phi_batch": phi_batch,
        "theta_batch": theta_batch,
        "extended_angles_batch": extended_angles_batch,
        "volume2_batch": volume2_batch,
        "volume_gradient_batch": volume_gradient_batch,
        "covolume_batch": covolume_batch,
    }
}
ACTIVE_BACKEND = "numpy"

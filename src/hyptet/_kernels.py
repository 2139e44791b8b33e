"""Hot numeric kernels, vectorized in numpy.

Everything downstream (single-tetrahedron geometry, the optimizers, the
property suites) funnels its inner-loop arithmetic through the seven batch
functions defined here, each written once.  Kernels that build on one
another call the ``np_*`` definitions, not the public names, so a tracer
that wraps the public names sees one span per entry-point call.  Every
run record of ``perfbench/run.py`` holds the ns/row of each kernel
(``kernel_ns_per_row``), and ``--trace 1`` adds the ``kernels.*`` calls,
rows and busy time of the workload itself.

The volume formula is written once: twice a cell's volume is Lobachevsky
summed over the seven ``volume_args``, affine in the apex angles by
``VOLUME_CHART``; its gradient and ``tetra``'s Hessians read them too.

``np_phi_batch`` takes all six slots through one (4, 6, rows) exponent
block per fixed block of rows; each operation keeps the operands and order
of the slot-by-slot formula, so the output is bitwise that formula's.

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

PI = math.pi
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_EXP_CLAMP = 700.0

# Log-split series on [0, pi/2]: value(x) = x*(1 - ln 2x) + x*q*P(q), q = (x/pi)^2,
# P by Horner from c_m = zeta(2m) / (m*(2m+1)), m = 22..1; the tail is < 3e-17.
# The table holds the repr of scipy.special.zeta's values of that formula, so
# importing the kernels does not load scipy.special.
_SERIES_COEF = np.array(
    [
        0.0010101010101010676, 0.0011074197120711266, 0.0012195121951230604,
        0.0013495276653220486, 0.0015015015015233512, 0.0016806722690053911,
        0.001893939394380362, 0.002150537636411457, 0.002463054196367818,
        0.002849002891457421, 0.0033333335320272967, 0.00395257011245258,
        0.004761909304581114, 0.0058479755397266965, 0.007353053546025064,
        0.009524392839381512, 0.012823667776324462, 0.018199901365960326,
        0.027891037672165123, 0.048444907713545204, 0.10823232337111381,
        0.5483113556160755,
    ]
)

#: the volume's arguments in the apex angles (a12, a13, a14): half the apex
#: gap, then the cusp-sum chart of the six slot angles (``tetra.SLOT_COEF``)
VOLUME_CHART = np.array(
    [
        [-0.5, -0.5, -0.5],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-0.5, -0.5, 0.5],
        [-0.5, 0.5, -0.5],
        [0.5, -0.5, -0.5],
    ]
)


def np_lobachevsky_batch(theta):
    """Clausen-type volume integrand primitive, vectorized."""
    theta = np.asarray(theta, dtype=np.float64)
    r = theta - PI * np.round(theta / PI)
    sgn = np.where(r < 0.0, -1.0, 1.0)
    x = np.abs(r)
    xs = np.where(x > 0.0, x, 1.0)
    acc = np.where(x > 0.0, x * (1.0 - np.log(2.0 * xs)), 0.0)
    q = (x / PI) ** 2
    return sgn * (acc + x * q * np.polyval(_SERIES_COEF, q))


def lobachevsky_prime(x):
    """The derivative -ln|2 sin x|, +inf at the multiples of pi."""
    s = np.abs(2.0 * np.sin(x))
    return np.where(s > 0.0, -np.log(np.where(s > 0.0, s, 1.0)), np.inf)


def volume_args(angles):
    """Half the apex gap, then the six slot angles, (n, 6) -> (n, 7)."""
    A = np.asarray(angles, dtype=np.float64)
    return np.column_stack(((PI - (A[:, 0] + A[:, 1] + A[:, 2])) / 2.0, A))


# operand rows of L.T; (u, v, w) of the truncated-vertex slots in
# (a23, a24, a34); (p, q) of the cusp slots in (X, Y, Z)
_PHI_TAKE = np.array([[3, 4, 5], [0, 0, 1], [1, 2, 2], [2, 1, 0], [4, 3, 3], [5, 5, 4]])
_UVW = np.array([[0, 0, 1], [1, 2, 2], [2, 1, 0]])
_PQ = np.array([[1, 0, 0], [2, 2, 1]])
_PHI_BLOCK = 512  # keeps each temporary under glibc's 128 KiB mmap threshold


def _phi_block(L, out):
    g = L.T.take(_PHI_TAKE, axis=0)
    a = g[0] - g[1] - g[2]  # exponents of the three cusp-to-cusp quad ratios
    xyz = g[3] + g[0]  # X = l14 + l23, Y = l13 + l24, Z = l12 + l34
    s = g[4] + g[5] - g[0] - 2.0 * g[3]
    del g  # keeps the block's peak low
    # exponent rows (u+v, u, v, w) at the truncated vertex, (p, q, -inf, 0)
    # between cusps, where the gauge cancels before any transcendental is
    # taken; the -inf term adds an exact 0
    e = np.empty((4, 6, L.shape[0]))
    e[1:, :3] = a.take(_UVW, axis=0)
    np.add(e[1, :3], e[2, :3], out=e[0, :3])
    np.subtract(xyz.take(_PQ, axis=0), xyz, out=e[:2, 3:])
    e[2, 3:] = -np.inf
    e[3, 3:] = 0.0
    m = np.maximum(np.maximum(e[0], e[3]), np.maximum(e[1], e[2]))
    sp = np.logaddexp(0.0, a).take(_UVW[:2], axis=0)  # softplus of u and v
    ln_den = np.empty_like(m)
    ln_den[:3] = _LN2 + 0.5 * e[0, :3] + 0.5 * (sp[0] + sp[1])
    ln_den[3:] = _LN2 + 0.5 * np.logaddexp(e[0, 3:] + e[1, 3:], s)
    x = np.exp(np.subtract(e, m, out=e), out=e)
    x[0, :3] *= 2.0
    num = x[0] + x[1] + x[2] - x[3]
    np.multiply(num, np.exp(np.minimum(m - ln_den, _EXP_CLAMP)), out=out.T)


def np_phi_batch(lengths):
    """Cosine-extension functions of the six dihedral angles, (n,6)->(n,6)."""
    L = np.asarray(lengths, dtype=np.float64)
    out = np.empty((L.shape[0], 6))
    for i in range(0, L.shape[0], _PHI_BLOCK):
        _phi_block(L[i : i + _PHI_BLOCK], out[i : i + _PHI_BLOCK])
    return out


def vertex_sides(a):
    """Vertex-triangle sides t of lengths ``a`` (k,): sinh^2(t/2) = e^a."""
    small = a <= 35.0
    ex = np.exp(np.where(small, a, 0.0))
    exact = np.log1p(2.0 * ex + 2.0 * np.sqrt(ex * (1.0 + ex)))
    return np.where(small, exact, a + _LN4)


def np_theta_batch(lengths):
    """Vertex-triangle side lengths and horosphere-section lengths.

    Column order: (t1_23, t1_24, t1_34, t2_13, t2_14, t3_12, t3_14, t4_12,
    t4_13, t2_34, t3_24, t4_23).
    """
    L = np.asarray(lengths, dtype=np.float64)
    l12, l13, l14, l23, l24, l34 = (L[:, j] for j in range(6))
    out = np.empty((L.shape[0], 12), dtype=np.float64)

    for col, a in ((0, l23 - l12 - l13), (1, l24 - l12 - l14), (2, l34 - l13 - l14)):
        out[:, col] = vertex_sides(a)

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
    return np_lobachevsky_batch(volume_args(angles)).sum(axis=1)


def np_volume_gradient_batch(angles):
    """d(vol)/d(a12, a13, a14) with the dependent slots eliminated."""
    lp = lobachevsky_prime(volume_args(angles))
    # Lambda'(0) is inf, so a12..a14 enter by their own columns, not through
    # their rows' zero coefficients: an apex angle at 0 leaves the rest finite
    g = lp[:, :1] * VOLUME_CHART[0] + lp[:, 1:4]
    for k in range(4, 7):
        g = g + lp[:, k, None] * VOLUME_CHART[k]
    return 0.5 * g


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

"""The volume formula, written once, against the hand-written forms it replaced.

``_kernels.VOLUME_CHART`` and ``_kernels.volume_args`` give the seven
Lobachevsky arguments of twice a cell's volume.  The 32-term power loop,
the hand-expanded gradient, the per-slot Hessians and the chart literals
below are the earlier forms of the same formulas, kept as oracles.
"""

import math

import numpy as np
from scipy.special import zeta

from hyptet import _kernels, lobachevsky
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import (
    CELL_VERTICES,
    FLAT_PATTERNS,
    SLOT_COEF,
    SLOT_CONST,
    _covolume_hessian,
    _volume_hessian,
)

PI = math.pi

SLOT_COEF_LITERAL = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-0.5, -0.5, 0.5],
        [-0.5, 0.5, -0.5],
        [0.5, -0.5, -0.5],
    ]
)
SLOT_CONST_LITERAL = np.array([0.0, 0.0, 0.0, PI / 2.0, PI / 2.0, PI / 2.0])
FLAT_PATTERNS_LITERAL = np.array(
    [
        [PI, 0.0, 0.0, 0.0, 0.0, PI],
        [0.0, PI, 0.0, 0.0, PI, 0.0],
        [0.0, 0.0, PI, PI, 0.0, 0.0],
    ]
)
SLOT_OUTER = np.einsum(
    "jp,jq->jpq", SLOT_COEF_LITERAL, SLOT_COEF_LITERAL
).reshape(6, 9)
LOOP_COEF = np.array([zeta(2.0 * m) / (m * (2 * m + 1)) for m in range(1, 33)])


def _lobachevsky_loop(theta):
    """The series to 32 terms, each power of ``q`` formed by the loop."""
    r = theta - PI * np.round(theta / PI)
    sgn = np.where(r < 0.0, -1.0, 1.0)
    x = np.abs(r)
    xs = np.where(x > 0.0, x, 1.0)
    acc = np.where(x > 0.0, x * (1.0 - np.log(2.0 * xs)), 0.0)
    q = (x / PI) ** 2
    p = np.ones_like(x)
    for c in LOOP_COEF:
        p = p * q
        acc = acc + c * x * p
    return sgn * acc


def _gradient_by_hand(A):
    """d(vol)/d(a12, a13, a14), the chart expanded by hand."""
    h = A[:, 0] + A[:, 1] + A[:, 2]
    with np.errstate(divide="ignore"):
        lp_m = -np.log(np.abs(2.0 * np.sin((PI - h) / 2.0)))
        lp = -np.log(np.abs(2.0 * np.sin(A)))
    out = np.empty((A.shape[0], 3))
    out[:, 0] = 0.5 * (
        -0.5 * lp_m + lp[:, 0] - 0.5 * lp[:, 3] - 0.5 * lp[:, 4] + 0.5 * lp[:, 5]
    )
    out[:, 1] = 0.5 * (
        -0.5 * lp_m + lp[:, 1] - 0.5 * lp[:, 3] + 0.5 * lp[:, 4] - 0.5 * lp[:, 5]
    )
    out[:, 2] = 0.5 * (
        -0.5 * lp_m + lp[:, 2] + 0.5 * lp[:, 3] - 0.5 * lp[:, 4] - 0.5 * lp[:, 5]
    )
    return out


def _volume_hessian_by_slot(A):
    half_gap = (PI - A[:, 0] - A[:, 1] - A[:, 2]) / 2.0
    H = (1.0 / np.tan(A)) @ SLOT_OUTER + (0.25 / np.tan(half_gap))[:, None]
    return -0.5 * H.reshape(-1, 3, 3)


def _covolume_hessian_by_slot(angles):
    clamped = np.any((angles == 0.0) | (angles == PI), axis=1)
    A = np.where(clamped[:, None], PI / 4.0, angles)
    K = np.ones((A.shape[0], 4, 4))
    K[:, :3, :3] = ((1.0 / np.tan(A)) @ SLOT_OUTER).reshape(-1, 3, 3)
    K[:, 3, 3] = -4.0 * np.tan((PI - A[:, 0] - A[:, 1] - A[:, 2]) / 2.0)
    inv = np.linalg.inv(K)[:, :3, :3]
    inv[clamped] = 0.0
    return SLOT_COEF_LITERAL @ inv @ SLOT_COEF_LITERAL.T


def _rel_err(new, ref):
    """Per row, the largest error over the largest entry of the oracle."""
    axes = tuple(range(1, ref.ndim))
    scale = np.maximum(np.abs(ref).max(axis=axes), 1e-300)
    return np.abs(new - ref).max(axis=axes) / scale


def test_chart_constants_equal_their_literals():
    literals = (
        (SLOT_COEF, SLOT_COEF_LITERAL),
        (SLOT_CONST, SLOT_CONST_LITERAL),
        (FLAT_PATTERNS, FLAT_PATTERNS_LITERAL),
        (CELL_VERTICES, np.vstack([SLOT_CONST_LITERAL, FLAT_PATTERNS_LITERAL]).T),
    )
    for got, want in literals:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert FLAT_PATTERNS.flags.c_contiguous
    assert np.array_equal(_kernels.VOLUME_CHART[1:], SLOT_COEF_LITERAL)
    assert np.all(_kernels.VOLUME_CHART[0] == -0.5)


def test_volume_args_are_the_chart_image_of_the_apex_angles():
    A = sample_interior_angles(np.random.default_rng(80), 1_000)
    args = _kernels.volume_args(A)
    assert args.shape == (1_000, 7)
    assert np.array_equal(args[:, 1:], A)
    const = np.concatenate([[PI / 2.0], SLOT_CONST])
    chart = A[:, :3] @ _kernels.VOLUME_CHART.T + const
    assert np.max(np.abs(args - chart)) <= 1e-15


def test_horner_series_matches_the_32_term_loop():
    theta = np.random.default_rng(81).uniform(-10.0, 10.0, 1_000_000)
    dev = np.abs(_kernels.lobachevsky_batch(theta) - _lobachevsky_loop(theta))
    assert np.max(dev) <= 1e-15


def test_series_table_is_the_zeta_formula(monkeypatch):
    # the literal table is the repr of scipy's values, bit for bit, so the
    # Lobachevsky grids of test_lobachevsky evaluate as with the formula
    formula = np.array([zeta(2 * m) / (m * (2 * m + 1)) for m in range(22, 0, -1)])
    assert _kernels._SERIES_COEF.tobytes() == formula.tobytes()
    rng = np.random.default_rng
    grids = [
        np.array([0.0, PI / 6.0, PI / 2.0, PI, 1e-3, PI - 1e-3]),
        np.linspace(0.0, PI, 102)[1:-1],
        rng(7).uniform(-10.0, 10.0, 10_000),
        rng(8).uniform(1e-9, PI - 1e-9, 10_000),
        rng(9).uniform(-10.0 * PI, 10.0 * PI, 200),
        rng(10).uniform(0.1, PI - 0.1, 2_000),
    ]
    literal = [lobachevsky(g) for g in grids]
    monkeypatch.setattr(_kernels, "_SERIES_COEF", formula)
    for grid, want in zip(grids, literal):
        assert lobachevsky(grid).tobytes() == want.tobytes()


def test_gradient_matches_the_hand_expanded_chart():
    A = sample_interior_angles(np.random.default_rng(82), 100_000)
    ref = _gradient_by_hand(A)
    assert np.max(_rel_err(_kernels.volume_gradient_batch(A), ref)) <= 1e-15


def test_gradient_at_a_zero_apex_angle_keeps_its_finite_entries():
    # Lambda'(0) = inf: a zero chart coefficient must not turn it into NaN
    rng = np.random.default_rng(83)
    U = sample_interior_angles(rng, 300)[:, :3]
    U[np.arange(300), np.arange(300) % 3] = 0.0
    A = SLOT_CONST + U @ SLOT_COEF.T
    got = _kernels.volume_gradient_batch(A)
    ref = _gradient_by_hand(A)
    assert not np.any(np.isnan(got)) and not np.any(np.isnan(ref))
    assert np.array_equal(np.isposinf(got), np.isposinf(ref))
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    assert np.all(np.isinf(got).sum(axis=1) == 1)
    fin = np.isfinite(ref)
    assert np.max(np.abs(got[fin] - ref[fin]) / np.abs(ref).max()) <= 1e-15


def test_hessians_match_the_per_slot_forms():
    A = sample_interior_angles(np.random.default_rng(84), 20_000)
    assert np.max(_rel_err(_volume_hessian(A), _volume_hessian_by_slot(A))) <= 1e-12
    assert np.max(_rel_err(_covolume_hessian(A), _covolume_hessian_by_slot(A))) <= 1e-12


def test_covolume_hessian_at_extended_angles_moves_by_rounding_only():
    # random lengths give clamped cells and cells near the walls; the half
    # apex gap is rounded once, so a block moves by its condition times eps
    L = np.random.default_rng(85).normal(0.0, 2.0, (20_000, 6))
    ext = _kernels.extended_angles_batch(L)
    clamped = np.any((ext == 0.0) | (ext == PI), axis=1)
    assert 0 < clamped.sum() < clamped.size
    got = _covolume_hessian(ext)
    ref = _covolume_hessian_by_slot(ext)
    assert np.all(got[clamped] == 0.0) and np.all(ref[clamped] == 0.0)
    cond = np.linalg.cond(ref[~clamped][:, :3, :3])
    assert np.all(_rel_err(got[~clamped], ref[~clamped]) <= 4e-16 * cond)

"""The numpy kernels on extreme inputs, the fused volume sum, and the
blocked cosine-extension pass against its column-by-column formula."""

import math
import tracemalloc

import numpy as np
import pytest

from hyptet import _kernels
from hyptet.selftest import sample_interior_angles
from hyptet.tetra import apply_decoration

_LN2 = math.log(2.0)


def _phi_columns(lengths):
    """The cosine extension one slot column at a time: the formula the
    blocked pass must reproduce bit for bit."""
    L = np.asarray(lengths, dtype=np.float64)
    l12, l13, l14, l23, l24, l34 = (L[:, j] for j in range(6))
    out = np.empty_like(L)

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
        ln_den = _LN2 + 0.5 * (au + av) + 0.5 * (np.logaddexp(0.0, au) + np.logaddexp(0.0, av))
        out[:, idx] = num * np.exp(np.minimum(m - ln_den, 700.0))

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
        out[:, idx] = num * np.exp(np.minimum(m - ln_den, 700.0))
    return out


def _dyadic_rows():
    # the grid of test_tetra's decoration-invariance test, with each row's
    # decorated copy
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(200):
        l = rng.integers(-192, 192, 6) / 64.0
        w = rng.integers(-128, 128, 3) / 64.0
        rows += [l, np.asarray(apply_decoration(l, w))]
    return np.array(rows)


@pytest.mark.parametrize(
    "lengths",
    [
        np.random.default_rng(90).normal(0.0, 1.0, (20_000, 6)),
        np.random.default_rng(91).normal(0.0, 10.0, (20_000, 6)),
        np.random.default_rng(92).normal(0.0, 100.0, (20_000, 6)),
        np.random.default_rng(93).uniform(-300.0, 300.0, (20_000, 6)),
        _dyadic_rows(),
    ],
    ids=["normal-1", "normal-10", "normal-100", "uniform-300", "dyadic"],
)
def test_phi_blocked_pass_is_the_column_formula_bitwise(lengths):
    got = _kernels.phi_batch(lengths)
    want = _phi_columns(lengths)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["0", "1", "B-1", "B", "B+1", "2B+1"],
)
def test_phi_rows_do_not_depend_on_the_batch(blocks, extra):
    # the dual and curvature evaluate cells in batches of any size: each
    # row must come out the same whichever block it lands in
    rows = blocks * _kernels._PHI_BLOCK + extra
    L = np.random.default_rng(94).normal(0.0, 3.0, (rows, 6))
    P = _kernels.phi_batch(L)
    assert P.shape == (rows, 6) and P.dtype == np.float64 and P.flags.c_contiguous
    assert np.array_equal(P, _phi_columns(L))
    for i in range(rows):
        assert np.array_equal(_kernels.phi_batch(L[i : i + 1])[0], P[i])


def test_phi_peak_memory_is_bounded_by_blocks():
    # an unblocked pass keeps ~940 B of temporaries per row, the column
    # formula ~216; blocks keep the peak near the 48 B/row output
    L = np.random.default_rng(95).normal(0.0, 3.0, (100_000, 6))
    output_bytes = L.nbytes
    tracemalloc.start()
    try:
        _kernels.phi_batch(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * output_bytes


def test_backend_flag_documented():
    assert _kernels.ACTIVE_BACKEND in _kernels.BACKENDS


def test_extreme_inputs_stay_finite():
    rng = np.random.default_rng(73)
    L = rng.uniform(-300, 300, (2_000, 6))
    assert np.all(np.isfinite(_kernels.phi_batch(L)))
    a = _kernels.extended_angles_batch(L)
    assert np.all((a >= 0.0) & (a <= np.pi))
    assert np.all(np.isfinite(_kernels.covolume_batch(L)))


def test_volume2_equals_per_angle_sum():
    rng = np.random.default_rng(74)
    A = sample_interior_angles(rng, 10_000)
    lob = _kernels.lobachevsky_batch
    h = A[:, 0] + A[:, 1] + A[:, 2]
    v = lob((np.pi - h) / 2.0)
    for j in range(6):
        v = v + lob(A[:, j])
    assert np.array_equal(_kernels.volume2_batch(A), v)

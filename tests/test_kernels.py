"""The numpy kernels on extreme inputs, and the fused volume sum."""

import numpy as np

from hyptet import _kernels
from hyptet.selftest import sample_interior_angles


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

import math

import numpy as np
import pytest

from hyptet import lobachevsky, lobachevsky_derivative, lobachevsky_reference
from hyptet.errors import SingularArgument

PI = math.pi

# frozen from the quadrature oracle at 1e-13
LOB_PI_6 = 0.5074708032048268


def test_zero_and_half_pi():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(PI / 2.0)) <= 1e-12
    assert abs(lobachevsky(PI)) <= 1e-12


def test_value_at_pi_over_six():
    assert lobachevsky(PI / 6.0) == pytest.approx(LOB_PI_6, abs=1e-12)


def test_oracle_agreement_on_grid():
    grid = np.linspace(0.0, PI, 102)[1:-1]
    fast = lobachevsky(grid)
    ref = np.array([lobachevsky_reference(t, 1e-12) for t in grid])
    assert np.max(np.abs(fast - ref)) <= 1e-10


def test_oddness_and_periodicity():
    rng = np.random.default_rng(7)
    th = rng.uniform(-10.0, 10.0, 10_000)
    assert np.max(np.abs(lobachevsky(th) + lobachevsky(-th))) <= 1e-12
    assert np.max(np.abs(lobachevsky(th + PI) - lobachevsky(th))) <= 1e-12


def test_reflection():
    rng = np.random.default_rng(8)
    th = rng.uniform(1e-9, PI - 1e-9, 10_000)
    assert np.max(np.abs(lobachevsky(th) + lobachevsky(PI - th))) <= 1e-12


def test_accuracy_over_ten_periods():
    rng = np.random.default_rng(9)
    th = rng.uniform(-10.0 * PI, 10.0 * PI, 200)
    ref = np.array([lobachevsky_reference(t, 1e-12) for t in th])
    assert np.max(np.abs(lobachevsky(th) - ref)) <= 1e-12


@pytest.mark.parametrize(
    "theta, bound",
    [
        (np.concatenate([np.linspace(0.0, PI, 102)[1:-1],
                         np.random.default_rng(11).uniform(0.0, PI, 100)]), 2e-15),
        (np.random.default_rng(9).uniform(-10.0 * PI, 10.0 * PI, 200), 1e-14),
    ],
    ids=["one-period", "ten-periods"],
)
def test_reference_against_clausen(theta, bound):
    # Lobachevsky's function is Cl_2(2 theta) / 2, Clausen's, here at 40
    # digits of the float theta.  Measured on these samples: 5.2e-16 and
    # 2.9e-15; over ten periods the reduction of theta by m pi in double
    # dominates, and reaches 7.5e-15 on 2000 samples
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = [float(mpmath.clsin(2, 2 * mpmath.mpf(float(t))) / 2) for t in theta]
    got = [lobachevsky_reference(t, 1e-12) for t in theta]
    assert np.max(np.abs(np.subtract(got, want))) <= bound


def test_derivative_values():
    assert lobachevsky_derivative(PI / 6.0) == pytest.approx(0.0, abs=1e-15)
    assert lobachevsky_derivative(PI / 2.0) == pytest.approx(-math.log(2.0), abs=1e-15)


def test_derivative_singularities():
    for bad in (0.0, PI, -PI, 3.0 * PI, 5e-13):
        with pytest.raises(SingularArgument):
            lobachevsky_derivative(bad)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(10)
    th = rng.uniform(0.1, PI - 0.1, 2_000)
    h = 1e-6
    fd = (lobachevsky(th + h) - lobachevsky(th - h)) / (2.0 * h)
    assert np.max(np.abs(fd - lobachevsky_derivative(th))) <= 1e-6


def test_reference_reflection_identity():
    # the oracle alone must reproduce the reflection of a small angle
    a = lobachevsky_reference(PI - 1e-3, 1e-10)
    b = lobachevsky_reference(1e-3, 1e-10)
    assert a == pytest.approx(-b, abs=1e-10)


def test_reference_tol_domain():
    with pytest.raises(ValueError):
        lobachevsky_reference(1.0, 1e-5)
    with pytest.raises(ValueError):
        lobachevsky_reference(1.0, 0.0)


def test_array_shapes():
    out = lobachevsky(np.ones((3, 4)))
    assert out.shape == (3, 4)
    assert isinstance(lobachevsky(1.0), float)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lobachevsky(math.inf),
        lambda: lobachevsky(np.array([0.5, math.nan])),
        lambda: lobachevsky_derivative(-math.inf),
        lambda: lobachevsky_reference(math.nan, 1e-12),
    ],
    ids=["lobachevsky", "lobachevsky-array", "derivative", "reference"],
)
def test_a_non_finite_theta_raises(call):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == "theta must be finite"


def test_reference_at_zero():
    assert lobachevsky_reference(0.0, 1e-12) == 0.0


@pytest.mark.parametrize("theta", [5e-324, 1e-310, 1e-300, 1e-9, 2e-8])
def test_reference_at_tiny_angles(theta):
    # below 1e-8 the smooth part rounds to 0, and a node times a subnormal
    # theta would underflow to 0 and divide 0 by 0
    assert lobachevsky_reference(theta, 1e-12) == pytest.approx(
        lobachevsky(theta), rel=1e-15
    )

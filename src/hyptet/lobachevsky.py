"""Milnor's Lobachevsky function, its derivative, and a quadrature oracle.

``lobachevsky`` evaluates ``-int_0^theta ln|2 sin t| dt`` to better than
1e-12 absolute accuracy for ``|theta| <= 10*pi`` via argument reduction to
``[0, pi/2]`` and a log-split series with an explicit remainder bound (see
``_kernels``).  ``lobachevsky_reference`` integrates the defining integral
directly with a fixed 30-node Gauss-Legendre rule and is used only as an
independent check.  Against Clausen's function at 40 digits it is within
2e-15 on (0, pi) and 1e-14 on ``|theta| <= 10*pi``, where reducing theta by
a multiple of pi in double dominates (``tests/test_lobachevsky.py``).
"""

import functools
import math

import numpy as np

from . import _kernels
from .errors import SingularArgument

PI = math.pi

__all__ = ["lobachevsky", "lobachevsky_derivative", "lobachevsky_reference"]


def lobachevsky(theta):
    """Evaluate the function at a scalar or array of angles (radians).

    Odd, pi-periodic, and zero at all multiples of pi/2.
    """
    arr = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta must be finite")
    out = _kernels.lobachevsky_batch(arr.reshape(-1))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def lobachevsky_derivative(theta):
    """Derivative -ln|2 sin theta|; raises near the vertical tangents.

    Raises SingularArgument when theta is within 1e-12 of a multiple of pi.
    """
    arr = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta must be finite")
    dist = np.abs(arr - PI * np.round(arr / PI))
    if np.any(dist <= 1e-12):
        raise SingularArgument(
            "derivative diverges within 1e-12 of a multiple of pi"
        )
    out = _kernels.lobachevsky_prime(arr)
    if arr.ndim == 0:
        return float(out)
    return out


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 30-node Gauss-Legendre rule on [0, 1].

    On ``[0, x]``, ``x <= pi/2``, the integrand ``ln(sin t / t)`` is analytic
    inside the Bernstein ellipse through its nearest singularity ``t = pi``,
    of parameter ``rho >= 3 + 2 sqrt 2``, so the rule's error, of order
    ``rho^-60``, is far below rounding (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 19).  numpy's weights take ``P_30'`` at the
    nodes before their last Newton step and are off by up to 3e-13; at the
    final nodes, ``2 / ((1 - x^2) P_30'(x)^2)`` is off by 1e-14.
    """
    legendre = np.polynomial.legendre
    x = legendre.leggauss(30)[0]
    slope = legendre.legval(x, legendre.legder([0] * 30 + [1]))
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope**2)
    return (x + 1.0) / 2.0, weights / 2.0


def _quarter_integral(x):
    """-int_0^x ln(2 sin t) dt for x in [0, pi/2].

    The endpoint log singularity is split off in closed form and the smooth
    remainder ln(sin t / t) goes to the fixed Gauss-Legendre rule.
    """
    if x <= 0.0:
        return 0.0
    closed = x * math.log(2.0 * x) - x
    # ln(sin t / t) rounds to 0 below t = 1e-8, where t itself may underflow
    if x < 1e-8:
        return -closed
    nodes, weights = _gauss_legendre()
    t = x * nodes
    smooth = x * float(weights @ np.log(np.sin(t) / t))
    return -(closed + smooth)


def lobachevsky_reference(theta, tol):
    """Gauss-Legendre evaluation of the defining integral.

    Independent of the series used by ``lobachevsky``; intended for the
    test suite.  ``tol`` is the requested absolute accuracy, at most 1e-6;
    the fixed rule meets it down to its own error, about 1e-15 per period.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta < 0.0:
        return -lobachevsky_reference(-theta, tol)

    quarter = _quarter_integral(PI / 2.0)
    # the integrand is pi-periodic and symmetric about pi/2, so one full
    # period contributes twice the quarter integral
    period = 2.0 * quarter
    m = math.floor(theta / PI)
    r = theta - m * PI
    if r <= PI / 2.0:
        tail = _quarter_integral(r)
    else:
        tail = quarter + (quarter - _quarter_integral(PI - r))
    return m * period + tail

"""Milnor's Lobachevsky function, its derivative, and a quadrature oracle.

``lobachevsky`` evaluates ``-int_0^theta ln|2 sin t| dt`` to better than
1e-12 absolute accuracy for ``|theta| <= 10*pi`` via argument reduction to
``[0, pi/2]`` and a log-split series with an explicit remainder bound (see
``_kernels``).  ``lobachevsky_reference`` integrates the defining integral
directly with adaptive quadrature and is used only as an independent check.
"""

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


def _quarter_integral(x, tol):
    """-int_0^x ln(2 sin t) dt for x in [0, pi/2].

    The endpoint log singularity is split off in closed form; the smooth
    remainder ln(sin t / t) is integrated adaptively.  scipy.integrate is
    imported here, its only user, so the series path does not load it.
    """
    from scipy.integrate import quad

    if x <= 0.0:
        return 0.0

    def g(t):
        return math.log(math.sin(t) / t) if t > 0.0 else 0.0

    smooth, _ = quad(g, 0.0, x, epsabs=tol, epsrel=0.0, limit=400)
    closed = x * math.log(2.0 * x) - x
    return -(closed + smooth)


def lobachevsky_reference(theta, tol):
    """Adaptive-quadrature evaluation of the defining integral.

    Independent of the series used by ``lobachevsky``; intended for the
    test suite.  ``tol`` is the requested absolute accuracy, at most 1e-6.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta < 0.0:
        return -lobachevsky_reference(-theta, tol)

    seg_tol = min(tol, 1e-13) / 4.0
    quarter = _quarter_integral(PI / 2.0, seg_tol)
    # the integrand is pi-periodic and symmetric about pi/2, so one full
    # period contributes twice the quarter integral
    period = 2.0 * quarter
    m = math.floor(theta / PI)
    r = theta - m * PI
    if r <= PI / 2.0:
        tail = _quarter_integral(r, seg_tol)
    else:
        tail = quarter + (quarter - _quarter_integral(PI - r, seg_tol))
    return m * period + tail

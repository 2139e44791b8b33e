"""What a fresh process loads: scipy's quadrature and special functions only
on the calls that use them, and ``scipy.optimize`` with no LP.

``import scipy.optimize`` alone costs about a third of a second, more than a
single-cell CLI query.  ``find_interior`` runs the package's own LP, so
neither it nor ``maximize_volume``'s fallback to it loads the module.
``scipy.integrate`` loads it, and ``scipy.special``, with itself, so both
first arrive with the quadrature oracle ``lobachevsky_reference``.  The
check runs in a fresh interpreter, since this pytest run has
long loaded all three.
"""

import subprocess
import sys

from conftest import subprocess_env

SCRIPT = """
import math
import sys

LAZY = ("scipy.optimize", "scipy.integrate", "scipy.special")


def loaded():
    return [m for m in LAZY if m in sys.modules]


import numpy as np

import hyptet
from hyptet import cli, cone_angles, doubled_fixture, find_interior
from hyptet import lobachevsky_reference, maximize_volume
from hyptet.errors import NoInteriorStart
from hyptet.structures import FeasibilityStatus
from hyptet.tetra import SLOT_COEF, SLOT_CONST

assert not loaded(), ("import", loaded())
assert cli.main(["tetra", "covolume", "--l", "0.1,-0.2,0.3,0.5,0.4,0.6"]) == 0
T, k, _ = doubled_fixture([0.1, -0.2, 0.3, 0.5, 0.4, 0.6])
# phase one lands on the edge equations: the LP is not consulted
assert maximize_volume(T, k).kkt_residual <= 1e-8
assert not loaded(), ("cli and primal", loaded())

assert find_interior(T, k).status is FeasibilityStatus.INTERIOR_FOUND
# an apex-pi target has no interior start: the primal falls back to the LP
apex = np.tile(SLOT_COEF @ [0.5, 1.0, math.pi - 1.5] + SLOT_CONST, (2, 1))
try:
    maximize_volume(T, cone_angles(T, apex))
except NoInteriorStart as exc:
    assert "BoundaryOnly" in str(exc), exc
else:
    raise AssertionError("an apex-pi target has no interior start")
assert not loaded(), ("find_interior and the primal's fallback", loaded())

assert abs(lobachevsky_reference(1.0, 1e-10) - hyptet.lobachevsky(1.0)) <= 1e-10
# import scipy.integrate brings scipy.optimize (and scipy.special) with it
assert {"scipy.optimize", "scipy.integrate"} <= set(loaded()), ("quadrature", loaded())
print("ok")
"""


def test_fresh_process_loads_quadrature_alone_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith('{"covolume":')
    assert lines[-1] == "ok"

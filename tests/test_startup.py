"""What a fresh process loads: scipy's LP, quadrature and special functions
only on the calls that use them.

``import scipy.optimize`` alone costs about a third of a second, more than a
single-cell CLI query, so the package keeps it, ``scipy.integrate`` and
``scipy.special`` out of the import and out of every path that does not
need them.  The check runs in a fresh interpreter, since this pytest run
has long loaded all three.
"""

import subprocess
import sys

from conftest import subprocess_env

SCRIPT = """
import sys

LAZY = ("scipy.optimize", "scipy.integrate", "scipy.special")


def loaded():
    return [m for m in LAZY if m in sys.modules]


import hyptet
from hyptet import cli, doubled_fixture, find_interior, lobachevsky_reference
from hyptet import maximize_volume
from hyptet.structures import FeasibilityStatus

assert not loaded(), ("import", loaded())
assert cli.main(["tetra", "covolume", "--l", "0.1,-0.2,0.3,0.5,0.4,0.6"]) == 0
T, k, _ = doubled_fixture([0.1, -0.2, 0.3, 0.5, 0.4, 0.6])
# phase one lands on the edge equations: the LP is not consulted
assert maximize_volume(T, k).kkt_residual <= 1e-8
assert not loaded(), ("cli and primal", loaded())

assert find_interior(T, k).status is FeasibilityStatus.INTERIOR_FOUND
assert "scipy.optimize" in loaded(), ("find_interior", loaded())
assert abs(lobachevsky_reference(1.0, 1e-10) - hyptet.lobachevsky(1.0)) <= 1e-10
assert "scipy.integrate" in loaded(), ("lobachevsky_reference", loaded())
print("ok")
"""


def test_fresh_process_loads_lp_and_quadrature_on_first_use():
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

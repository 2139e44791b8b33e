"""What a fresh process loads: numpy alone until the first sparse LU, and
then ``scipy.sparse`` without ``scipy.optimize``, ``scipy.integrate`` or
``scipy.special``.

Importing scipy's sparse modules costs more than a single-cell CLI query,
and ``scipy.integrate`` brings ``scipy.optimize`` and ``scipy.special`` with
it.  So single-cell queries, ``fixture``, ``validate``, ``curvature``, the
admissibility check, the Lobachevsky oracle and ``selftest`` run on numpy
alone; scipy loads inside ``Triangulation.factor``, ``a_eq`` and
``gauge_matrix``, with the first solver call.  The checks run in a fresh
interpreter, since this pytest run has long loaded all of scipy.
"""

import subprocess
import sys

import pytest
from conftest import subprocess_env

SCRIPT = """
import io
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout

NEVER = ("scipy.optimize", "scipy.integrate", "scipy.special")


def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


import numpy as np

import hyptet
from hyptet import (
    cli, cone_angles, curvature, doubled_fixture, duality_gap, find_interior,
    lobachevsky_reference, maximize_volume, rigidity_check, solve_cone_angles,
)
from hyptet.errors import NoInteriorStart
from hyptet.structures import FeasibilityStatus
from hyptet.tetra import SLOT_COEF, SLOT_CONST, extended_angles
from hyptet.triangulation import admissibility_residual

assert not scipy_loaded(), ("import", scipy_loaded())

L = "0.1,-0.2,0.3,0.5,0.4,0.6"
LENGTHS = [float(x) for x in L.split(",")]
ALPHA = ",".join(repr(float(a)) for a in extended_angles(LENGTHS))
queries = [
    ["tetra", "angles-to-lengths", "--alpha", ALPHA],
    ["tetra", "lengths-to-angles", "--l", L],
    ["tetra", "classify", "--l", L],
    ["tetra", "volume", "--alpha", ALPHA],
    ["tetra", "covolume", "--l", L],
]
with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(io.StringIO()) as text:
    for argv in queries + [
        ["fixture", "double", "--l", L, "--out-dir", out_dir],
        ["validate", os.path.join(out_dir, "tri.json")],
        ["selftest"],
    ]:
        assert cli.main(argv) == 0, argv
assert text.getvalue().splitlines()[4].startswith('{"covolume":')
T, k, _ = doubled_fixture(LENGTHS)
kappa = curvature(T, np.full(6, 0.3))
assert admissibility_residual(T, 2.0 * math.pi - kappa) <= 1e-9
assert abs(lobachevsky_reference(1.0, 1e-10) - hyptet.lobachevsky(1.0)) <= 1e-10
assert not scipy_loaded(), ("single-cell and numpy-only calls", scipy_loaded())

first = sys.argv[1]
if first == "maximize_volume":
    # phase one lands on the edge equations: the LP is not consulted
    assert maximize_volume(T, k).kkt_residual <= 1e-8
else:
    assert find_interior(T, k).status is FeasibilityStatus.INTERIOR_FOUND
assert "scipy.sparse.linalg" in sys.modules, (first, scipy_loaded())
assert not [m for m in NEVER if m in sys.modules], (first, scipy_loaded())

maximize_volume(T, k)
find_interior(T, k)
# an apex-pi target has no interior start: the primal falls back to the LP
apex = np.tile(SLOT_COEF @ [0.5, 1.0, math.pi - 1.5] + SLOT_CONST, (2, 1))
try:
    maximize_volume(T, cone_angles(T, apex))
except NoInteriorStart as exc:
    assert "BoundaryOnly" in str(exc), exc
else:
    raise AssertionError("an apex-pi target has no interior start")
solve_cone_angles(T, k)
duality_gap(T, k)
rigidity_check(T, k, n_starts=2)
assert not [m for m in NEVER if m in sys.modules], ("every solver", scipy_loaded())
print("ok")
"""


@pytest.mark.parametrize("first", ["maximize_volume", "find_interior"])
def test_fresh_process_loads_scipy_with_the_first_sparse_lu(first):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, first],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ok"]

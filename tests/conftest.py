"""Shared builders for the test suite.

The cyclic covers and random gluings are the benchmark's own builders,
``perfbench/instances.py``, loaded by path: the tests and the benchmark run
on the same documents.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
_spec = importlib.util.spec_from_file_location("perfbench_instances", INSTANCES)
_instances = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_instances)
#: ``cover_document(m, shifts=(0, 1, 0, 0))``, 2m tetrahedra
cover_document = _instances.cover_document


#: node ids of the tests this run skipped
_SKIPPED = []


def pytest_runtest_logreport(report):
    # a skipped test leaves its code path untested, so the run must not pass
    if report.skipped and not hasattr(report, "wasxfail"):
        _SKIPPED.append(report.nodeid)


def pytest_sessionfinish(session):
    if _SKIPPED and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _SKIPPED:
        terminalreporter.section("skipped tests fail the run", red=True)
        for nodeid in _SKIPPED:
            terminalreporter.line(f"SKIPPED {nodeid}")


def subprocess_env():
    """``os.environ`` with the directory of the imported ``hyptet`` first on
    ``PYTHONPATH``, so that a fresh ``python`` process imports the same
    package as this run, whatever put it on this run's path."""
    import hyptet

    src = str(Path(hyptet.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


def snake_document():
    """Two tetrahedra, each self-glued across its quadrilateral faces.

    Valid closed pseudo-manifold with a merged cusp class (so some edge
    classes meet it with multiplicity two) and edge classes containing two
    slots of the same tetrahedron.
    """
    return {
        "format": "hyptet-tri-v1",
        "tetrahedra": 2,
        "gluings": [
            {"tet": 0, "face": 2, "to_tet": 0, "to_face": 3,
             "vertex_map": [1, 3, 2, 4]},
            {"tet": 1, "face": 2, "to_tet": 1, "to_face": 3,
             "vertex_map": [1, 3, 2, 4]},
            {"tet": 0, "face": 1, "to_tet": 1, "to_face": 1,
             "vertex_map": [1, 2, 3, 4]},
            {"tet": 0, "face": 4, "to_tet": 1, "to_face": 4,
             "vertex_map": [1, 2, 3, 4]},
        ],
    }


def disjoint_double_document():
    """Disjoint union of two doubled tetrahedra: four cells, two components."""
    from hyptet.triangulation import double_document

    doc = double_document()
    doc["tetrahedra"] = 4
    doc["gluings"] += [
        dict(g, tet=g["tet"] + 2, to_tet=g["to_tet"] + 2) for g in doc["gluings"]
    ]
    return doc


def random_gluing_document(n=16, seed=0):
    """The benchmark's random gluing of ``n`` tetrahedra, drawn from ``seed``."""
    return _instances.random_gluing_document(n, np.random.default_rng(seed))

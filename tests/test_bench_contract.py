"""The traced benchmark's view of the package stays importable and patchable.

``perfbench/tracing.py`` looks up layer entry points and a few foreign names
(``optimize.null_space``, ``structures.linprog``) by name; a package change
that drops one of them breaks ``perfbench/run.py --trace 1``.  The workloads
also count a ``None`` return as a failed operation, so an entry point they
time must keep returning a value.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hyptet import assemble, doubled_fixture
from hyptet.tetra import SLOT_CONST

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_entry_point():
    tracing = _tracing()
    points = tracing.entry_points()
    original = {(layer, name): fn for layer, name, fn in points}
    assert ("optimize", "null_space") in original
    assert ("structures", "linprog") in original
    optimize = tracing.LAYERS["optimize"]
    with tracing.Tracer() as tracer:
        assert optimize.null_space.__wrapped__ is original[("optimize", "null_space")]
        optimize.null_space(np.ones((1, 2)))
    assert [span[0] for span in tracer.spans] == ["optimize.null_space"]
    for (layer, name), fn in original.items():
        assert getattr(tracing.LAYERS[layer], name) is fn


def test_layer_metrics_read_only_traced_span_names():
    # a metric whose span name no entry point produces reads 0 forever, so a
    # moved or renamed function must fail here, not zero a per-layer metric
    tracing = _tracing()
    consts = tracing.layer_metrics.__code__.co_consts
    ids = next(c for c in consts if getattr(c, "co_name", None) == "ids")
    read = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is ids:
            read.append(frame.f_locals["name"])

    prev = sys.getprofile()
    sys.setprofile(record)
    try:
        tracing.layer_metrics([])
    finally:
        sys.setprofile(prev)
    traced = {f"{layer}.{name}" for layer, name, _ in tracing.entry_points()}
    traced.add("triangulation.gauge_projector")
    assert set(read) <= traced, sorted(set(read) - traced)
    expected = {f"_kernels.{k}" for k in tracing.KERNELS}
    expected |= {f"tetra.{q}" for q in tracing.TETRA_QUERIES}
    expected |= {
        "optimize.maximize_volume",
        "optimize.solve_cone_angles",
        "optimize.rigidity_check",
        "optimize.null_space",
        "structures.assemble",
        "structures.linprog",
        "structures.find_interior",
        "structures.is_member",
        "triangulation.validate",
        "triangulation.curvature",
        "triangulation.gauge_projector",
    }
    assert expected <= set(read)


def test_assemble_returns_the_right_hand_side():
    # primal-scale times ``structures.assemble`` through ``Pass.call``, which
    # counts a None return as a failed operation and lowers ``ok_frac``
    T, k, _ = doubled_fixture([0.3, -0.2, 0.1, 0.25, -0.15, 0.4])
    b_eq = assemble(T, k)
    expected = k.values - T.edge_sums(np.tile(SLOT_CONST, T.n_tetrahedra))
    assert isinstance(b_eq, np.ndarray)
    assert np.array_equal(b_eq, expected)


def test_tracer_records_the_lp_iterations():
    # find_interior's report and linprog's run both carry ``iterations``,
    # which the tracer copies into their spans through RESULT_FIELDS
    tracing = _tracing()
    T, k, _ = doubled_fixture([0.3, -0.2, 0.1, 0.25, -0.15, 0.4])
    with tracing.Tracer() as tracer:
        fr = tracing.LAYERS["structures"].find_interior(T, k)
    info = {span[0]: span[6] for span in tracer.spans}
    assert fr.iterations > 0
    assert info["structures.find_interior"] == {"iterations": fr.iterations}
    assert info["structures.linprog"] == {"iterations": fr.iterations}

"""The traced benchmark's view of the package stays importable and patchable.

``perfbench/tracing.py`` looks up layer entry points and a few foreign names
(``optimize.null_space``, ``structures.linprog``) by name; a package change
that drops one of them breaks ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import numpy as np

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

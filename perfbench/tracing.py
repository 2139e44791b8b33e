"""Span tracing at the boundaries between hyptet's layers.

A ``Tracer`` replaces, for the duration of a ``with`` block, every module
attribute that names a layer entry point with a wrapper that records one
span per call.  Each layer is one module of the package; the span name is
``<module>.<function>``.  Leaving the block puts every original back and
checks that it did.

Wrapped names:

* the public functions defined in ``triangulation``, ``structures``,
  ``optimize``, ``tetra``, ``lobachevsky`` and ``cli``, and the seven batch
  kernels ``_kernels`` dispatches to the active backend;
* ``optimize.null_space`` and ``structures.linprog``, the dense SVD and the
  LP solver the package calls from scipy;
* the ``Triangulation.gauge_projector`` property.

A name is patched in every module that holds the same object under the same
name, so ``optimize.phi_batch`` and ``optimize.assemble`` are traced as the
``_kernels`` and ``structures`` calls they are.  Aliases under other names,
such as the numpy backend's own ``np_*`` functions, are left alone: a
kernel's internal calls are part of that kernel.
"""

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

# the package re-exports the function ``lobachevsky`` under its module's name,
# so each layer is looked up as a module
_kernels, cli, lobachevsky, optimize, structures, tetra, triangulation = (
    importlib.import_module(f"hyptet.{m}")
    for m in ("_kernels", "cli", "lobachevsky", "optimize", "structures",
              "tetra", "triangulation")
)

LAYERS = {
    "triangulation": triangulation,
    "structures": structures,
    "optimize": optimize,
    "tetra": tetra,
    "lobachevsky": lobachevsky,
    "_kernels": _kernels,
    "cli": cli,
}
#: names a layer imports from outside the package, traced as that layer's calls
FOREIGN = {"optimize": ("null_space",), "structures": ("linprog",)}
#: kernels whose per-row cost the workloads exercise
KERNELS = (
    "lobachevsky_batch",
    "phi_batch",
    "extended_angles_batch",
    "volume2_batch",
    "volume_gradient_batch",
    "covolume_batch",
)
TETRA_QUERIES = (
    "classify",
    "extended_angles",
    "angles_to_lengths",
    "volume_from_angles",
    "covolume",
    "covolume_gradient",
)
#: report fields copied from a returned value into its span
RESULT_FIELDS = ("iterations", "diverged")


def entry_points():
    """(layer, name, function) for every traced entry point."""
    out = []
    for layer, mod in LAYERS.items():
        if layer == "_kernels":
            names = sorted(_kernels.BACKENDS[_kernels.ACTIVE_BACKEND])
        else:
            names = [
                n
                for n, v in vars(mod).items()
                if not n.startswith("_")
                and inspect.isfunction(v)
                and v.__module__ == mod.__name__
            ]
        names += list(FOREIGN.get(layer, ()))
        out.extend((layer, n, getattr(mod, n)) for n in names)
    return out


def _rows(args):
    a = args[0] if args else None
    if not isinstance(a, np.ndarray):
        return 0
    return int(a.shape[0]) if a.ndim == 2 else int(a.size)


class Tracer:
    """In-memory span recorder; use as a context manager to trace calls.

    A span is ``(name, start, end, parent, instance, rows, info)``: times
    from ``time.perf_counter``, ``parent`` the index of the enclosing span
    or -1, ``instance`` the label set by the caller, ``rows`` the batch
    size of a kernel call, and ``info`` the error type or the report
    fields in ``RESULT_FIELDS``.
    """

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patched = []
        self._paused = False

    def _wrap(self, name, fn, count_rows):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rows = _rows(args) if count_rows else 0
                spans[sid] = (name, t0, t1, parent, self.instance, rows, info)
            fields = {f: getattr(result, f) for f in RESULT_FIELDS if hasattr(result, f)}
            if fields:
                spans[sid] = spans[sid][:6] + (fields,)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for layer, name, fn in entry_points():
            wrapper = self._wrap(
                f"{layer}.{name}", fn, layer in ("_kernels", "lobachevsky")
            )
            for mod in LAYERS.values():
                if getattr(mod, name, None) is fn:
                    self._patched.append((mod, name, fn))
                    setattr(mod, name, wrapper)
        prop = triangulation.Triangulation.__dict__["gauge_projector"]
        traced = property(
            self._wrap("triangulation.gauge_projector", prop.fget, False)
        )
        self._patched.append((triangulation.Triangulation, "gauge_projector", prop))
        triangulation.Triangulation.gauge_projector = traced
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        left = [
            f"{getattr(o, '__name__', o)}.{n}"
            for o, n, original in self._patched
            if (o.__dict__[n] if isinstance(o, type) else getattr(o, n)) is not original
        ]
        self._patched.clear()
        if left:
            raise RuntimeError(f"tracer did not restore: {left}")
        return False

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


def layer_metrics(spans):
    """Per-layer metrics of one pass's spans (see README for the list)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in ids(name))

    def mean_us(name):
        idx = ids(name)
        return 1e6 * total(name) / len(idx) if idx else 0.0

    def children(parent_name, name):
        parents = set(ids(parent_name))
        return [i for i in ids(name) if spans[i][3] in parents]

    def info_sum(name, field):
        return sum(int((spans[i][6] or {}).get(field, 0)) for i in ids(name))

    m = {}
    for k in KERNELS:
        idx = ids(f"_kernels.{k}")
        rows = sum(spans[i][5] for i in idx)
        busy = total(f"_kernels.{k}")
        m[f"kernels.{k}.calls"] = len(idx)
        m[f"kernels.{k}.rows"] = rows
        m[f"kernels.{k}.busy_s"] = busy
        m[f"kernels.{k}.ns_per_row"] = 1e9 * busy / rows if rows else 0.0

    solve, maximize = "optimize.solve_cone_angles", "optimize.maximize_volume"
    its = info_sum(solve, "iterations")
    evals = len(children(solve, "_kernels.extended_angles_batch"))
    m["optimize.solve.iterations"] = its
    m["optimize.solve.evals"] = evals
    m["optimize.solve.evals_per_iter"] = evals / its if its else 0.0
    m["optimize.solve.accept_ratio"] = its / evals if evals else 0.0
    m["optimize.solve.self_s"] = self_time(solve)
    m["optimize.maximize.iterations"] = info_sum(maximize, "iterations")
    m["optimize.maximize.evals"] = len(children(maximize, "_kernels.volume2_batch"))
    m["optimize.maximize.self_s"] = self_time(maximize)
    m["optimize.null_space_s"] = total("optimize.null_space")
    m["optimize.rigidity.failed_starts"] = sum(
        1
        for i in children("optimize.rigidity_check", solve)
        if (spans[i][6] or {}).get("error") or (spans[i][6] or {}).get("diverged")
    )

    for fn in ("assemble", "linprog", "find_interior", "is_member"):
        m[f"structures.{fn}_s"] = total(f"structures.{fn}")
    for fn in ("validate", "gauge_projector", "curvature"):
        m[f"triangulation.{fn}_s"] = total(f"triangulation.{fn}")
    for fn in TETRA_QUERIES:
        m[f"tetra.{fn}_us"] = mean_us(f"tetra.{fn}")
    lob = ids("lobachevsky.lobachevsky")
    lob_rows = sum(spans[i][5] for i in lob)
    m["lobachevsky.ns_per_row"] = (
        1e9 * total("lobachevsky.lobachevsky") / lob_rows if lob_rows else 0.0
    )
    m["cli.tetra_us"] = mean_us("cli.main")
    m["trace.spans"] = len(spans)
    return m

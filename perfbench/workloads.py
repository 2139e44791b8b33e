"""The benchmark's workloads: seeded passes of public hyptet calls, checked.

A workload is a sequence of passes.  Pass ``p`` of a run with seed ``s``
draws fresh inputs from ``numpy.random.default_rng([s, p, ...])``, so a run
is reproducible whatever its number of passes.  Within a pass the calls
run one after another from one thread (a closed loop with one client).

Every pass is split into *kinds*: the instance families of ``dual-ladder``
and ``primal-scale``, the query types of ``cell-queries``.  ``Pass.times``
holds the seconds each kind spent in each stage; the runner reports, per
kind, the seconds of a typical pass (``typical_times``).
"""

import importlib
import io
import math
import statistics
import time
from contextlib import nullcontext, redirect_stdout

import numpy as np

from hyptet import selftest
from hyptet.errors import HyptetError
from instances import cover_document, random_gluing_document, target_document

_kernels, cli, lobachevsky, optimize, structures, tetra, triangulation = (
    importlib.import_module(f"hyptet.{m}")
    for m in ("_kernels", "cli", "lobachevsky", "optimize", "structures",
              "tetra", "triangulation")
)

#: how the program gives up on an input: its own errors, and the dense
#: linear algebra it does not catch
FAILURES = (HyptetError, np.linalg.LinAlgError)
# Solver tolerance (``hyptet maximize/solve --tol``).  Below about 1e-7 both
# solvers reach the float-noise floor of their line searches, where a
# fifth to a third of all solves stall at random for 10-30 times their
# usual cost (ROADMAP item 3); a run holds too few solves to average that
# out, so the workloads solve to 1e-6, where no stall was seen.
TOL = 1e-6
# ``rigidity_check`` solves each start to tol / 100, so this keeps its
# inner solves at TOL as well
RIGIDITY_TOL = 100 * TOL


class Pass:
    """Times, operation counts and check failures of one pass."""

    def __init__(self, index):
        self.index = index
        self.times = {}  # kind -> {stage: seconds}
        self.latencies = {}  # kind -> per-call seconds (cell queries)
        self.rows = {}  # kind -> rows handled (bulk queries)
        self.attempted = 0
        self.failed = 0
        self.incorrect = []

    def call(self, kind, stage, fn, *args, **kwargs):
        """Time one program call; a call that gives up returns None."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except FAILURES:
            out = None
        stage_times = self.times.setdefault(kind, {})
        stage_times[stage] = stage_times.get(stage, 0.0) + time.perf_counter() - t0
        self.attempted += 1
        self.failed += out is None
        return out

    def expect(self, ok, message):
        """Count an output that fails its check as a failed operation."""
        if not ok:
            self.failed += 1
            self.incorrect.append(message)

    def refuse(self, n):
        """Operations that could not run because an earlier one failed."""
        self.attempted += n
        self.failed += n


def untraced(tracer):
    """Suspend ``tracer``, if any, for the benchmark's own calls."""
    return tracer.paused() if tracer is not None else nullcontext()


def _load(doc, kdoc):
    T = triangulation.validate(doc)
    return T, triangulation.ConeTarget.from_json(T, kdoc)


def _max_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _check_maximizer(rec, T, k, report, where, tracer):
    with untraced(tracer):
        verdict, _ = structures.is_member(T, report.maximizer, k)
    rec.expect(verdict is not structures.Membership.OUTSIDE, f"{where}: maximizer outside")
    rec.expect(report.kkt_residual <= TOL, f"{where}: kkt {report.kkt_residual:.3e}")


class _Instances:
    """A workload whose pass is one instance of each kind, run in turn."""

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def typical_times(passes, stage=None):
        """Per kind, the median over passes of the kind's (stage) seconds.

        A solver's work depends on its target, so passes differ in cost and
        the median pass is the typical one.
        """
        values = {}
        for rec in passes:
            for kind, stages in rec.times.items():
                value = stages.get(stage, 0.0) if stage else sum(stages.values())
                values.setdefault(kind, []).append(value)
        return {kind: statistics.median(v) for kind, v in values.items()}

    def run_pass(self, inputs, tracer=None):
        p, instances = inputs
        rec = Pass(p)
        for kind, *args in instances:
            if tracer is not None:
                tracer.instance = f"{p}:{kind}"
            self.run_instance(rec, kind, *args, tracer)
        return rec


class DualLadder(_Instances):
    """Primal, dual, certificate and rigidity on covers and random gluings."""

    name = "dual-ladder"
    headline = "solve"
    #: kind -> (tetrahedra, cover fold or None for a random gluing, rigidity)
    KINDS = {
        "cover4": (8, 4, True),
        "random16": (16, None, True),
        "cover16": (32, 16, False),
        "cover64": (128, 64, False),
    }

    def make_pass(self, p):
        out = []
        for j, (kind, (n, m, rigidity)) in enumerate(self.KINDS.items()):
            rng = np.random.default_rng([self.seed, p, j])
            doc = cover_document(m) if m else random_gluing_document(n, rng)
            kdoc = target_document(doc, rng)
            rig_seed = int(rng.integers(2**31)) if rigidity else None
            out.append((kind, doc, kdoc, rig_seed))
        return p, out

    @staticmethod
    def run_instance(rec, kind, doc, kdoc, rig_seed, tracer):
        where = f"pass {rec.index} {kind}"
        loaded = rec.call(kind, "validate", _load, doc, kdoc)
        if loaded is None:
            rec.refuse(5 if rig_seed is not None else 4)
            return
        T, k = loaded
        fr = rec.call(kind, "find_interior", structures.find_interior, T, k)
        if fr is not None:
            rec.expect(
                fr.status is structures.FeasibilityStatus.INTERIOR_FOUND,
                f"{where}: feasible target reported {fr.status.value}",
            )
        primal = rec.call(kind, "maximize", optimize.maximize_volume, T, k, tol=TOL)
        if primal is not None:
            _check_maximizer(rec, T, k, primal, where, tracer)
        dual = rec.call(kind, "solve", optimize.solve_cone_angles, T, k, tol=TOL)
        if dual is not None and dual.diverged:
            rec.failed += 1
            dual = None
        if dual is not None:
            with untraced(tracer):
                kappa = triangulation.curvature(T, dual.metric)
            err = _max_err(kappa, 2.0 * math.pi - k.values)
            rec.expect(err <= 10 * TOL, f"{where}: curvature off by {err:.3e}")
        # the certificate compares the two reports; it calls nothing
        rec.attempted += 1
        if primal is None or dual is None:
            rec.failed += 1
        else:
            # the barrier stops at weight TOL / 10 on 4n inequalities, so twice
            # its volume may sit up to 0.8 n TOL below the dual minimum
            gap = dual.objective - 2.0 * primal.volume
            bound = TOL * T.n_tetrahedra
            rec.expect(abs(gap) <= bound, f"{where}: duality gap {gap:.3e} > {bound:.3e}")
        if rig_seed is not None:
            rig = rec.call(
                kind, "rigidity", optimize.rigidity_check, T, k,
                n_starts=3, tol=RIGIDITY_TOL, seed=rig_seed,
            )
            if rig is not None:
                rec.expect(rig.all_agree, f"{where}: rigidity starts disagree")

    def warm_up(self):
        """One small instance of each stage, untimed."""
        rng = np.random.default_rng(2**31)
        doc = cover_document(2)
        self.run_instance(Pass(-1), "warm-up", doc, target_document(doc, rng), 0, None)


class PrimalScale(_Instances):
    """Validate, assemble, LP, primal and membership on large covers."""

    name = "primal-scale"
    headline = "maximize"
    KINDS = {"cover128": 128, "cover256": 256, "cover512": 512}

    def make_pass(self, p):
        out = []
        for j, (kind, m) in enumerate(self.KINDS.items()):
            rng = np.random.default_rng([self.seed, p, j])
            doc = cover_document(m)
            out.append((kind, doc, target_document(doc, rng)))
        return p, out

    @staticmethod
    def run_instance(rec, kind, doc, kdoc, tracer):
        where = f"pass {rec.index} {kind}"
        loaded = rec.call(kind, "validate", _load, doc, kdoc)
        if loaded is None:
            rec.refuse(4)
            return
        T, k = loaded
        rec.call(kind, "assemble", structures.assemble, T, k)
        fr = rec.call(kind, "find_interior", structures.find_interior, T, k)
        if fr is not None:
            rec.expect(
                fr.status is structures.FeasibilityStatus.INTERIOR_FOUND,
                f"{where}: feasible target reported {fr.status.value}",
            )
        primal = rec.call(kind, "maximize", optimize.maximize_volume, T, k, tol=TOL)
        if primal is None:
            rec.refuse(1)
            return
        rec.expect(primal.kkt_residual <= TOL, f"{where}: kkt {primal.kkt_residual:.3e}")
        member = rec.call(kind, "is_member", structures.is_member, T, primal.maximizer, k)
        if member is not None:
            rec.expect(
                member[0] is not structures.Membership.OUTSIDE,
                f"{where}: maximizer outside",
            )

    def warm_up(self):
        rng = np.random.default_rng(2**31)
        doc = cover_document(8)
        self.run_instance(Pass(-1), "warm-up", doc, target_document(doc, rng), None)


class CellQueries:
    """Single-cell calls one row at a time, then bulk kernel calls in chunks."""

    name = "cell-queries"
    headline = "per-row"
    ROWS = 100  # rows per pass for each per-row query
    BULK_THETA = 1_000_000  # Lobachevsky arguments per pass
    BULK_CHUNK = 50_000  # Lobachevsky arguments per call
    BULK_COVER = 256  # fold of the cover whose metrics ``curvature`` maps
    BULK_METRICS = 300  # metrics per pass, one per call

    def __init__(self, seed, rows=ROWS, bulk_theta=BULK_THETA,
                 bulk_metrics=BULK_METRICS, cover=None):
        self.seed = seed
        self.n_rows = rows
        self.bulk_theta = bulk_theta
        self.bulk_metrics = bulk_metrics
        self.cover = cover or triangulation.validate(cover_document(self.BULK_COVER))

    @staticmethod
    def typical_times(passes, stage=None):
        """Per kind, a pass's calls, each at the 2nd percentile of the run's calls.

        Every call of a kind does the same work, since a row's cost does not
        depend on the row.  Calls differ only by interference from the rest
        of the machine, which only ever slows a call down and comes in
        bursts: a shared host slows whole minutes of a run by up to a factor
        of two, yet leaves a few percent of the 10-ms windows of even a slow
        minute undisturbed.  A low percentile of thousands of short calls
        therefore reads nearly the same in every run, where the median or
        the fastest whole pass does not.
        """
        if stage not in (None, "call"):
            return {}
        return {
            kind: len(calls) * low_percentile([x for rec in passes for x in rec.latencies[kind]])
            for kind, calls in passes[0].latencies.items()
        }

    def make_pass(self, p):
        rng = np.random.default_rng([self.seed, p])
        alpha = selftest.sample_interior_angles(rng, self.n_rows)
        shift = rng.uniform(-1.0, 1.0, (self.n_rows, 3)) @ tetra.GAUGE_VECTORS
        lengths = np.array([tetra.angles_to_lengths(a) for a in alpha]) + shift
        theta = rng.uniform(-10.0, 10.0, self.bulk_theta)
        metrics = rng.uniform(-1.5, 1.5, (self.bulk_metrics, self.cover.n_edge_classes))
        return p, alpha, lengths, theta, metrics

    def run_pass(self, inputs, tracer=None):
        p, alpha, lengths, theta, metrics = inputs
        rec = Pass(p)
        if tracer is not None:
            tracer.instance = f"{p}:cell"
        texts = ["--l=" + ",".join(repr(float(x)) for x in row) for row in lengths]
        per_row = (
            ("classify", tetra.classify, lengths),
            ("extended_angles", tetra.extended_angles, lengths),
            ("angles_to_lengths", tetra.angles_to_lengths, alpha),
            ("volume_from_angles", tetra.volume_from_angles, alpha),
            ("covolume", tetra.covolume, lengths),
            ("covolume_gradient", tetra.covolume_gradient, lengths),
            ("cli_tetra", lambda text: cli.main(["tetra", "covolume", text]), texts),
        )
        out = {}
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            for kind, fn, rows in per_row:
                out[kind], rec.latencies[kind] = _one_row_at_a_time(rec, kind, fn, rows)
        chunks = [theta[i:i + self.BULK_CHUNK] for i in range(0, theta.size, self.BULK_CHUNK)]
        lobs, rec.latencies["lobachevsky_bulk"] = _one_row_at_a_time(
            rec, "lobachevsky_bulk", lobachevsky.lobachevsky, chunks
        )
        lob = None if any(y is None for y in lobs) else np.concatenate(lobs)
        rec.rows["lobachevsky_bulk"] = theta.size
        kappas, rec.latencies["curvature_bulk"] = _one_row_at_a_time(
            rec, "curvature_bulk", lambda x: triangulation.curvature(self.cover, x), metrics
        )
        rec.rows["curvature_bulk"] = len(metrics) * self.cover.n_tetrahedra
        with untraced(tracer):
            self._check(rec, alpha, lengths, out, stdout.getvalue(), theta, lob, kappas)
        return rec

    def _check(self, rec, alpha, lengths, out, cli_text, theta, lob, kappas):
        where = f"pass {rec.index}"
        ext = _kernels.BACKENDS[_kernels.ACTIVE_BACKEND]["extended_angles_batch"]

        def rows_of(kind):
            vals = out[kind]
            return None if any(v is None for v in vals) else np.array(vals, dtype=float)

        labels = out["classify"]
        rec.expect(
            all(x is tetra.RegionLabel.INTERIOR for x in labels),
            f"{where}: interior rows misclassified",
        )
        angles = rows_of("extended_angles")
        if angles is not None:
            err = _max_err(angles, alpha)
            rec.expect(err <= 1e-9, f"{where}: lengths -> angles off by {err:.3e}")
        canon = rows_of("angles_to_lengths")
        if canon is not None:
            err = _max_err(ext(np.ascontiguousarray(canon)), alpha)
            rec.expect(err <= 1e-9, f"{where}: angles -> lengths -> angles off by {err:.3e}")
        grad = rows_of("covolume_gradient")
        if grad is not None and angles is not None:
            rec.expect(np.array_equal(grad, angles), f"{where}: covolume gradient != angles")
        vol, cov = rows_of("volume_from_angles"), rows_of("covolume")
        if vol is not None and cov is not None:
            # covolume = 2 vol + <angles, lengths>
            err = _max_err(cov - np.sum(alpha * lengths, axis=1), 2.0 * vol)
            rec.expect(err <= 1e-9, f"{where}: covolume identity off by {err:.3e}")
        codes = out["cli_tetra"]
        printed = [float(line.split(":")[1].rstrip("}")) for line in cli_text.split()]
        rec.expect(
            all(c == 0 for c in codes) and cov is not None and printed == list(cov),
            f"{where}: hyptet tetra covolume disagrees with tetra.covolume",
        )
        if lob is not None:
            sample = np.linspace(0, theta.size - 1, 4).astype(int)
            err = max(
                abs(lob[i] - lobachevsky.lobachevsky_reference(theta[i], 1e-13))
                for i in sample
            )
            rec.expect(err <= 1e-10, f"{where}: Lobachevsky off by {err:.3e}")
        for kappa in [x for x in kappas if x is not None][:: max(1, len(kappas) // 8)]:
            resid = triangulation.admissibility_residual(self.cover, 2.0 * math.pi - kappa)
            rec.expect(resid <= 1e-9, f"{where}: curvature breaks the cusp identity")

    def warm_up(self):
        small = CellQueries(self.seed, rows=4, bulk_theta=1000, bulk_metrics=2, cover=self.cover)
        small.run_pass(small.make_pass(2**31))


def low_percentile(values):
    """The 2nd percentile of ``values``."""
    return statistics.quantiles(values, n=50)[0]


def _one_row_at_a_time(rec, kind, fn, rows):
    """Call ``fn`` on each row, timing each call; returns results and latencies."""
    results, lat = [], []
    for row in rows:
        t0 = time.perf_counter()
        try:
            y = fn(row)
        except FAILURES:
            y = None
        lat.append(time.perf_counter() - t0)
        results.append(y)
    rec.times[kind] = {"call": sum(lat)}
    rec.attempted += len(rows)
    rec.failed += sum(y is None for y in results)
    return results, lat


WORKLOADS = {w.name: w for w in (DualLadder, PrimalScale, CellQueries)}

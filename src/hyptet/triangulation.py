"""Triangulated compact pseudo 3-manifolds glued from 1-3 type tetrahedra.

Every tetrahedron has vertex 1 truncated and vertices 2, 3, 4 cusped.
Face ``f`` of a tetrahedron is the face opposite vertex ``f``: face 1 is
the cusp triangle {2,3,4}, faces 2..4 are the quadrilateral faces through
vertex 1.  A closed triangulation pairs every face slot with exactly one
other via a vertex permutation that preserves vertex types.

Edge and vertex classes are the orbits of per-tetrahedron vertex pairs /
vertices under the gluing identifications, computed by union-find.  The
decoration (horosphere rescaling) action on metrics acts along one gauge
vector per cusped vertex class; curvature and dihedral angles are
invariant under it.

Document format (JSON)::

    {"format": "hyptet-tri-v1", "tetrahedra": N,
     "gluings": [{"tet": i, "face": f, "to_tet": j, "to_face": g,
                  "vertex_map": [m1, m2, m3, m4]}, ...]}

with 0-based tetrahedron indices, 1-based vertex labels, ``vertex_map``
listing the images of vertices 1..4, and each gluing listed once per
unordered face pair.  Metrics and cone targets are serialized as
``{"edges": [keys], "values": [...]}`` where the key of an edge class is
its lexicographically least ``(tet, vertex-pair)`` slot, written
``"tet:pq"``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import tetra
from ._kernels import extended_angles_batch
from .errors import (
    BadPermutation,
    InadmissibleTarget,
    IndexOutOfRange,
    InvalidDocument,
    NotInterior,
    TypeViolation,
    UnpairedFace,
)

TRI_FORMAT = "hyptet-tri-v1"
ASSIGNMENT_FORMAT = "hyptet-assignment-v1"

PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
PAIR_INDEX = {pair: i for i, pair in enumerate(PAIRS)}
TWO_PI = 2.0 * np.pi


def face_vertices(face):
    return tuple(v for v in (1, 2, 3, 4) if v != face)


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x, p = p, self.parent[p]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self, items):
        groups = {}
        for it in items:
            groups.setdefault(self.find(it), []).append(it)
        return [sorted(groups[r]) for r in sorted(groups)]


@dataclass(frozen=True)
class Gluing:
    tet: int
    face: int
    to_tet: int
    to_face: int
    vertex_map: tuple

    def image(self, v):
        return self.vertex_map[v - 1]


class Triangulation:
    """Validated closed triangulation with derived edge/vertex classes."""

    def __init__(self, n_tetrahedra, gluings, edge_classes, vertex_classes):
        self.n_tetrahedra = n_tetrahedra
        self.gluings = tuple(gluings)
        self.edge_classes = [tuple(c) for c in edge_classes]
        self.vertex_classes = [tuple(c) for c in vertex_classes]
        self.edge_class_of = {
            slot: i for i, cls in enumerate(self.edge_classes) for slot in cls
        }
        self.vertex_class_of = {
            slot: i for i, cls in enumerate(self.vertex_classes) for slot in cls
        }
        self.n_edge_classes = len(self.edge_classes)
        self.is_ideal_class = [cls[0][1] != 1 for cls in self.vertex_classes]
        self.ideal_classes = [
            i for i, ideal in enumerate(self.is_ideal_class) if ideal
        ]
        #: number of (tetrahedron, vertex) corners carried by each class
        self.corners = np.array([len(c) for c in self.vertex_classes])
        #: per-tetrahedron slot -> edge class index
        self.slot_class = np.array(
            [
                [self.edge_class_of[(t, pair)] for pair in PAIRS]
                for t in range(n_tetrahedra)
            ],
            dtype=np.intp,
        )
        self.edge_keys = [
            f"{cls[0][0]}:{cls[0][1][0]}{cls[0][1][1]}" for cls in self.edge_classes
        ]
        # endpoints of each edge class as vertex classes (well defined:
        # gluings identify edges together with their endpoints)
        self.edge_endpoints = [
            (
                self.vertex_class_of[(cls[0][0], cls[0][1][0])],
                self.vertex_class_of[(cls[0][0], cls[0][1][1])],
            )
            for cls in self.edge_classes
        ]
        # gauge matrix: one column per cusped vertex class, entry = number
        # of endpoints of the edge class in that vertex class
        W = np.zeros((self.n_edge_classes, len(self.ideal_classes)))
        col = {v: j for j, v in enumerate(self.ideal_classes)}
        for e, (va, vb) in enumerate(self.edge_endpoints):
            if va in col:
                W[e, col[va]] += 1.0
            if vb in col:
                W[e, col[vb]] += 1.0
        self.gauge_matrix = W
        self._projector = None

    @property
    def gauge_projector(self):
        """Orthogonal projector onto the complement of the gauge subspace."""
        if self._projector is None:
            W = self.gauge_matrix
            self._projector = np.eye(self.n_edge_classes) - W @ np.linalg.pinv(
                W, rcond=1e-10
            )
        return self._projector

    def n_edge_slots(self):
        return 6 * self.n_tetrahedra

    def summary(self):
        n_ideal = len(self.ideal_classes)
        return {
            "tetrahedra": self.n_tetrahedra,
            "edge_classes": self.n_edge_classes,
            "vertex_classes": len(self.vertex_classes),
            "ideal_vertex_classes": n_ideal,
            "hyperideal_vertex_classes": len(self.vertex_classes) - n_ideal,
            "edge_slots": self.n_edge_slots(),
            "edge_keys": list(self.edge_keys),
        }


def _require_int(doc, key, where):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidDocument(f"{where}: '{key}' must be an integer")
    return v


def validate(doc):
    """Check a triangulation document and build the derived structure.

    Raises UnpairedFace / TypeViolation / BadPermutation / IndexOutOfRange
    naming the offending gluing, or InvalidDocument for structural issues.
    """
    if not isinstance(doc, dict):
        raise InvalidDocument("document must be a JSON object")
    if doc.get("format") != TRI_FORMAT:
        raise InvalidDocument(f"expected format '{TRI_FORMAT}'")
    n = _require_int(doc, "tetrahedra", "document")
    if n < 1:
        raise InvalidDocument("need at least one tetrahedron")
    raw = doc.get("gluings")
    if not isinstance(raw, list):
        raise InvalidDocument("'gluings' must be a list")

    gluings = []
    paired = {}
    uf_edges = _UnionFind()
    uf_verts = _UnionFind()
    for t in range(n):
        for pair in PAIRS:
            uf_edges.find((t, pair))
        for v in (1, 2, 3, 4):
            uf_verts.find((t, v))

    for idx, g in enumerate(raw):
        where = f"gluing #{idx}"
        if not isinstance(g, dict):
            raise InvalidDocument(f"{where}: must be an object")
        tet = _require_int(g, "tet", where)
        face = _require_int(g, "face", where)
        to_tet = _require_int(g, "to_tet", where)
        to_face = _require_int(g, "to_face", where)
        if not (0 <= tet < n and 0 <= to_tet < n):
            raise IndexOutOfRange(f"{where}: tetrahedron index out of range")
        if face not in (1, 2, 3, 4) or to_face not in (1, 2, 3, 4):
            raise IndexOutOfRange(f"{where}: face index must be in 1..4")
        vm = g.get("vertex_map")
        if (
            not isinstance(vm, list)
            or len(vm) != 4
            or any(isinstance(v, bool) or not isinstance(v, int) for v in vm)
            or sorted(vm) != [1, 2, 3, 4]
        ):
            raise BadPermutation(f"{where}: vertex_map must permute 1..4")
        vm = tuple(vm)
        if vm[face - 1] != to_face:
            raise BadPermutation(
                f"{where}: vertex_map must send the opposite vertex {face} "
                f"to {to_face}"
            )
        for v in face_vertices(face):
            if (v == 1) != (vm[v - 1] == 1):
                raise TypeViolation(
                    f"{where}: vertex {v} -> {vm[v - 1]} mixes truncated and "
                    "cusped vertices"
                )
        for side in ((tet, face), (to_tet, to_face)):
            if side in paired:
                raise UnpairedFace(
                    f"{where}: face {side} already glued"
                )
        if (tet, face) == (to_tet, to_face):
            raise UnpairedFace(f"{where}: face glued to itself")
        paired[(tet, face)] = (to_tet, to_face)
        paired[(to_tet, to_face)] = (tet, face)
        gluings.append(Gluing(tet, face, to_tet, to_face, vm))

        verts = face_vertices(face)
        for v in verts:
            uf_verts.union((tet, v), (to_tet, vm[v - 1]))
        for p, q in itertools.combinations(verts, 2):
            a, b = sorted((vm[p - 1], vm[q - 1]))
            uf_edges.union((tet, (p, q)), (to_tet, (a, b)))

    missing = [
        (t, f) for t in range(n) for f in (1, 2, 3, 4) if (t, f) not in paired
    ]
    if missing:
        raise UnpairedFace(f"unglued faces remain: {missing[:8]}")

    edge_classes = uf_edges.classes(
        [(t, pair) for t in range(n) for pair in PAIRS]
    )
    vertex_classes = uf_verts.classes(
        [(t, v) for t in range(n) for v in (1, 2, 3, 4)]
    )
    for cls in vertex_classes:
        kinds = {v == 1 for _, v in cls}
        if len(kinds) > 1:
            raise TypeViolation(f"vertex class {cls} mixes vertex types")
    return Triangulation(n, gluings, edge_classes, vertex_classes)


def triangulation_document(T):
    """Emit the JSON document describing ``T``."""
    return {
        "format": TRI_FORMAT,
        "tetrahedra": T.n_tetrahedra,
        "gluings": [
            {
                "tet": g.tet,
                "face": g.face,
                "to_tet": g.to_tet,
                "to_face": g.to_face,
                "vertex_map": list(g.vertex_map),
            }
            for g in T.gluings
        ],
    }


# ---------------------------------------------------------------------------
# values attached to a triangulation
# ---------------------------------------------------------------------------


def _edge_values_to_json(T, values):
    return {"edges": list(T.edge_keys), "values": [float(v) for v in values]}


def _edge_values_from_json(T, doc, what):
    if not isinstance(doc, dict) or "edges" not in doc or "values" not in doc:
        raise InvalidDocument(f"{what} document needs 'edges' and 'values'")
    keys = doc["edges"]
    vals = doc["values"]
    if sorted(keys) != sorted(T.edge_keys):
        raise InvalidDocument(
            f"{what} edge keys do not match the triangulation"
        )
    if len(vals) != len(keys):
        raise InvalidDocument(f"{what} values/edges length mismatch")
    index = {k: i for i, k in enumerate(T.edge_keys)}
    out = np.zeros(T.n_edge_classes)
    for k, v in zip(keys, vals):
        out[index[k]] = float(v)
    return out


@dataclass
class GeneralizedMetric:
    """Signed decorated length per edge class, as an array in class order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("metric values must be finite")

    def to_json(self, T):
        return _edge_values_to_json(T, self.values)

    @classmethod
    def from_json(cls, T, doc):
        return cls(_edge_values_from_json(T, doc, "metric"))


@dataclass
class ConeTarget:
    """Prescribed nonnegative cone angle per edge class."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cone target must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("cone target must be nonnegative")

    def to_json(self, T):
        return _edge_values_to_json(T, self.values)

    @classmethod
    def from_json(cls, T, doc):
        return cls(_edge_values_from_json(T, doc, "cone target"))


@dataclass
class AngleAssignment:
    """Per-tetrahedron slot angles, shape (n_tetrahedra, 6)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != 6:
            raise ValueError("assignment must have shape (n, 6)")

    def to_json(self):
        return {
            "format": ASSIGNMENT_FORMAT,
            "tetrahedra": int(self.values.shape[0]),
            "slots": list(tetra.SLOTS),
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or doc.get("format") != ASSIGNMENT_FORMAT:
            raise InvalidDocument(f"expected format '{ASSIGNMENT_FORMAT}'")
        return cls(np.array(doc["values"], dtype=np.float64))


def metric_lengths_per_tet(T, metric_values):
    """Gather per-tetrahedron six-vectors from edge-class values."""
    vals = np.asarray(metric_values, dtype=np.float64)
    return vals[T.slot_class]


def cone_angles(T, assignment):
    """Sum the slot angles over each edge class."""
    vals = assignment.values if isinstance(assignment, AngleAssignment) else assignment
    vals = np.asarray(vals, dtype=np.float64)
    sums = np.bincount(
        T.slot_class.ravel(), weights=vals.ravel(), minlength=T.n_edge_classes
    )
    return ConeTarget(sums)


def assignment_from_metric(T, metric):
    """Extended dihedral angles of the per-edge-class length vector."""
    vals = metric.values if isinstance(metric, GeneralizedMetric) else metric
    L = metric_lengths_per_tet(T, vals)
    return AngleAssignment(extended_angles_batch(np.ascontiguousarray(L)))


def curvature(T, metric):
    """2*pi minus the cone angle of the induced angles, per edge class."""
    k = cone_angles(T, assignment_from_metric(T, metric))
    return TWO_PI - k.values


def gauge_project(T, metric):
    """Project a metric onto the orthogonal complement of the gauge span."""
    vals = metric.values if isinstance(metric, GeneralizedMetric) else metric
    vals = np.asarray(vals, dtype=np.float64)
    return GeneralizedMetric(T.gauge_projector @ vals)


def admissibility_residual(T, cone_values):
    """Largest violation of the per-cusp-class counting identity.

    Any cone target realized by an angle assignment satisfies, for every
    cusped vertex class v, sum_e mult_v(e) * k(e) = pi * corners(v).
    """
    k = np.asarray(cone_values, dtype=np.float64)
    lhs = T.gauge_matrix.T @ k
    rhs = np.pi * T.corners[T.ideal_classes]
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)))


def admissible_cone_values(T, k, tol=1e-9):
    """The values of cone target ``k`` on ``T``, checked for admissibility.

    Raises ValueError when there is not one value per edge class, and
    InadmissibleTarget when the per-cusp counting identity fails by more
    than ``tol`` relative to the largest value, which makes the edge
    equations provably inconsistent.
    """
    k_vals = k.values if isinstance(k, ConeTarget) else np.asarray(k, dtype=np.float64)
    if k_vals.shape != (T.n_edge_classes,):
        raise ValueError("cone target length does not match edge classes")
    resid = admissibility_residual(T, k_vals)
    if resid > tol * max(1.0, float(np.max(np.abs(k_vals)))):
        raise InadmissibleTarget(
            f"cone target violates the counting identity by {resid:.3e}"
        )
    return k_vals


def double_document():
    """Two tetrahedra glued along all four faces by the identity maps."""
    return {
        "format": TRI_FORMAT,
        "tetrahedra": 2,
        "gluings": [
            {
                "tet": 0,
                "face": f,
                "to_tet": 1,
                "to_face": f,
                "vertex_map": [1, 2, 3, 4],
            }
            for f in (1, 2, 3, 4)
        ],
    }


def doubled_fixture(l0):
    """Double of one interior tetrahedron, with its exact optimization data.

    Returns ``(T, k, assignment)``: the two-tetrahedron closed
    triangulation, the cone angles of the symmetric metric built from
    ``l0`` on both copies, and the induced angle assignment -- which is
    the unique volume maximizer for that target.
    """
    arr = np.asarray(l0, dtype=np.float64).reshape(-1)
    if tetra.classify(arr) is not tetra.RegionLabel.INTERIOR:
        raise NotInterior("doubled fixture needs an interior length vector")
    T = validate(double_document())
    values = np.zeros(T.n_edge_classes)
    for pair, slot in PAIR_INDEX.items():
        values[T.edge_class_of[(0, pair)]] = arr[slot]
    metric = GeneralizedMetric(values)
    assignment = assignment_from_metric(T, metric)
    k = cone_angles(T, assignment)
    return T, k, assignment

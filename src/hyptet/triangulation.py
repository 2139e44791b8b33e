"""Triangulated compact pseudo 3-manifolds glued from 1-3 type tetrahedra.

Every tetrahedron has vertex 1 truncated and vertices 2, 3, 4 cusped.
Face ``f`` of a tetrahedron is the face opposite vertex ``f``: face 1 is
the cusp triangle {2,3,4}, faces 2..4 are the quadrilateral faces through
vertex 1.  A closed triangulation pairs every face slot with exactly one
other via a vertex permutation that preserves vertex types.

Slots and corners are numbered flat: slot ``(t, PAIRS[j])`` is ``6t + j``
and corner ``(t, v)`` is ``4t + v - 1``, so both numberings follow the
lexicographic order of the pairs; ``PAIRS`` is ``tetra.PAIRS``, and the
incidence arrays below derive from it.  ``validate`` keeps each checked
gluing as one row of the table ``Triangulation.gluings``, (G, 8) integers,
and reads the identified slot and corner pairs off it at once.  Edge and
vertex classes are the connected components of slots / corners under those
identifications, found by a numpy union-find.  ``Triangulation.slot_class``
(n, 6) and ``Triangulation.corner_class`` (n, 4) hold the class index of
each slot and corner, classes numbered in the order of their least member,
and ``Triangulation.edge_sums`` sums a per-slot array over each edge class.
The decoration (horosphere rescaling) action on metrics acts along one
gauge vector per cusped vertex class, the columns of the sparse
``Triangulation.gauge_matrix``; curvature and dihedral angles are
invariant under it.  ``Triangulation.a_eq`` holds the edge equations ``A``,
``Triangulation.factor`` factors every Newton step's system ``A X A^T``
and ``Triangulation.project`` is its projector onto the gauge complement.
These four are built on first use and cached on the triangulation, and
they alone load scipy: validation, classes, curvature and the
admissibility check run on numpy only, so a process that never solves
never loads scipy.

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

import copy
import itertools
import sys
from dataclasses import dataclass
from functools import cached_property

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
from .tetra import PAIRS

TRI_FORMAT = "hyptet-tri-v1"
ASSIGNMENT_FORMAT = "hyptet-assignment-v1"

PAIR_INDEX = {pair: i for i, pair in enumerate(PAIRS)}
#: corner index within a tetrahedron of the two endpoints of each slot
_PAIR_ENDS = np.array(PAIRS) - 1
#: row f - 1: the three vertices of face f, opposite vertex f, in order
_FACE_VERTS = np.array([[v for v in (1, 2, 3, 4) if v != f] for f in (1, 2, 3, 4)])
#: entry (p, q): the slot joining vertices p and q, given in either order
_SLOT_AT = np.zeros((5, 5), dtype=np.intp)
_SLOT_AT[tuple(_PAIR_ENDS.T + 1)] = np.arange(6)
_SLOT_AT += _SLOT_AT.T
TWO_PI = 2.0 * np.pi
#: the counting-identity violation a cone target may have, in radians
ADMISSIBILITY_TOL = 1e-8
#: SuperLU's options for ``Triangulation.factor``'s symmetric bordered
#: matrices: the stored order kept (which sets its SymmetricMode), and a
#: diagonal pivot preferred unless below 0.1 of its column's largest entry
_LU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1)
#: ``(C kron C)^T`` (``C = SLOT_COEF``), (9, 36): a 3x3 block ``X`` flattened
#: row by row, times it, is its slot block ``C X C^T`` flattened
_SLOT_KRON = np.ascontiguousarray(np.kron(tetra.SLOT_COEF, tetra.SLOT_COEF).T)


def _classes(size, pairs):
    """Class index of each of ``size`` items under the identified ``pairs``,
    classes numbered in the order of their least member.

    Union-find by hooking and shortcutting: while a pair's two roots differ,
    each root hooks to the least root paired with it, and then every item
    jumps to its root.  A pointer never rises, so each root is the least
    member of its class."""
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    root = np.arange(size)
    while not np.array_equal(a := root[i], b := root[j]):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := root[root], root):
            root = up
    return np.unique(root, return_inverse=True)[1]


class Triangulation:
    """Validated closed triangulation with derived edge/vertex classes."""

    def __init__(self, n_tetrahedra, gluings, slot_class, corner_class):
        self.n_tetrahedra = n_tetrahedra
        #: one row (tet, face, to_tet, to_face, m1, .., m4) per gluing, (G, 8)
        self.gluings = gluings
        #: per-tetrahedron slot -> edge class index, shape (n, 6)
        self.slot_class = slot_class
        #: per-tetrahedron corner -> vertex class index, shape (n, 4)
        self.corner_class = corner_class
        _, least = np.unique(slot_class, return_index=True)
        self.n_edge_classes = least.size
        tet, slot = np.divmod(least, 6)
        self.edge_keys = [
            f"{t}:{tetra.SLOTS[j]}" for t, j in zip(tet.tolist(), slot.tolist())
        ]
        #: number of (tetrahedron, vertex) corners carried by each class
        self.corners = np.bincount(corner_class.ravel())
        self.n_vertex_classes = self.corners.size
        _, least = np.unique(corner_class, return_index=True)
        # a class is cusped unless its least corner is a truncated one, 4t
        self.ideal_classes = np.flatnonzero(least % 4)
        #: vertex class of both endpoints of each edge class, shape (E, 2)
        #: (well defined: gluings identify edges together with their endpoints)
        self.edge_ends = corner_class[tet[:, None], _PAIR_ENDS[slot]]

    @cached_property
    def gauge_matrix(self):
        """Sparse CSR (E, cusps): one column per cusped vertex class, entry =
        number of endpoints of the edge class in that vertex class."""
        from scipy import sparse

        ends = self.edge_ends.ravel()
        edge = np.repeat(np.arange(self.n_edge_classes), 2)
        return sparse.csr_matrix(
            (np.ones(ends.size), (edge, ends)),
            shape=(self.n_edge_classes, self.n_vertex_classes),
        )[:, self.ideal_classes]

    @cached_property
    def factor(self):
        """Sparse LUs of ``[[A X A^T + s I, W], [W^T, 0]]``, ``A = a_eq``,
        ``W = gauge_matrix``: the edge system of every Newton step.

        ``factor(blocks, s=0.0)`` takes ``X`` as one 3x3 block per cell in the
        free chart, anything that broadcasts to (n, 3, 3), and returns
        ``r -> x`` for ``r`` of shape (E,) or (E, k); a singular LU raises
        ``LinAlgError``.  A block enters as its slot block ``C X C^T``
        (``C = SLOT_COEF``), formed here alone, by ``_SLOT_KRON``.  As
        ``W^T A = 0``, for ``W^T r = 0`` the solution of ``[r; 0]`` is the
        ``x`` with ``W^T x = 0`` and ``(A X A^T + s I) x = r``, unique for
        ``s > 0`` and, as ``rank A = E - cusps``, for positive definite ``X``.

        The pattern is one CSC matrix with int32 canonical indices, built
        here once per triangulation in one symmetric fill-reducing order
        (reverse Cuthill-McKee), so no LU orders it again; a call hands
        SuperLU a shallow copy carrying its own values, so no index array is
        checked again and no LU reads another's.  The zero border diagonal
        needs row exchanges, so pivoting is thresholded (``_LU_OPTIONS``),
        which keeps the fill near the pattern's own (George & Liu, *Computer
        Solution of Large Sparse Positive Definite Systems*).  The closure
        holds sizes and arrays, not ``self``, so a used triangulation is
        still freed by its reference count.
        """
        from scipy import sparse
        from scipy.sparse import csgraph, linalg

        W = self.gauge_matrix.tocoo()
        n, (E, m), we, wc = self.n_tetrahedra, W.shape, W.row, W.col
        N, sc, diag = E + m, self.slot_class, np.arange(E)
        # slot block entry (t, i, j) sits at (slot_class[t, i], slot_class[t, j])
        rows = np.concatenate([np.repeat(sc, 6, axis=1).ravel(), diag, we, E + wc])
        cols = np.concatenate([np.tile(sc, 6).ravel(), diag, E + wc, we])
        graph = sparse.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(N, N))
        order = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        # entry (i, j) of the bordered matrix is entry (at[i], at[j]) of the stored one
        at = np.empty(N, dtype=np.intp)
        at[order] = np.arange(N)
        keys, slot = np.unique(at[cols] * N + at[rows], return_inverse=True)
        ends = np.searchsorted(keys, np.arange(N + 1) * N)
        pattern = sparse.csc_matrix((np.ones(keys.size), keys % N, ends), shape=(N, N))
        pattern.has_canonical_format = True  # the keys are sorted and unique
        border = np.tile(W.data, 2)

        def factor(blocks, s=0.0):
            X = np.broadcast_to(blocks, (n, 3, 3)).reshape(n, 9)
            weights = np.concatenate([(X @ _SLOT_KRON).ravel(), np.full(E, s), border])
            matrix = copy.copy(pattern)
            matrix.data = np.bincount(slot, weights=weights, minlength=keys.size)
            try:
                lu = linalg.splu(matrix, **_LU_OPTIONS)
            except RuntimeError as exc:
                raise np.linalg.LinAlgError(str(exc)) from exc

            def solve(r):
                rhs = np.concatenate([r, np.zeros((m, *r.shape[1:]))])
                return lu.solve(rhs[order])[at[:E]]

            return solve

        return factor

    @cached_property
    def project(self):
        """``r -> r - W (W^T W)^-1 W^T r`` for ``r`` of shape (E,) or (E, k),
        the orthogonal projector onto the gauge complement: ``factor`` of
        ``X = 0`` with ``s = 1``, factored once per triangulation."""
        return self.factor(0.0, 1.0)

    @cached_property
    def a_eq(self):
        """The edge equations in the free chart, CSR (E, 3n): row ``e`` sums
        the ``SLOT_COEF`` rows of edge class ``e``'s slots at their cells' free
        angles.  It reads ``slot_class`` alone, so every cone target shares it."""
        from scipy import sparse

        n = self.n_tetrahedra
        rows = np.repeat(self.slot_class, 3, axis=1)
        cols = np.tile(3 * np.arange(n)[:, None] + np.arange(3), (1, 6))
        coef = np.broadcast_to(tetra.SLOT_COEF.ravel(), rows.shape)
        a_eq = sparse.csr_matrix(
            (coef.ravel(), (rows.ravel(), cols.ravel())),
            shape=(self.n_edge_classes, 3 * n),
        )
        a_eq.eliminate_zeros()
        return a_eq

    @cached_property
    def a_eq_t(self):
        """``a_eq.T``, a CSC view of ``a_eq``'s arrays, taken once: on a small
        triangulation a view costs more than a product with it."""
        return self.a_eq.T

    @cached_property
    def solve_eye(self):
        """``r -> (A A^T)^-1 r`` for ``r`` with ``W^T r = 0``, ``A = a_eq``:
        ``factor`` of ``X = I``, factored once per triangulation.  The primal
        projects onto the null space of ``A`` by ``g - A^T solve_eye(A g)``."""
        return self.factor(np.eye(3))

    @property
    def gauge_projector(self):
        """Orthogonal projector onto the complement of the gauge subspace."""
        return self.project(np.eye(self.n_edge_classes))

    def edge_sums(self, per_slot):
        """Sum a per-slot array of shape (n, 6) over each edge class."""
        return np.bincount(
            self.slot_class.ravel(),
            weights=np.ravel(per_slot),
            minlength=self.n_edge_classes,
        )

    def summary(self):
        n_ideal = self.ideal_classes.size
        return {
            "tetrahedra": self.n_tetrahedra,
            "edge_classes": self.n_edge_classes,
            "vertex_classes": self.n_vertex_classes,
            "ideal_vertex_classes": n_ideal,
            "hyperideal_vertex_classes": self.n_vertex_classes - n_ideal,
            "edge_slots": 6 * self.n_tetrahedra,
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

    rows = []
    paired = set()
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
        if vm[face - 1] != to_face:
            raise BadPermutation(
                f"{where}: vertex_map must send the opposite vertex {face} "
                f"to {to_face}"
            )
        # the face keeps every vertex type iff vm fixes vertex 1; the first
        # vertex of the face that changes type is 1, or on face 1 the one sent to 1
        if vm[0] != 1:
            v = vm.index(1) + 1 if face == 1 else 1
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
        paired |= {(tet, face), (to_tet, to_face)}
        rows.append((tet, face, to_tet, to_face, *vm))

    faces = ((t, f) for t in range(n) for f in (1, 2, 3, 4))
    # the first eight in order: the scan stops there, so it costs
    # O(len(gluings)) however large 'tetrahedra' is
    missing = list(itertools.islice((s for s in faces if s not in paired), 8))
    if missing:
        raise UnpairedFace(f"unglued faces remain: {missing}")

    # every face is glued once, so 4n = 2 len(rows) and each entry fits
    gluings = np.array(rows, dtype=np.intp).reshape(-1, 8)
    # both sides' tetrahedra and the face's vertices on each side, (2, G, 3)
    tets = gluings[:, [0, 2]].T[..., None]
    verts = _FACE_VERTS[gluings[:, 1] - 1]
    ends = np.stack([verts, np.take_along_axis(gluings[:, 4:], verts - 1, axis=1)])
    # the face's corners, and its edges: its vertex pairs in lexicographic order
    corners = 4 * tets + ends - 1
    slots = 6 * tets + _SLOT_AT[ends[..., [0, 0, 1]], ends[..., [1, 2, 2]]]
    # no vertex class mixes vertex types: each identified corner pair
    # passed the TypeViolation check above
    return Triangulation(
        n,
        gluings,
        _classes(6 * n, np.stack(slots, axis=-1)).reshape(n, 6),
        _classes(4 * n, np.stack(corners, axis=-1)).reshape(n, 4),
    )


def triangulation_document(T):
    """Emit the JSON document describing ``T``, one gluing per table row."""
    keys = ("tet", "face", "to_tet", "to_face")
    gluings = [dict(zip(keys, row), vertex_map=row[4:]) for row in T.gluings.tolist()]
    return {"format": TRI_FORMAT, "tetrahedra": T.n_tetrahedra, "gluings": gluings}


# ---------------------------------------------------------------------------
# values attached to a triangulation
# ---------------------------------------------------------------------------


def _edge_values_to_json(T, values):
    return {"edges": list(T.edge_keys), "values": [float(v) for v in values]}


def _numbers(vals):
    """Whether ``vals`` is a list of JSON numbers that a float holds: bools
    and integers beyond the largest float excluded."""
    return isinstance(vals, list) and all(
        isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max
        for v in vals
    )


def _edge_values_from_json(T, doc, what):
    if not isinstance(doc, dict) or "edges" not in doc or "values" not in doc:
        raise InvalidDocument(f"{what} document needs 'edges' and 'values'")
    keys = doc["edges"]
    vals = doc["values"]
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise InvalidDocument(f"{what} 'edges' must be a list of strings")
    if not _numbers(vals):
        raise InvalidDocument(f"{what} 'values' must be a list of numbers")
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
        if not np.all(np.isfinite(self.values)):
            raise ValueError("assignment values must be finite")

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
        rows = doc.get("values")
        if not isinstance(rows, list) or not all(
            _numbers(row) and len(row) == 6 for row in rows
        ):
            raise InvalidDocument("assignment 'values' must be rows of six numbers")
        if len(rows) != _require_int(doc, "tetrahedra", "assignment"):
            raise InvalidDocument("assignment 'tetrahedra' does not match its rows")
        return cls(np.array(rows, dtype=np.float64).reshape(-1, 6))


def cone_angles(T, assignment):
    """Sum the slot angles over each edge class."""
    return ConeTarget(T.edge_sums(AngleAssignment(_slot_rows(T, assignment)).values))


def _slot_rows(T, assignment):
    """``assignment`` (an ``AngleAssignment`` or an array) as a float array,
    which must hold one row of six slot angles per tetrahedron of ``T``."""
    A = np.asarray(getattr(assignment, "values", assignment), dtype=np.float64)
    if A.shape != (T.n_tetrahedra, 6):
        raise ValueError(
            f"assignment must have shape ({T.n_tetrahedra}, 6), got {A.shape}"
        )
    return A


def _edge_vector(T, values, what):
    """``values`` (a ``ConeTarget``, a ``GeneralizedMetric`` or an array) as
    a float array, which must hold one finite value per edge class: a NaN
    passes every comparison the solvers make by failing it."""
    x = np.asarray(getattr(values, "values", values), dtype=np.float64)
    if x.shape != (T.n_edge_classes,):
        raise ValueError(f"{what} length does not match edge classes")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    return x


def assignment_from_metric(T, metric):
    """Extended dihedral angles of the per-edge-class length vector."""
    L = _edge_vector(T, metric, "metric")[T.slot_class]
    return AngleAssignment(extended_angles_batch(L))


def curvature(T, metric):
    """2*pi minus the cone angle of the induced angles, per edge class."""
    return TWO_PI - T.edge_sums(assignment_from_metric(T, metric).values)


def gauge_project(T, metric):
    """Project a metric onto the orthogonal complement of the gauge span."""
    return GeneralizedMetric(T.project(_edge_vector(T, metric, "metric")))


def admissibility_residual(T, cone_values):
    """Largest violation of the per-cusp-class counting identity.

    Any cone target realized by an angle assignment satisfies, for every
    cusped vertex class v, sum_e mult_v(e) * k(e) = pi * corners(v).
    Raises ValueError unless ``cone_values`` holds one finite value per edge
    class.
    """
    k = _edge_vector(T, cone_values, "cone target")
    # summed at scale max(1, max|k|): values near the float limit overflow
    scale = max(1.0, float(np.max(np.abs(k))))
    # W^T k: each edge class adds its value at the class of each endpoint
    lhs = np.bincount(
        T.edge_ends.ravel(), weights=np.repeat(k / scale, 2),
        minlength=T.n_vertex_classes,
    )[T.ideal_classes]
    rhs = np.pi * T.corners[T.ideal_classes] / scale
    return scale * float(np.max(np.abs(lhs - rhs)))


def admissible_cone_values(T, k):
    """The values of cone target ``k`` on ``T``, checked for admissibility.

    Raises ValueError when there is not one value per edge class, and
    InadmissibleTarget when the per-cusp counting identity fails by more
    than ``ADMISSIBILITY_TOL`` radians, beyond the solvers' certificates; a
    few perturbed targets in (1e-8, ~1e-7] that could solve are refused too.
    """
    k_vals = _edge_vector(T, k, "cone target")
    resid = admissibility_residual(T, k_vals)
    if resid > ADMISSIBILITY_TOL:
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
    values[T.slot_class[0]] = arr
    metric = GeneralizedMetric(values)
    assignment = assignment_from_metric(T, metric)
    k = cone_angles(T, assignment)
    return T, k, assignment

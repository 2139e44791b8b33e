"""Gluing validation, derived classes, cone angles, curvature, gauge."""

import copy
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import (
    cover_document,
    disjoint_double_document,
    random_gluing_document,
    snake_document,
)

from hyptet import (
    AngleAssignment,
    ConeTarget,
    GeneralizedMetric,
    assignment_from_metric,
    cone_angles,
    curvature,
    double_document,
    doubled_fixture,
    extended_angles,
    gauge_project,
    triangulation_document,
    validate,
)
from hyptet.errors import (
    BadPermutation,
    IndexOutOfRange,
    InvalidDocument,
    NotInterior,
    TypeViolation,
    UnpairedFace,
)
from hyptet.selftest import sample_interior_angles
from hyptet.triangulation import (
    PAIR_INDEX,
    PAIRS,
    TRI_FORMAT,
    Triangulation,
    _classes,
    _require_int,
    admissibility_residual,
)

PI = math.pi


def _double():
    return validate(double_document())


class _UnionFind:
    """Tuple-keyed union-find: the reference for the class arrays."""

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


def _reference(T):
    """The derived fields of ``T``, rebuilt from its gluings by tuple
    union-find over ``(tet, vertex-pair)`` slots and ``(tet, vertex)``
    corners."""
    edges, verts = _UnionFind(), _UnionFind()
    for g in triangulation_document(T)["gluings"]:
        m = g["vertex_map"]
        face_verts = [v for v in (1, 2, 3, 4) if v != g["face"]]
        for v in face_verts:
            verts.union((g["tet"], v), (g["to_tet"], m[v - 1]))
        for p, q in itertools.combinations(face_verts, 2):
            a, b = sorted((m[p - 1], m[q - 1]))
            edges.union((g["tet"], (p, q)), (g["to_tet"], (a, b)))
    n = T.n_tetrahedra
    edge_classes = edges.classes([(t, pair) for t in range(n) for pair in PAIRS])
    vertex_classes = verts.classes(
        [(t, v) for t in range(n) for v in (1, 2, 3, 4)]
    )
    # type preservation per gluing keeps every vertex class to one type
    assert all(len({v == 1 for _, v in cls}) == 1 for cls in vertex_classes)
    edge_of = {x: i for i, cls in enumerate(edge_classes) for x in cls}
    vertex_of = {x: i for i, cls in enumerate(vertex_classes) for x in cls}
    ideal = [i for i, cls in enumerate(vertex_classes) if cls[0][1] != 1]
    col = {v: j for j, v in enumerate(ideal)}
    W = np.zeros((len(edge_classes), len(ideal)))
    for e, cls in enumerate(edge_classes):
        t, ends = cls[0]
        for v in ends:
            if vertex_of[(t, v)] in col:
                W[e, col[vertex_of[(t, v)]]] += 1.0
    keys = [f"{t}:{p}{q}" for (t, (p, q)), *_ in edge_classes]
    return {
        "slot_class": [[edge_of[(t, pair)] for pair in PAIRS] for t in range(n)],
        "corner_class": [[vertex_of[(t, v)] for v in (1, 2, 3, 4)] for t in range(n)],
        "edge_keys": keys,
        "corners": [len(cls) for cls in vertex_classes],
        "ideal_classes": ideal,
        "gauge_matrix": W,
        "summary": {
            "tetrahedra": n,
            "edge_classes": len(edge_classes),
            "vertex_classes": len(vertex_classes),
            "ideal_vertex_classes": len(ideal),
            "hyperideal_vertex_classes": len(vertex_classes) - len(ideal),
            "edge_slots": 6 * n,
            "edge_keys": keys,
        },
    }


def _assert_matches_reference(T):
    ref = _reference(T)
    assert T.slot_class.dtype == np.intp and T.corner_class.dtype == np.intp
    for name in ("slot_class", "corner_class", "corners", "ideal_classes"):
        assert getattr(T, name).tolist() == ref[name], name
    assert T.edge_keys == ref["edge_keys"]
    assert np.array_equal(T.gauge_matrix.toarray(), ref["gauge_matrix"])
    # held sparse: at most the two endpoints of each edge class are stored
    W = T.gauge_matrix
    assert W.format == "csr" and W.has_canonical_format
    assert W.nnz <= 2 * T.n_edge_classes
    assert T.summary() == ref["summary"]


def test_double_summary():
    T = _double()
    s = T.summary()
    assert s["tetrahedra"] == 2
    assert s["edge_classes"] == 6
    assert s["vertex_classes"] == 4
    assert s["ideal_vertex_classes"] == 3
    assert s["hyperideal_vertex_classes"] == 1
    assert s["edge_slots"] == 12
    assert s["edge_keys"] == ["0:12", "0:13", "0:14", "0:23", "0:24", "0:34"]


def test_double_corners():
    T = _double()
    assert all(T.corners[v] == 2 for v in range(T.n_vertex_classes))


def test_edge_slots_partition():
    # every slot sits in exactly one edge class, every class is nonempty
    T = _double()
    assert T.slot_class.shape == (T.n_tetrahedra, 6)
    assert np.array_equal(np.unique(T.slot_class), np.arange(T.n_edge_classes))


def test_self_glued_complex():
    from conftest import snake_document

    T = validate(snake_document())
    s = T.summary()
    assert s["edge_classes"] == 5
    assert s["vertex_classes"] == 3
    assert s["ideal_vertex_classes"] == 2
    # the merged cusp class carries four corners and meets one edge class
    # with multiplicity two
    assert sorted(T.corners.tolist()) == [2, 2, 4]
    assert np.max(T.gauge_matrix.toarray()) == 2.0
    assert T.slot_class.shape == (2, 6)
    assert np.array_equal(np.unique(T.slot_class), np.arange(5))
    # admissibility identity holds for any induced assignment
    a = assignment_from_metric(T, np.zeros(T.n_edge_classes))
    assert admissibility_residual(T, cone_angles(T, a).values) <= 1e-12


def test_document_round_trip():
    T = _double()
    T2 = validate(triangulation_document(T))
    assert T2.summary() == T.summary()


def test_validate_rejects_double_gluing():
    doc = double_document()
    doc["gluings"].append(copy.deepcopy(doc["gluings"][0]))
    with pytest.raises(UnpairedFace):
        validate(doc)


def test_validate_rejects_missing_face():
    doc = double_document()
    doc["gluings"] = doc["gluings"][:3]
    with pytest.raises(UnpairedFace):
        validate(doc)


def test_validate_rejects_type_mixing():
    doc = double_document()
    # map the truncated vertex of a quad face onto a cusped vertex
    doc["gluings"][1]["vertex_map"] = [3, 1, 2, 4]
    with pytest.raises((TypeViolation, BadPermutation)):
        validate(doc)


def test_validate_reports_type_violation():
    doc = double_document()
    # a valid permutation that sends the opposite vertex 2 to face 1, so the
    # truncated vertex 1 of the glued face lands on the cusped vertex 2
    doc["gluings"][1].update(face=2, to_face=1, vertex_map=[2, 1, 3, 4])
    with pytest.raises(TypeViolation) as err:
        validate(doc)
    assert str(err.value) == (
        "gluing #1: vertex 1 -> 2 mixes truncated and cusped vertices"
    )


def test_validate_rejects_bad_permutation():
    doc = double_document()
    doc["gluings"][0]["vertex_map"] = [1, 2, 2, 4]
    with pytest.raises(BadPermutation):
        validate(doc)
    doc = double_document()
    doc["gluings"][0]["vertex_map"] = [True, 2, 3, 4]
    with pytest.raises(BadPermutation):
        validate(doc)
    doc = double_document()
    doc["gluings"][0]["vertex_map"] = [2, 1, 3, 4]  # opposite vertex not fixed
    with pytest.raises((BadPermutation, TypeViolation)):
        validate(doc)


def test_validate_rejects_bad_indices():
    doc = double_document()
    doc["gluings"][0]["to_tet"] = 5
    with pytest.raises(IndexOutOfRange):
        validate(doc)
    doc = double_document()
    doc["gluings"][0]["face"] = 0
    with pytest.raises(IndexOutOfRange):
        validate(doc)


def test_validate_rejects_malformed_document():
    with pytest.raises(InvalidDocument):
        validate({"format": "something-else"})
    with pytest.raises(InvalidDocument):
        validate({"format": "hyptet-tri-v1", "tetrahedra": 0, "gluings": []})


def test_twisted_double_valid():
    # swap two cusped vertices across the cusp-triangle face
    doc = double_document()
    doc["gluings"][0]["vertex_map"] = [1, 3, 2, 4]
    T = validate(doc)
    assert T.n_tetrahedra == 2
    # no vertex class holds both a truncated and a cusped corner
    truncated = set(T.corner_class[:, 0].tolist())
    assert truncated.isdisjoint(T.corner_class[:, 1:].ravel().tolist())


def test_cone_angles_double_symmetric():
    T, k, assignment = doubled_fixture([1, 1, 1, 2, 2, 2])
    a0 = np.asarray(extended_angles([1, 1, 1, 2, 2, 2]))
    for pair, slot in PAIR_INDEX.items():
        e = T.slot_class[0, slot]
        assert k.values[e] == pytest.approx(2.0 * a0[slot], abs=1e-15)
    acos34 = math.acos(0.75)
    for pair in ((1, 2), (1, 3), (1, 4)):
        assert k.values[T.slot_class[0, PAIR_INDEX[pair]]] == pytest.approx(
            2.0 * acos34, abs=1e-14
        )
    assert assignment.values.shape == (2, 6)


def test_admissibility_identity_holds_for_assignments():
    rng = np.random.default_rng(30)
    T = _double()
    from hyptet.selftest import sample_interior_angles

    A = sample_interior_angles(rng, 2)
    k = cone_angles(T, AngleAssignment(A))
    assert admissibility_residual(T, k.values) <= 1e-12


@pytest.mark.parametrize(
    "values, message",
    [
        ([math.inf] * 6, "cone target must be finite"),
        ([math.nan] * 6, "cone target must be finite"),
        ([PI] * 5, "cone target length does not match edge classes"),
    ],
    ids=["inf", "nan", "short"],
)
def test_admissibility_residual_rejects_bad_vectors(values, message):
    with pytest.raises(ValueError, match=message):
        admissibility_residual(_double(), values)


def test_cone_target_requires_nonnegative():
    with pytest.raises(ValueError):
        ConeTarget(np.array([1.0, -0.1, 1, 1, 1, 1]))


def test_cone_angles_quarter_pi_assignment():
    T = _double()
    row = np.array([PI / 4] * 3 + [3 * PI / 8] * 3)
    k = cone_angles(T, AngleAssignment(np.stack([row, row])))
    for pair in ((1, 2), (1, 3), (1, 4)):
        assert k.values[T.slot_class[0, PAIR_INDEX[pair]]] == pytest.approx(
            PI / 2, abs=1e-15
        )


def test_curvature_forward_value():
    T, k, _ = doubled_fixture([0, 0, 0, 0, 0, 0])
    m = GeneralizedMetric(np.zeros(T.n_edge_classes))
    K = curvature(T, m)
    for pair in ((1, 2), (1, 3), (1, 4)):
        e = T.slot_class[0, PAIR_INDEX[pair]]
        assert K[e] == pytest.approx(2 * PI - 2 * math.acos(0.75), abs=1e-14)


def test_curvature_quarter_pi_metric():
    # the symmetric metric whose apex slots all read pi/4
    T = _double()
    s = math.log(math.sqrt(2.0) / 2.0)
    m = np.zeros(T.n_edge_classes)
    for pair in ((2, 3), (2, 4), (3, 4)):
        m[T.slot_class[0, PAIR_INDEX[pair]]] = s
    K = curvature(T, m)
    for pair in ((1, 2), (1, 3), (1, 4)):
        assert K[T.slot_class[0, PAIR_INDEX[pair]]] == pytest.approx(
            3 * PI / 2, abs=1e-12
        )


def test_curvature_gauge_invariance():
    rng = np.random.default_rng(31)
    T = _double()
    for _ in range(20):
        m = rng.uniform(-1, 1, T.n_edge_classes)
        shift = T.gauge_matrix @ rng.uniform(-1, 1, len(T.ideal_classes))
        K1 = curvature(T, m)
        K2 = curvature(T, m + shift)
        assert np.max(np.abs(K1 - K2)) <= 1e-12


def test_assignment_from_metric_degenerate_tet():
    T = _double()
    m = np.zeros(T.n_edge_classes)
    m[T.slot_class[0, PAIR_INDEX[(3, 4)]]] = 25.0  # deep in a degenerate region
    a = assignment_from_metric(T, m)
    assert tuple(a.values[0]) == (PI, 0.0, 0.0, 0.0, 0.0, PI)
    assert tuple(a.values[1]) == (PI, 0.0, 0.0, 0.0, 0.0, PI)


def test_gauge_project_properties():
    rng = np.random.default_rng(32)
    T = _double()
    for _ in range(20):
        m = rng.uniform(-2, 2, T.n_edge_classes)
        p = gauge_project(T, m).values
        p2 = gauge_project(T, p).values
        assert np.max(np.abs(p2 - p)) <= 1e-12
        shift = T.gauge_matrix @ rng.uniform(-1, 1, len(T.ideal_classes))
        q = gauge_project(T, m + shift).values
        assert np.max(np.abs(q - p)) <= 1e-12
    # a pure gauge vector projects to zero
    g = T.gauge_matrix.toarray()[:, 0]
    assert np.max(np.abs(gauge_project(T, g).values)) <= 1e-12


@pytest.mark.parametrize("size", [7, 5], ids=["longer", "shorter"])
@pytest.mark.parametrize("fn", [curvature, gauge_project], ids=["curvature", "project"])
def test_metric_of_wrong_length_is_rejected(fn, size):
    # one value per edge class: no tail dropped, no bare IndexError
    T = _double()
    assert T.n_edge_classes == 6
    with pytest.raises(ValueError, match="metric length does not match edge classes"):
        fn(T, np.zeros(size))


@pytest.mark.parametrize(
    "doc",
    [double_document, snake_document, lambda: cover_document(4)],
    ids=["double", "snake", "cover4"],
)
def test_gauge_projector_is_the_dense_projector(doc):
    # one bordered solve with the identity as its (E, E) right-hand side
    T = validate(doc())
    W = T.gauge_matrix.toarray()
    dense = np.eye(T.n_edge_classes) - W @ np.linalg.solve(W.T @ W, W.T)
    assert np.max(np.abs(T.gauge_projector - dense)) <= 1e-13


def test_doubled_fixture_requires_interior():
    with pytest.raises(NotInterior):
        doubled_fixture([0, 0, 0, 0, 0, 25.0])


def test_metric_json_round_trip():
    T = _double()
    m = GeneralizedMetric(np.arange(6, dtype=float) / 7.0)
    doc = m.to_json(T)
    back = GeneralizedMetric.from_json(T, doc)
    assert np.array_equal(back.values, m.values)
    doc_shuffled = {
        "edges": list(reversed(doc["edges"])),
        "values": list(reversed(doc["values"])),
    }
    back2 = GeneralizedMetric.from_json(T, doc_shuffled)
    assert np.array_equal(back2.values, m.values)
    with pytest.raises(InvalidDocument):
        GeneralizedMetric.from_json(T, {"edges": ["0:12"], "values": [1.0]})


def test_assignment_json_round_trip():
    T, k, assignment = doubled_fixture([0.2, -0.1, 0.0, 0.3, 0.1, -0.2])
    doc = assignment.to_json()
    back = AngleAssignment.from_json(doc)
    assert np.array_equal(back.values, assignment.values)


def _assignment_doc(**fields):
    doc = AngleAssignment(np.full((2, 6), 0.5)).to_json()
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "doc",
    [
        {"values": None},
        {"values": [[0.5] * 6, [0.5] * 5]},
        {"values": [[True, 1, 1, 1, 1, 1], [0.5] * 6]},
        {"values": [[0.5] * 6, ["0.5"] * 6]},
        {"values": [[0.5] * 6, [10**400] + [0.5] * 5]},
        {"values": {"0": [0.5] * 6}},
        {"tetrahedra": 3},
        {"tetrahedra": None},
    ],
    ids=["no-values", "ragged", "bool", "string", "huge-int", "not-a-list",
         "count", "no-count"],
)
def test_assignment_from_json_rejects_malformed(doc):
    with pytest.raises(InvalidDocument):
        AngleAssignment.from_json(_assignment_doc(**doc))


def test_classes_match_union_find_on_fixtures():
    from conftest import cover_document, disjoint_double_document, snake_document

    twisted = double_document()
    twisted["gluings"][0]["vertex_map"] = [1, 3, 2, 4]
    docs = [double_document(), twisted, snake_document(),
            disjoint_double_document()]
    docs += [cover_document(m) for m in (1, 2, 4, 16, 64, 512)]
    for doc in docs:
        _assert_matches_reference(validate(doc))


def test_classes_match_union_find_on_random_gluings():
    from conftest import random_gluing_document

    # n = 2, 4, ..., 40: the faces opposite vertex 1 pair up, so n is even
    for seed in range(300):
        doc = random_gluing_document(n=2 + 2 * (seed % 20), seed=seed)
        _assert_matches_reference(validate(doc))


def _components(size, pairs):
    """scipy's connected components renumbered by least member: the class
    numbering ``_classes`` keeps."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    graph = sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(size, size))
    _, labels = connected_components(graph, directed=False)
    _, least = np.unique(labels, return_index=True)
    return np.unique(least[labels], return_inverse=True)[1]


def _gluing_pairs(T):
    """The (slot, slot) and (corner, corner) pairs ``T``'s gluings identify,
    in the flat numbering."""
    slots, corners = [], []
    for g in triangulation_document(T)["gluings"]:
        t, u, m = g["tet"], g["to_tet"], g["vertex_map"]
        face_verts = [v for v in (1, 2, 3, 4) if v != g["face"]]
        corners += [(4 * t + v - 1, 4 * u + m[v - 1] - 1) for v in face_verts]
        slots += [
            (6 * t + PAIR_INDEX[p, q],
             6 * u + PAIR_INDEX[tuple(sorted((m[p - 1], m[q - 1])))])
            for p, q in itertools.combinations(face_verts, 2)
        ]
    return slots, corners


def _seeded_cover(m, seed):
    return cover_document(m, np.random.default_rng(seed).integers(0, m, 4).tolist())


@pytest.mark.parametrize(
    "doc",
    [lambda: _seeded_cover(4, 1), lambda: _seeded_cover(64, 2),
     lambda: _seeded_cover(512, 3), lambda: cover_document(512),
     lambda: random_gluing_document(16, 4), lambda: random_gluing_document(256, 5),
     lambda: random_gluing_document(4096, 6)],
    ids=["cover4", "cover64", "cover512", "cover512-plain", "random16",
         "random256", "random4096"],
)
def test_classes_match_connected_components(doc):
    # the numpy union-find labels every slot and corner as scipy's components
    # renumbered by least member do, and the residual's bincount sums W^T k
    T = validate(doc())
    n = T.n_tetrahedra
    slots, corners = _gluing_pairs(T)
    assert np.array_equal(_classes(6 * n, slots), _components(6 * n, slots))
    assert np.array_equal(T.slot_class.ravel(), _components(6 * n, slots))
    assert np.array_equal(T.corner_class.ravel(), _components(4 * n, corners))
    W = T.gauge_matrix
    # the sums are taken in another order: they agree to rounding, not bitwise
    ulp = np.finfo(np.float64).eps * float(W.sum(axis=0).max())
    rng = np.random.default_rng(n)
    admissible = cone_angles(T, sample_interior_angles(rng, n)).values
    for k in (admissible, rng.uniform(0.0, 2.0 * PI, T.n_edge_classes), 1e300 * admissible):
        scale = max(1.0, float(np.max(np.abs(k))))
        lhs = W.T @ (k / scale)
        want = scale * np.max(np.abs(lhs - PI * T.corners[T.ideal_classes] / scale))
        assert abs(admissibility_residual(T, k) - want) <= 4.0 * ulp * scale


def test_classes_on_a_long_shuffled_cycle():
    # a cycle through 3/4 of the items in shuffled order, the rest alone:
    # the hooks run many rounds, and the labels must still be scipy's
    rng = np.random.default_rng(12)
    size = 100_000
    cycle = rng.permutation(size)[: 3 * size // 4]
    pairs = np.stack([cycle, np.roll(cycle, 1)], axis=1)
    labels = _classes(size, pairs)
    assert np.array_equal(labels, _components(size, pairs))
    assert labels.max() == size // 4


def test_unglued_faces_reported_without_walking_every_tetrahedron():
    doc = {"format": "hyptet-tri-v1", "tetrahedra": 10**9, "gluings": []}
    start = time.perf_counter()
    with pytest.raises(UnpairedFace) as err:
        validate(doc)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (
        "unglued faces remain: [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), "
        "(1, 2), (1, 3), (1, 4)]"
    )
    doc = double_document()
    doc["tetrahedra"] = 3
    del doc["gluings"][1]
    with pytest.raises(UnpairedFace) as err:
        validate(doc)
    assert str(err.value) == (
        "unglued faces remain: [(0, 2), (1, 2), (2, 1), (2, 2), (2, 3), "
        "(2, 4)]"
    )


def _edited_double(**fields):
    return {**double_document(), **fields}


def _edge_doc(**fields):
    return {"edges": list(_double().edge_keys), "values": [0.5] * 6, **fields}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: validate([]), InvalidDocument, "document must be a JSON object"),
        (lambda: validate(_edited_double(gluings={})), InvalidDocument,
         "'gluings' must be a list"),
        (lambda: validate(_edited_double(gluings=[[0, 1, 1, 1]])), InvalidDocument,
         "gluing #0: must be an object"),
        (lambda: validate(_edited_double(gluings=[
            {"tet": 0, "face": 1, "to_tet": 0, "to_face": 1,
             "vertex_map": [1, 2, 3, 4]},
        ])), UnpairedFace, "gluing #0: face glued to itself"),
        (lambda: ConeTarget.from_json(_double(), [0.5] * 6), InvalidDocument,
         "cone target document needs 'edges' and 'values'"),
        (lambda: GeneralizedMetric.from_json(_double(), {"values": [0.5] * 6}),
         InvalidDocument, "metric document needs 'edges' and 'values'"),
        (lambda: ConeTarget.from_json(_double(), _edge_doc(values=[0.5] * 5)),
         InvalidDocument, "cone target values/edges length mismatch"),
        (lambda: GeneralizedMetric([0.0, math.inf]), ValueError,
         "metric values must be finite"),
        (lambda: ConeTarget([0.0, math.nan]), ValueError,
         "cone target must be finite"),
        (lambda: AngleAssignment(np.zeros((2, 5))), ValueError,
         "assignment must have shape (n, 6)"),
        (lambda: AngleAssignment.from_json({"format": "hyptet-tri-v1"}),
         InvalidDocument, "expected format 'hyptet-assignment-v1'"),
    ],
    ids=["not-an-object", "gluings-not-a-list", "gluing-not-an-object",
         "self-glued", "edge-doc-not-an-object", "edge-doc-no-edges",
         "length-mismatch", "metric-inf", "target-nan", "assignment-shape",
         "assignment-format"],
)
def test_each_input_check_raises_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# --- validate as a per-gluing loop over tuple tables, verbatim ---------------

_SLOT_OF = {pair[::d]: i for pair, i in PAIR_INDEX.items() for d in (1, -1)}
_FACES = {
    f: (tuple(v for v in (1, 2, 3, 4) if v != f),
        tuple((i, pair) for pair, i in PAIR_INDEX.items() if f not in pair))
    for f in (1, 2, 3, 4)
}


@dataclass(frozen=True)
class Gluing:
    tet: int
    face: int
    to_tet: int
    to_face: int
    vertex_map: tuple


def _loop_validate(doc):
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
    # identified (slot, slot) and (corner, corner) pairs, flat numbering
    slot_pairs = []
    corner_pairs = []
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
        verts, slots = _FACES[face]
        for v in verts:
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
        corner_pairs += [(4 * tet + v - 1, 4 * to_tet + vm[v - 1] - 1) for v in verts]
        slot_pairs += [
            (6 * tet + i, 6 * to_tet + _SLOT_OF[vm[p - 1], vm[q - 1]])
            for i, (p, q) in slots
        ]

    faces = ((t, f) for t in range(n) for f in (1, 2, 3, 4))
    # the first eight in order: the scan stops there, so it costs
    # O(len(gluings)) however large 'tetrahedra' is
    missing = list(itertools.islice((s for s in faces if s not in paired), 8))
    if missing:
        raise UnpairedFace(f"unglued faces remain: {missing}")

    # no vertex class mixes vertex types: each identified corner pair
    # passed the TypeViolation check above
    return Triangulation(
        n,
        gluings,
        _classes(6 * n, slot_pairs).reshape(n, 6),
        _classes(4 * n, corner_pairs).reshape(n, 4),
    )


def _loop_document(T):
    """Emit the JSON document describing ``T``: a gluing's fields are its keys."""
    gluings = [dict(vars(g), vertex_map=list(g.vertex_map)) for g in T.gluings]
    return {"format": TRI_FORMAT, "tetrahedra": T.n_tetrahedra, "gluings": gluings}


def _outcome(check, emit, doc):
    """The exception ``check(doc)`` raises, as its type and message, or the
    classes, summary and document of the triangulation it returns."""
    try:
        T = check(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return T.slot_class.tolist(), T.corner_class.tolist(), T.summary(), emit(T)


_FIELDS = ("tet", "face", "to_tet", "to_face")


def _mutant(rng, doc):
    """``doc`` with one to three seeded edits: wrong-typed, bool, float and
    out-of-range fields, non-permutations and type-mixing maps, duplicated,
    dropped, shuffled, reversed and self-glued gluings."""
    doc = copy.deepcopy(doc)
    gluings, n = doc["gluings"], doc["tetrahedra"]
    junk = ["1", None, 1.0, 2.5, True, False, [1], {}, -1, 0, 5, n, n + 1,
            10**20, -10**20]
    for _ in range(rng.integers(1, 4)):
        if not gluings:
            break
        i = int(rng.integers(len(gluings)))
        g = gluings[i]
        kind = int(rng.integers(10))
        if kind == 0 and isinstance(g, dict):  # one field
            key = _FIELDS[rng.integers(4)]
            value = junk + list(range(n)) + [1, 2, 3, 4]
            g[key] = value[rng.integers(len(value))]
            if rng.random() < 0.1:
                del g[key]
        elif kind == 1 and isinstance(g, dict):  # one entry of the map
            vm = g["vertex_map"] = list(g.get("vertex_map") or [1, 2, 3, 4])
            value = junk + [1, 2, 3, 4]
            vm[rng.integers(len(vm))] = value[rng.integers(len(value))]
        elif kind == 2 and isinstance(g, dict):  # a permutation, maybe mixing
            vm = [int(v) for v in rng.permutation([1, 2, 3, 4])]
            if rng.random() < 0.3:
                g["to_face"] = int(rng.integers(1, 5))
            face, to_face = g.get("face"), g.get("to_face")
            if rng.random() < 0.7 and face in (1, 2, 3, 4) and to_face in (1, 2, 3, 4):
                j = vm.index(to_face)
                vm[j], vm[face - 1] = vm[face - 1], vm[j]
            g["vertex_map"] = vm
        elif kind == 3:  # a map of the wrong shape
            shapes = [[1, 2, 3], [1, 2, 3, 4, 5], (1, 2, 3, 4), "1234", None,
                      [1, 2, 3, 3], [0, 1, 2, 3]]
            if isinstance(g, dict):
                g["vertex_map"] = shapes[rng.integers(len(shapes))]
            else:
                gluings[i] = shapes[rng.integers(len(shapes))]
        elif kind == 4:
            gluings.insert(int(rng.integers(len(gluings) + 1)), copy.deepcopy(g))
        elif kind == 5:
            del gluings[i]
        elif kind == 6:
            gluings[:] = [gluings[j] for j in rng.permutation(len(gluings))]
        elif kind == 7 and isinstance(g, dict):  # glued to itself
            g["to_tet"], g["to_face"] = g.get("tet"), g.get("face")
        elif kind == 8 and isinstance(g, dict):  # the same gluing, reversed
            vm = g.get("vertex_map")
            if isinstance(vm, list) and sorted(map(repr, vm)) == ["1", "2", "3", "4"]:
                inverse = [vm.index(v) + 1 for v in (1, 2, 3, 4)]
                gluings[i] = {"tet": g.get("to_tet"), "face": g.get("to_face"),
                              "to_tet": g.get("tet"), "to_face": g.get("face"),
                              "vertex_map": inverse}
        elif kind == 9:  # the document around the gluings
            value = [n - 1, n + 1, 10**30, 0, True, 2.0]
            doc["tetrahedra"] = value[rng.integers(len(value))]
            if rng.random() < 0.2:
                gluings[i] = [g]
    return doc


def test_validate_gives_the_loop_outcome_on_mutated_documents():
    # every document is checked in the loop's order, with its exception type
    # and message, and every valid one gives the loop's classes and document
    rng = np.random.default_rng(2900)
    builders = (lambda: cover_document(4), lambda: random_gluing_document(16, 0),
                snake_document, double_document, disjoint_double_document)
    seen = set()
    for doc in builders:
        for d in [doc()] + [_mutant(rng, doc()) for _ in range(400)]:
            want = _outcome(_loop_validate, _loop_document, d)
            assert _outcome(validate, triangulation_document, d) == want, d
            seen.add(want[0] if len(want) == 2 else None)
            if want[0] is TypeViolation and want[1].endswith("-> 1 mixes truncated "
                                                             "and cusped vertices"):
                seen.add("face 1")
    # the corpus reaches valid documents, every error type and a type-mixing
    # map of face 1, where the vertex named is not vertex 1
    assert seen == {None, InvalidDocument, IndexOutOfRange, BadPermutation,
                    TypeViolation, UnpairedFace, "face 1"}

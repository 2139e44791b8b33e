"""Gluing validation, derived classes, cone angles, curvature, gauge."""

import copy
import itertools
import math
import time

import numpy as np
import pytest
from conftest import cover_document, snake_document

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
from hyptet.triangulation import PAIR_INDEX, PAIRS, admissibility_residual

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
    for g in T.gluings:
        face_verts = [v for v in (1, 2, 3, 4) if v != g.face]
        for v in face_verts:
            verts.union((g.tet, v), (g.to_tet, g.vertex_map[v - 1]))
        for p, q in itertools.combinations(face_verts, 2):
            a, b = sorted((g.vertex_map[p - 1], g.vertex_map[q - 1]))
            edges.union((g.tet, (p, q)), (g.to_tet, (a, b)))
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
        {"values": {"0": [0.5] * 6}},
        {"tetrahedra": 3},
        {"tetrahedra": None},
    ],
    ids=["no-values", "ragged", "bool", "string", "not-a-list", "count",
         "no-count"],
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

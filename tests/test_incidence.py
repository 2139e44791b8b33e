"""The cell's slot tables and the vertex triangle, derived from one source each.

``tetra.PAIRS`` is the one literal incidence table; the hand-written tables
and formula bodies that it and ``tetra._dual_cosines`` replaced are kept here,
verbatim, as oracles.
"""

import itertools
import math

import numpy as np

from hyptet import tetra, triangulation
from hyptet.selftest import sample_interior_angles

PI = math.pi

# --- the hand-written tables, verbatim -------------------------------------

REF_SLOTS = ("12", "13", "14", "23", "24", "34")
REF_GAUGE_VECTORS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
    ]
)
REF_CUSP_SLOTS = np.array([[0, 3, 4], [1, 3, 5], [2, 4, 5]])
REF_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
REF_PAIR_INDEX = {pair: i for i, pair in enumerate(REF_PAIRS)}
REF_PAIR_ENDS = np.array(REF_PAIRS) - 1


def ref_face_vertices(face):
    return tuple(v for v in (1, 2, 3, 4) if v != face)


def ref_slot_pairs(face, vm):
    """The slot pairs a gluing of ``face`` by ``vm`` identifies, the walk of
    ``validate`` before its face tables."""
    out = []
    for p, q in itertools.combinations(ref_face_vertices(face), 2):
        a, b = sorted((vm[p - 1], vm[q - 1]))
        out.append((REF_PAIR_INDEX[p, q], REF_PAIR_INDEX[a, b]))
    return out


# --- the two dual cosine law bodies, verbatim -------------------------------


def ref_angles_to_lengths(a):
    a = np.asarray(a, dtype=np.float64).reshape(1, 6)
    c = np.cos(a[0, :3])
    s = np.sin(a[0, :3])

    def edge(i, j, k):
        return math.log(0.5 * ((c[k] + c[i] * c[j]) / (s[i] * s[j]) - 1.0))

    return (0.0, 0.0, 0.0, edge(0, 1, 2), edge(0, 2, 1), edge(1, 2, 0))


def ref_hyperbolic_triangle_sides(A, B, C):
    ang = np.array([float(A), float(B), float(C)])
    c = np.cos(ang)
    s = np.sin(ang)
    sides = tuple(
        float(np.arccosh((c[i] + c[j] * c[k]) / (s[j] * s[k])))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    return sides


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def test_cell_tables_derive_from_pairs():
    assert tetra.PAIRS == REF_PAIRS
    assert tetra.SLOTS == REF_SLOTS
    assert tetra.GAUGE_VECTORS.dtype == REF_GAUGE_VECTORS.dtype
    assert tetra.GAUGE_VECTORS.shape == REF_GAUGE_VECTORS.shape
    assert np.array_equal(tetra.GAUGE_VECTORS, REF_GAUGE_VECTORS)
    assert tetra._CUSP_SLOTS.dtype == REF_CUSP_SLOTS.dtype
    assert np.array_equal(tetra._CUSP_SLOTS, REF_CUSP_SLOTS)


def test_triangulation_tables_derive_from_pairs():
    assert triangulation.PAIRS is tetra.PAIRS
    assert triangulation.PAIR_INDEX == REF_PAIR_INDEX
    assert list(triangulation.PAIR_INDEX) == list(REF_PAIR_INDEX)
    assert triangulation._PAIR_ENDS.dtype == REF_PAIR_ENDS.dtype
    assert np.array_equal(triangulation._PAIR_ENDS, REF_PAIR_ENDS)


def test_face_tables_match_the_walk():
    faces, slot_of = triangulation._FACES, triangulation._SLOT_OF
    assert sorted(slot_of) == sorted(
        (p, q) for p in (1, 2, 3, 4) for q in (1, 2, 3, 4) if p != q
    )
    for face in (1, 2, 3, 4):
        verts, slots = faces[face]
        assert verts == ref_face_vertices(face)
        for vm in itertools.permutations((1, 2, 3, 4)):
            got = [(i, slot_of[vm[p - 1], vm[q - 1]]) for i, (p, q) in slots]
            assert got == ref_slot_pairs(face, vm)


def test_angles_to_lengths_is_the_reference_bitwise():
    rng = np.random.default_rng(2201)
    A = np.vstack([
        sample_interior_angles(rng, 10_000),
        sample_interior_angles(rng, 10_000, margin=1e-4),
    ])
    got = [tetra.angles_to_lengths(a) for a in A]
    want = [ref_angles_to_lengths(a) for a in A]
    assert bits(got) == bits(want)


def test_hyperbolic_triangle_sides_is_the_reference_bitwise():
    rng = np.random.default_rng(2202)
    ang = rng.uniform(1e-6, PI, (150_000, 3))
    ang = ang[ang.sum(axis=1) < PI][:20_000]
    assert ang.shape == (20_000, 3)
    got = [tetra.hyperbolic_triangle_sides(*row) for row in ang]
    want = [ref_hyperbolic_triangle_sides(*row) for row in ang]
    assert bits(got) == bits(want)

"""The cell's slot tables and the vertex triangle, derived from one source each.

``tetra.PAIRS`` is the one literal incidence table; the hand-written tables
it replaced are kept here, verbatim, as oracles.  The vertex triangle is one
law, the half-side law of ``tetra._vertex_lengths`` read through
sinh^2(t/2) = e^l (``_kernels.vertex_sides``, which ``theta_batch`` shares).
The dual cosine law bodies it replaced are kept verbatim too, as the accuracy
it must match or beat against a 60-digit reference.
"""

import itertools
import math

import numpy as np
import pytest

from hyptet import _kernels, tetra, triangulation
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


def ref_theta_t1(L):
    """The vertex-triangle columns as ``theta_batch`` wrote them inline."""
    l12, l13, l14, l23, l24, l34 = (L[:, j] for j in range(6))
    out = np.empty((L.shape[0], 3), dtype=np.float64)
    for col, a in ((0, l23 - l12 - l13), (1, l24 - l12 - l14), (2, l34 - l13 - l14)):
        small = a <= 35.0
        ex = np.exp(np.where(small, a, 0.0))
        exact = np.log1p(2.0 * ex + 2.0 * np.sqrt(ex * (1.0 + ex)))
        out[:, col] = np.where(small, exact, a + math.log(4.0))
    return out


def mp_vertex_triangle(angles, mpmath):
    """Sides t and lengths ln sinh^2(t/2) opposite three float angles, by the
    dual cosine law at 60 digits."""
    with mpmath.workdps(60):
        A = [mpmath.mpf(float(a)) for a in angles]
        x = [
            (mpmath.cos(A[i]) + mpmath.cos(A[j]) * mpmath.cos(A[k]))
            / (mpmath.sin(A[j]) * mpmath.sin(A[k]))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
        return [mpmath.acosh(v) for v in x], [mpmath.log((v - 1) / 2) for v in x]


def worst_error(got, want, unit):
    """Worst ``|g - w| / max(|w|, unit)``: relative, and absolute below ``unit``."""
    return max(float(abs(g - w) / max(abs(w), unit)) for gs, ws in zip(got, want)
               for g, w in zip(gs, ws))


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


def test_angles_to_lengths_is_no_worse_than_the_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2201)
    sets = (
        sample_interior_angles(rng, 10_000),
        sample_interior_angles(rng, 10_000, margin=1e-4),
    )
    for A in sets:
        A = A[:2_000]
        want = [mp_vertex_triangle(a[:3], mpmath)[1] for a in A]
        # the lengths opposite a12, a13, a14 are l34, l24, l23: slots 5, 4, 3
        got = [tetra.angles_to_lengths(a)[:2:-1] for a in A]
        ref = [ref_angles_to_lengths(a)[:2:-1] for a in A]
        # a decorated length has no distinguished zero (the decoration shifts
        # it), so below 1 its error is measured absolutely
        new = worst_error(got, want, 1.0)
        assert new <= worst_error(ref, want, 1.0) and new <= 4e-15


def test_hyperbolic_triangle_sides_is_no_worse_than_the_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2202)
    ang = rng.uniform(1e-6, PI, (150_000, 3))
    ang = ang[ang.sum(axis=1) < PI][:2_000]
    assert ang.shape == (2_000, 3)
    want = [mp_vertex_triangle(row, mpmath)[0] for row in ang]
    got = [tetra.hyperbolic_triangle_sides(*row) for row in ang]
    ref = [ref_hyperbolic_triangle_sides(*row) for row in ang]
    new = worst_error(got, want, 0.0)
    assert new <= worst_error(ref, want, 0.0) and new <= 4e-15


def test_theta_batch_vertex_sides_are_the_reference_bitwise():
    rng = np.random.default_rng(2203)
    L = np.vstack([rng.normal(0.0, s, (25_000, 6)) for s in (1.0, 10.0, 30.0, 100.0)])
    assert np.sum(L[:, 3] - L[:, 0] - L[:, 1] > 35.0) > 1_000  # the asymptote
    assert bits(_kernels.theta_batch(L)[:, :3]) == bits(ref_theta_t1(L))


def test_vertex_triangle_is_one_law_both_ways():
    # lengths -> sides (theta_batch at the apex gauge) and angles -> sides
    # (hyperbolic_triangle_sides) agree to the bit
    rng = np.random.default_rng(2204)
    A = np.vstack([
        sample_interior_angles(rng, 2_000),
        sample_interior_angles(rng, 2_000, margin=1e-4),
    ])
    L = np.array([tetra.angles_to_lengths(a) for a in A])
    # columns t1_23, t1_24, t1_34 are opposite a14, a13, a12
    via_lengths = _kernels.theta_batch(L)[:, 2::-1]
    via_angles = [tetra.hyperbolic_triangle_sides(*a[:3]) for a in A]
    assert bits(via_lengths) == bits(via_angles)

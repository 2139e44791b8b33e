"""Seeded problem generators for the benchmark.

The program under test only ever sees what these functions return: a
``hyptet-tri-v1`` triangulation document and a cone-target document
``{"edges": [...], "values": [...]}``, the same inputs ``hyptet maximize``
and ``hyptet solve`` read from disk.
"""

import numpy as np

from hyptet import selftest, triangulation

TRI_FORMAT = "hyptet-tri-v1"
#: face shifts of the cyclic cover: face f of tet i meets tet m + (i + s_f) mod m
COVER_SHIFTS = (0, 1, 0, 0)


def cover_document(m, shifts=COVER_SHIFTS):
    """m-fold cyclic cover of the doubled tetrahedron: 2m tets, identity maps."""
    gluings = [
        {
            "tet": i,
            "face": f,
            "to_tet": m + (i + shifts[f - 1]) % m,
            "to_face": f,
            "vertex_map": [1, 2, 3, 4],
        }
        for i in range(m)
        for f in (1, 2, 3, 4)
    ]
    return {"format": TRI_FORMAT, "tetrahedra": 2 * m, "gluings": gluings}


def random_gluing_document(n, rng):
    """Random closed, type-preserving gluing of ``n`` tetrahedra (n even).

    Faces opposite the truncated vertex pair up among themselves; the other
    3n faces pair up at random, each map fixing vertex 1 and choosing one of
    the two bijections of the remaining cusped vertices.
    """
    if n % 2:
        raise ValueError("a closed gluing needs an even number of tetrahedra")
    gluings = []
    order = rng.permutation(n)
    for a, b in zip(order[0::2], order[1::2]):
        cusps = [int(v) for v in rng.permutation([2, 3, 4])]
        gluings.append(
            {"tet": int(a), "face": 1, "to_tet": int(b), "to_face": 1,
             "vertex_map": [1] + cusps}
        )
    faces = [(t, f) for t in range(n) for f in (2, 3, 4)]
    order = rng.permutation(len(faces))
    for i, j in zip(order[0::2], order[1::2]):
        (t, f), (u, h) = faces[i], faces[j]
        images = [v for v in (2, 3, 4) if v != h]
        if rng.random() < 0.5:
            images.reverse()
        vertex_map = [1, 0, 0, 0]
        vertex_map[f - 1] = h
        for v, w in zip([v for v in (2, 3, 4) if v != f], images):
            vertex_map[v - 1] = w
        gluings.append(
            {"tet": int(t), "face": f, "to_tet": int(u), "to_face": h,
             "vertex_map": vertex_map}
        )
    return {"format": TRI_FORMAT, "tetrahedra": n, "gluings": gluings}


def target_document(doc, rng):
    """Cone angles of a random interior angle assignment, as a document.

    The assignment is a strictly interior point of the polytope for its own
    cone angles, so the target is admissible with a feasible interior.
    """
    T = triangulation.validate(doc)
    angles = selftest.sample_interior_angles(rng, T.n_tetrahedra)
    return triangulation.cone_angles(T, angles).to_json(T)

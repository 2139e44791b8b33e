"""Shared builders for the test suite."""

import numpy as np


def snake_document():
    """Two tetrahedra, each self-glued across its quadrilateral faces.

    Valid closed pseudo-manifold with a merged cusp class (so some edge
    classes meet it with multiplicity two) and edge classes containing two
    slots of the same tetrahedron.
    """
    return {
        "format": "hyptet-tri-v1",
        "tetrahedra": 2,
        "gluings": [
            {"tet": 0, "face": 2, "to_tet": 0, "to_face": 3,
             "vertex_map": [1, 3, 2, 4]},
            {"tet": 1, "face": 2, "to_tet": 1, "to_face": 3,
             "vertex_map": [1, 3, 2, 4]},
            {"tet": 0, "face": 1, "to_tet": 1, "to_face": 1,
             "vertex_map": [1, 2, 3, 4]},
            {"tet": 0, "face": 4, "to_tet": 1, "to_face": 4,
             "vertex_map": [1, 2, 3, 4]},
        ],
    }


def cover_document(m, shifts=(0, 1, 0, 0)):
    """m-fold cyclic cover of the doubled tetrahedron, 2m tetrahedra.

    Face f of tet i is glued by the identity map to face f of tet
    m + (i + s_f) mod m.
    """
    return {
        "format": "hyptet-tri-v1",
        "tetrahedra": 2 * m,
        "gluings": [
            {"tet": i, "face": f, "to_tet": m + (i + shifts[f - 1]) % m,
             "to_face": f, "vertex_map": [1, 2, 3, 4]}
            for i in range(m)
            for f in (1, 2, 3, 4)
        ],
    }


def disjoint_double_document():
    """Disjoint union of two doubled tetrahedra: four cells, two components."""
    from hyptet.triangulation import double_document

    doc = double_document()
    doc["tetrahedra"] = 4
    doc["gluings"] += [
        dict(g, tet=g["tet"] + 2, to_tet=g["to_tet"] + 2) for g in doc["gluings"]
    ]
    return doc


def random_gluing_document(n=16, seed=0):
    """Seeded random closed, type-preserving gluing of ``n`` tetrahedra.

    The faces opposite the truncated vertex pair up among themselves under
    a random permutation of the cusped vertices; the other 3n faces pair up
    at random, each map fixing vertex 1 and taking one of the two
    bijections of the remaining cusped vertices.
    """
    rng = np.random.default_rng(seed)
    gluings = []
    tets = rng.permutation(n)
    for a, b in zip(tets[0::2], tets[1::2]):
        gluings.append(
            {"tet": int(a), "face": 1, "to_tet": int(b), "to_face": 1,
             "vertex_map": [1] + [int(v) for v in rng.permutation([2, 3, 4])]}
        )
    faces = [(t, f) for t in range(n) for f in (2, 3, 4)]
    pairs = rng.permutation(len(faces)).reshape(-1, 2)
    for (t, f), (u, h) in ((faces[i], faces[j]) for i, j in pairs):
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
    return {"format": "hyptet-tri-v1", "tetrahedra": n, "gluings": gluings}

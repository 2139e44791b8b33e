"""Shared builders for the test suite."""


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

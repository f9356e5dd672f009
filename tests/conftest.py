import json

import pytest

from loopspace.simplicial import (
    boundary_simplex,
    sphere_quotient,
    wedge_of_circles,
)


@pytest.fixture(scope="session")
def fixtures():
    """The five standard complexes, edge-inverted, keyed by short name."""
    return {
        "sphere2": sphere_quotient(2).z_extension(),
        "sphere3": sphere_quotient(3).z_extension(),
        "bd2": boundary_simplex(2).z_extension(),
        "bd3": boundary_simplex(3).z_extension(),
        "wedge2": wedge_of_circles(2).z_extension(),
    }


@pytest.fixture
def non_simplicial(tmp_path):
    """The 2-simplex 012 with face table (12, 12, 01): d1 d2 != d1 d1."""
    def gen(name, faces):
        return {"name": name, "dim": len(faces) - 1,
                "faces": [{"degeneracies": [], "generator": f} for f in faces]}

    doc = {"name": "bad-triangle", "vertices": ["0", "1", "2"], "basepoint": "0",
           "generators": [gen("01", ["1", "0"]), gen("02", ["2", "0"]),
                          gen("12", ["2", "1"]), gen("012", ["12", "12", "01"])]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)

"""File format round trips and validation errors."""

import pytest

from fingeo.errors import FileFormatError
from fingeo.geometry import TableGeometry
from fingeo.gf import gf, hom_from_power
from fingeo.projective import SemilinearMap, build_pg
from fingeo.serialize import (
    dump_json,
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    load_json,
    map_pairs_from_dict,
    map_pairs_to_dict,
    save_geometry,
    semilinear_from_dict,
    semilinear_to_dict,
)


def test_embedded_geometry_round_trip(tmp_path, elliptic_33):
    path = tmp_path / "g.json"
    save_geometry(elliptic_33, path)
    back = load_geometry(path)
    assert back.vectors == elliptic_33.vectors
    assert back.field is elliptic_33.field


def test_full_pg_round_trip(tmp_path, pg32):
    path = tmp_path / "pg.json"
    save_geometry(pg32, path)
    back = load_geometry(path)
    assert back is pg32  # full point set resolves to the interned space


def test_points_are_normalized_and_sorted():
    d = {"field": "gf(3)", "ambient_dim": 3, "points": [[0, 0, 0, 2], [0, 0, 2, 1]]}
    G = geometry_from_dict(d)
    assert G.vectors == ((0, 0, 0, 1), (0, 0, 1, 2))


def test_abstract_geometry_round_trip(tmp_path):
    G = TableGeometry(4, [0, 1, 2, 4, 8, 0b0111, 0b1111])
    d = geometry_to_dict(G)
    back = geometry_from_dict(d)
    assert back.raw_table == G.raw_table


def test_table_quotient_round_trip(tmp_path):
    # a quotient of a table is a table on the parent flats through E
    Q = TableGeometry(15, build_pg(3, 2).flats()).point_quotient(0)
    path = tmp_path / "q.json"
    save_geometry(Q, path)
    back = load_geometry(path)
    assert isinstance(back, TableGeometry)
    assert back.n_points == Q.n_points == 7
    assert back.raw_table == Q.raw_table
    assert back.flats() == Q.flats()


def test_bad_geometry_files():
    with pytest.raises(FileFormatError):
        geometry_from_dict({"points": 3})
    with pytest.raises(FileFormatError):
        geometry_from_dict({"field": "gf(4)", "ambient_dim": 2, "points": [[0, 0, 0]]})
    with pytest.raises(FileFormatError):
        geometry_from_dict({"field": "gf(4)", "ambient_dim": 2, "points": [[1, 9, 0]]})
    with pytest.raises(FileFormatError):
        geometry_from_dict({"field": "gf(4)", "ambient_dim": 2, "points": [[1, 0]]})
    with pytest.raises(FileFormatError):
        geometry_from_dict({"points": 3, "flats": [[0, 7]]})


def test_semilinear_round_trip(tmp_path):
    K = gf(4)
    phi = SemilinearMap(hom_from_power(K, K, 1), ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)))
    path = tmp_path / "phi.json"
    dump_json(semilinear_to_dict(phi), path)
    back = semilinear_from_dict(load_json(path))
    assert back.matrix == phi.matrix
    assert back.sigma.table == phi.sigma.table


def test_semilinear_cross_field():
    d = {
        "sigma": {"power": 1},
        "matrix": [[1, 0], [0, 1]],
        "source": "gf(4)",
        "target": "gf(16)",
    }
    phi = semilinear_from_dict(d)
    assert phi.source_field is gf(4) and phi.target_field is gf(16)
    assert phi.sigma.frobenius_power == 1


def test_semilinear_bad_entries():
    with pytest.raises(FileFormatError):
        semilinear_from_dict(
            {"sigma": {"power": 0}, "matrix": [[9]], "source": "gf(4)", "target": "gf(4)"}
        )
    with pytest.raises(FileFormatError):
        semilinear_from_dict(
            {"sigma": {"power": 0}, "matrix": [[1], [1, 0]], "source": "gf(2)", "target": "gf(2)"}
        )


@pytest.mark.parametrize(
    "key, value",
    [
        ("source", 5),
        ("source", None),
        ("target", True),
        ("target", []),
        ("target", {}),
        ("matrix", 5),
        ("matrix", [5]),
        ("matrix", "x"),
        ("sigma", 5),
        ("sigma", {"power": 2.9}),
        ("sigma", {"power": True}),
        ("sigma", {"power": "1"}),
    ],
)
def test_semilinear_wrong_types(key, value):
    d = {"sigma": {"power": 0}, "matrix": [[1, 0], [0, 1]], "source": "gf(4)", "target": "gf(4)"}
    d[key] = value
    with pytest.raises(FileFormatError):
        semilinear_from_dict(d)


def test_map_pairs_round_trip():
    pairs = [((1, 0, 0, 0), (1, 1, 0, 0)), ((0, 1, 0, 0), (0, 1, 0, 0))]
    d = map_pairs_to_dict(pairs, target=gf(4))
    back, tgt = map_pairs_from_dict(d)
    assert back == pairs
    assert tgt is gf(4)
    d2 = map_pairs_to_dict(pairs)
    back2, tgt2 = map_pairs_from_dict(d2)
    assert tgt2 is None

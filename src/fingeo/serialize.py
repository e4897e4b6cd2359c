"""JSON file formats: geometries (embedded and abstract), semilinear maps,
point-pair map files, and reconstruction results.

Embedded geometry:   {"field": "gf(q)", "ambient_dim": n, "points": [[c0..cn], ...]}
Abstract geometry:   {"points": N, "flats": [[indices], ...]}, N <= PG_MAX_POINTS
Semilinear map:      {"sigma": {"power": i}, "matrix": [[..]],
                      "source": "gf(q)", "target": "gf(q')"}
Map file:            {"pairs": [[[src coords], [dst coords]], ...]}

Coordinates are canonical integer encodings of field elements.  Loaders
normalize and sort embedded points into the ambient canonical order so that
re-serialization is stable.
"""

from __future__ import annotations

import json

from . import linalg
from .errors import FileFormatError, SizeLimit
from .geometry import CoordGeometry, TableGeometry, bits_of, mask_of, subgeometry
from .gf import GF, hom_from_power, parse_field_name
from .projective import PG_MAX_POINTS, SemilinearMap, build_pg


def _fail(msg):
    raise FileFormatError(msg)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"{path}: {exc}")


def dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _fail(f"{path}: {exc}")
    return text


def field_from_name(text):
    """parse_field_name with its errors reported as FileFormatError."""
    try:
        return parse_field_name(text)
    except ValueError as exc:
        _fail(str(exc))


def check_entries(row, K: GF, what):
    """Every coordinate of row must encode an element of K."""
    if not all(type(c) is int and 0 <= c < K.q for c in row):
        _fail(f"{what} {list(row)} has entries outside {K.name}")


# -- geometries -----------------------------------------------------------------


def geometry_to_dict(G) -> dict:
    if isinstance(G, CoordGeometry):
        return {
            "field": G.field.name,
            "ambient_dim": G.ncoords - 1,
            "points": [list(v) for v in G.vectors],
        }
    if isinstance(G, TableGeometry):
        return {
            "points": G.n_points,
            "flats": [list(bits_of(m)) for m in G.raw_table],
        }
    _fail(f"cannot serialize {type(G).__name__}")


def geometry_from_dict(data) -> object:
    if not isinstance(data, dict):
        _fail("geometry file must hold a JSON object")
    if "field" in data:
        try:
            K = field_from_name(data["field"])
            n = data["ambient_dim"]
            raw_points = data["points"]
        except (KeyError, ValueError, TypeError) as exc:
            _fail(f"bad embedded geometry: {exc}")
        if not isinstance(raw_points, list):
            _fail("'points' must be a list of coordinate rows")
        if type(n) is not int or not 1 <= n <= 5:
            _fail(f"ambient_dim {n!r} is not an integer in 1..5")
        P = build_pg(n, K.q)
        indices = set()
        for row in raw_points:
            if not isinstance(row, list) or len(row) != n + 1:
                _fail(f"point {row!r} is not a coordinate row of length {n + 1}")
            check_entries(row, K, "point")
            v = linalg.normalize_vec(K, tuple(row))
            if v is None:
                _fail(f"point {row!r} is the zero vector")
            indices.add(P.point_index(v))
        if not indices:
            _fail("embedded geometry has no points")
        if len(indices) == P.n_points:
            return P
        return subgeometry(P, sorted(indices))
    if "flats" in data:
        try:
            n = data["points"]
            flats = data["flats"]
        except KeyError as exc:
            _fail(f"bad abstract geometry: {exc}")
        if type(n) is not int or n < 1:
            _fail(f"abstract geometry needs a positive integer point count, not {n!r}")
        if n > PG_MAX_POINTS:
            raise SizeLimit(f"abstract geometry has {n} points; beyond desk scale ({PG_MAX_POINTS})")
        if not isinstance(flats, list):
            _fail("'flats' must be a list of index lists")
        for f in flats:
            if not (isinstance(f, list) and all(type(i) is int and 0 <= i < n for i in f)):
                _fail(f"flat {f!r} is not a list of indices in 0..{n - 1}")
        return TableGeometry(n, [mask_of(f) for f in flats])
    _fail("geometry file needs either a 'field' or a 'flats' key")


def save_geometry(G, path):
    dump_json(geometry_to_dict(G), path)


def load_geometry(path):
    return geometry_from_dict(load_json(path))


# -- semilinear maps -------------------------------------------------------------


def semilinear_to_dict(phi: SemilinearMap) -> dict:
    return {
        "sigma": {"power": phi.sigma.frobenius_power},
        "matrix": [list(r) for r in phi.matrix],
        "source": phi.source_field.name,
        "target": phi.target_field.name,
    }


def semilinear_from_dict(data) -> SemilinearMap:
    try:
        K = field_from_name(data["source"])
        K2 = field_from_name(data["target"])
        power = data["sigma"]["power"]
        rows = data["matrix"]
    except (KeyError, ValueError, TypeError) as exc:
        _fail(f"bad semilinear map file: {exc}")
    if type(power) is not int:
        _fail(f"sigma power {power!r} is not an integer")
    if not (isinstance(rows, list) and rows):
        _fail("matrix must be a non-empty list of rows")
    if not all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows):
        _fail("matrix rows are not lists of one length")
    for r in rows:
        check_entries(r, K2, "matrix row")
    sigma = hom_from_power(K, K2, power)
    return SemilinearMap(sigma, tuple(tuple(r) for r in rows))


# -- point-map files ----------------------------------------------------------------


def map_pairs_to_dict(pairs, target: GF | None = None) -> dict:
    out = {"pairs": [[list(s), list(d)] for s, d in pairs]}
    if target is not None:
        out["target"] = target.name
    return out


def map_pairs_from_dict(data):
    """Returns (pairs, target_field_or_None); target entries are checked
    against the target field the file names."""
    try:
        pairs = [(tuple(s), tuple(d)) for s, d in data["pairs"]]
    except (KeyError, ValueError, TypeError) as exc:
        _fail(f"bad map file: {exc}")
    target = None
    if "target" in data:
        target = field_from_name(data["target"])
        for _, d in pairs:
            check_entries(d, target, "target point")
    return pairs, target


def save_map_pairs(pairs, path, target=None):
    dump_json(map_pairs_to_dict(pairs, target), path)


def load_map_pairs(path):
    return map_pairs_from_dict(load_json(path))


def result_to_dict(result) -> dict:
    out = semilinear_to_dict(result.phi)
    out["exceptional"] = [list(r) for r in result.exceptional.rows]
    out["certificate"] = dict(result.certificate)
    out["certificate"]["base_points"] = [list(map(int, b)) for b in result.certificate["base_points"]]
    return out

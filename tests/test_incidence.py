"""The incidence index against its definitions, on every backend: a full
PG, a subgeometry, a coordinate quotient, the quotient of a table, and
tables, among them two that are not geometries.  On the tables, which
sweep every point, the locally projective witnesses are compared with the
per-point filter of all flats that came before the one-pass grouping."""

import random

import pytest

from fingeo.classify import is_locally_projective
from fingeo.geometry import CoordGeometry, CoordQuotient, QuotientGeometry, TableGeometry, mask_of, subgeometry
from fingeo.projective import build_pg
from quotient_routes import ref_local_dim_formula_at


def pg32_table():
    return TableGeometry(15, build_pg(3, 2).flats())


def random_sub():
    P = build_pg(3, 3)
    rng = random.Random(7)
    return subgeometry(P, rng.sample(range(P.n_points), 25))


CASES = {
    "pg33": (lambda: build_pg(3, 3), CoordGeometry),
    "subgeometry": (random_sub, CoordGeometry),
    "coord-quotient": (lambda: build_pg(4, 2).point_quotient(3), CoordQuotient),
    "table-quotient": (lambda: pg32_table().point_quotient(0), QuotientGeometry),
    "table": (pg32_table, TableGeometry),
    # both lines hold the pair 0, 1
    "shared-pair": (lambda: TableGeometry(4, [0, 0b0011, 0b0111, 0b1011, 0b1111]), TableGeometry),
    # the line {0, 1, 3} meets the plane {0, 1, 2, 4} twice and is not in it
    "pair-off-plane": (
        lambda: TableGeometry(5, [0, 0b00011, 0b00111, 0b01011, 0b10111, 0b11111]),
        TableGeometry,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_index_matches_definitions(case):
    build, backend = CASES[case]
    G = build()
    assert isinstance(G, backend)
    inc = G.incidence
    lines, planes = G.lines(), G.planes()
    assert inc.lines == lines and inc.planes == planes
    assert len(planes) > 0
    for x in range(G.n_points):
        assert G.lines_through(x) == tuple(m for m in lines if m >> x & 1)
        assert inc.point_lines[x] == mask_of(i for i, m in enumerate(lines) if m >> x & 1)
    for p, pm in enumerate(planes):
        assert inc.plane_lines[p] == mask_of(i for i, m in enumerate(lines) if m & ~pm == 0)
    for i, m in enumerate(lines):
        assert inc.line_planes[i] == mask_of(p for p, pm in enumerate(planes) if m & ~pm == 0)
    for a in range(G.n_points):
        for b in range(G.n_points):
            first = next((m for m in lines if m >> a & 1 and m >> b & 1), None)
            assert inc.line_of(a, b) == first


def test_table_planes_drop_lines_met_twice():
    """A line meeting a plane of a table in two points need not lie in it."""
    G = CASES["pair-off-plane"][0]()
    line, plane = 0b01011, 0b10111
    assert (line & plane).bit_count() == 2
    assert not G.incidence.plane_lines[G.planes().index(plane)] >> G.lines().index(line) & 1


def test_index_is_built_once(pg32):
    assert pg32.incidence is pg32.incidence
    assert pg32.lines_through(0) is pg32.lines_through(0)


@pytest.mark.parametrize("case", [c for c, (_, backend) in CASES.items() if not issubclass(backend, CoordGeometry)])
def test_locally_projective_matches_per_point_filter(case):
    """A table sweeps every point: the flats through each, gathered in one
    pass, name the pair that filtering all flats at that point names."""
    G = CASES[case][0]()
    want = [
        {"point": x, "dim_formula_witness": w}
        for x in range(G.n_points)
        if (w := ref_local_dim_formula_at(G, x)) is not None
    ]
    assert is_locally_projective(G).witnesses == want

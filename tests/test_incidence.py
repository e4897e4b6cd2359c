"""The incidence index against its definitions, on every backend: a full
PG, a subgeometry, a coordinate quotient, the quotient of a table, and
tables, among them two hand-built ones that are not geometries and seeded
random families closed under intersection.  On the tables, which sweep
every point, the locally projective witnesses are compared with the
per-point filter of all flats that came before the one-pass grouping."""

import functools
import itertools
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


def random_table(seed, n=8, sets=10):
    """The intersection closure of seeded random point sets, with the empty
    set and every point."""
    rng = random.Random(seed)
    family = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(sets)}
    while more := {a & b for a, b in itertools.combinations(family, 2)} - family:
        family |= more
    return TableGeometry(n, family)


RANDOM_SEEDS = range(12)

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
    **{f"random-table-{seed}": (functools.partial(random_table, seed), TableGeometry) for seed in RANDOM_SEEDS},
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


def test_table_planes_drop_lines_met_twice():
    """A line meeting a plane of a table in two points need not lie in it."""
    G = CASES["pair-off-plane"][0]()
    line, plane = 0b01011, 0b10111
    assert (line & plane).bit_count() == 2
    assert not G.incidence.plane_lines[G.planes().index(plane)] >> G.lines().index(line) & 1


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_tables_are_not_geometries(seed):
    """Each random table has two lines sharing two points, and a line met
    twice by a plane it is not in, so the index is checked where two points
    of a line fix neither the line nor its planes."""
    G = random_table(seed)
    lines, planes = G.lines(), G.planes()
    assert any((a & b).bit_count() >= 2 for a, b in itertools.combinations(lines, 2))
    assert any((m & pm).bit_count() >= 2 and m & ~pm for m in lines for pm in planes)


def test_index_is_built_once(pg32):
    assert pg32.incidence is pg32.incidence


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

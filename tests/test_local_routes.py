"""The local predicates against the quotient routes they replace.

is_locally_projective, the quotient_line_form certificate of
has_enough_points and is_locally_affino_projective read X/x off the flats
of X through x.  The references in quotient_routes build X/x (or P/x) as a
geometry and ask there; both must give the same answer at every point, on
the gallery over GF(2) to GF(4), on seeded random subgeometries of PG(3,3),
on two coordinate point quotients and on two table geometries.

is_locally_projective decides each point of a coordinate geometry from its
planes and hyperplanes and sweeps flat pairs only where it fails, skipping
pairs that cannot violate the dimension formula; check_projective_axioms
skips nested pairs.  Both must report exactly what the full sweep reports,
witnesses included, also on random subgeometries of PG(4,2) and PG(5,2)
(which have 3-flats other than X) and on the PG(3,2) tables with one plane
removed.

The lp axioms and the projective axioms read one incidence index per
geometry.  Their reports must be byte-identical to the literal routes that
built their own partial indices, on all of the above and on three tables
that are not geometries; the Veblen-Young reference tests every vertex of
every triangle, also on seeded random subgeometries of PG(2,3), PG(2,4),
PG(3,2) and PG(3,3) and on random tables closed under intersection.  On
those the report must also be the one the two P3 routes before it gave,
except where the middle-vertex route missed a failure, and for the
witness of a failure on the concurrent-lines route.  A coordinate geometry decides the bundle
condition with no coplanarity at all, so the coordinate cases check that
no coplanarity is computed, and the bundle reports of the tables must be
byte-identical to literal_bundle's search over every 4-tuple of lines (or
its seeded draws); test_kernels compares the theorem with literal_bundle
on coordinate geometries.
"""

import functools
import itertools
import json
import random

import pytest

from fingeo import classify, projective
from fingeo.classify import (
    BUNDLE_LIMIT,
    check_bundle_theorem,
    check_lp_axioms,
    has_enough_points,
    is_locally_affino_projective,
    is_locally_projective,
)
from fingeo.errors import DimensionTooLow, ExceptionalNotFlat
from fingeo.gallery import EXAMPLE_NAMES, build_example
from fingeo.geometry import (
    CoordGeometry,
    TableGeometry,
    check_geometry_axioms,
    mask_of,
    subgeometry,
)
from fingeo.gf import gf
from fingeo.projective import build_pg
from quotient_routes import (
    literal_bundle,
    parent_p3_change,
    ref_dim_formula_violations,
    ref_locally_projective,
    ref_lp_axioms,
    ref_projective_axioms,
    ref_quotient_affino,
    ref_quotient_line_form,
    ref_quotient_projective,
)

# GF(2) and GF(3) have no proper subfield to take a complement of
GALLERY = [
    f"{name}-{q}"
    for q in (2, 3, 4)
    for name in EXAMPLE_NAMES
    if not (name == "subfield-complement" and q < 4)
]
RANDOM = [f"random-{seed}" for seed in range(10)]
# random subgeometries of PG(4,2) and PG(5,2), and PG(3,2)'s flat table
# without one of its 15 planes
HIGHER = [f"random{n}2-{seed}" for n in (4, 5) for seed in range(8)]
PLANE_REMOVED = [f"pg32-minus-{index}" for index in range(15)]
QUOTIENTS = ["pg32/0", "elliptic_33/0"]
# the triangle (one three-point plane) and the coproduct of two 3-point
# lines, as in test_classify
TABLES = {
    "triangle": TableGeometry(3, [0, 1, 2, 4, 3, 5, 6, 7]),
    "coproduct": TableGeometry(
        6, [a | b for a in (0, 0b1, 0b10, 0b100, 0b111) for b in (0, 0b1000, 0b10000, 0b100000, 0b111000)]
    ),
}
# tables that are not geometries: {0, 1} is the least flat through 0 and
# both lines hold the pair 0, 1, also with a plane holding only the first
# line; and test_classify's table with no line through 3
ODD_TABLES = {
    "shared-pair": TableGeometry(4, [0, 0b0011, 0b0111, 0b1011, 0b1111]),
    "pair-off-plane": TableGeometry(5, [0, 0b00011, 0b00111, 0b01011, 0b10111, 0b11111]),
    "broken": TableGeometry(4, [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1111]),
}
# for P3 (Veblen-Young): seeded random subgeometries of four small spaces,
# of any size, and random families of point sets closed under intersection
P3_CORPUS = [f"sub-pg{n}{q}-{seed}" for n, q in ((2, 3), (2, 4), (3, 2), (3, 3)) for seed in range(20)]
P3_CORPUS += [f"table-{n}-{seed}" for n in (8, 10) for seed in range(20)]


@functools.lru_cache(maxsize=None)
def geometry(case):
    if case in TABLES:
        return TABLES[case]
    if case in ODD_TABLES:
        return ODD_TABLES[case]
    if case.startswith("random-"):
        P = build_pg(3, 3)
        rng = random.Random(int(case.split("-")[1]))
        return subgeometry(P, rng.sample(range(P.n_points), rng.randrange(3, 30)))
    if case.startswith("random"):
        P = build_pg(int(case[6]), 2)
        rng = random.Random(int(case.split("-")[1]))
        return subgeometry(P, rng.sample(range(P.n_points), rng.randrange(4, 17)))
    if case.startswith("sub-pg"):
        P = build_pg(int(case[6]), int(case[7]))
        rng = random.Random(int(case.split("-")[2]))
        return subgeometry(P, rng.sample(range(P.n_points), rng.randrange(3, P.n_points + 1)))
    if case.startswith("table-"):
        n, seed = map(int, case.split("-")[1:])
        rng = random.Random(seed)
        family = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(n + 4)}
        while more := {a & b for a, b in itertools.combinations(family, 2)} - family:
            family |= more
        return TableGeometry(n, family)
    if case.startswith("pg32-minus-"):
        P = build_pg(3, 2)
        plane = P.planes()[int(case.rsplit("-", 1)[1])]
        return TableGeometry(15, [m for m in P.flats() if m != plane])
    if "/" in case:
        name, x = case.split("/")
        parent = build_pg(3, 2) if name == "pg32" else build_example("elliptic-quadric", gf(3))
        return parent.point_quotient(int(x))
    name, q = case.rsplit("-", 1)
    return build_example(name, gf(int(q)))


def witness_points(verdict):
    return [w["point"] for w in verdict.witnesses]


CASES = GALLERY + RANDOM + QUOTIENTS + list(TABLES)


@pytest.mark.parametrize("case", CASES)
def test_local_predicates_match_quotient_routes(case):
    X = geometry(case)
    points = range(X.n_points)
    lp = is_locally_projective(X)
    assert witness_points(lp) == [x for x in points if not ref_quotient_projective(X, x)]
    assert lp.verdict is (not lp.witnesses)
    if X.dim() >= 2:
        certificate = has_enough_points(X).certificates["quotient_line_form"]
        assert certificate is ref_quotient_line_form(X)
    if isinstance(X, CoordGeometry):
        lap = is_locally_affino_projective(X)
        assert witness_points(lap) == [x for x in points if not ref_quotient_affino(X, x)]


def test_cases_cover_both_outcomes():
    """Each route meets both answers somewhere in the cases."""
    cases = [geometry(c) for c in CASES]
    assert {bool(is_locally_projective(X)) for X in cases} == {True, False}
    forms = {ref_quotient_line_form(X) for X in cases if X.dim() >= 2}
    assert forms == {True, False}
    coords = [X for X in cases if isinstance(X, CoordGeometry)]
    assert {bool(is_locally_affino_projective(X)) for X in coords} == {True, False}


def test_plane_removed_table_fails_at_every_point(pg32):
    """PG(3,2)'s flat table without its first plane fails G3, so it is not
    a geometry.  The dimension formula fails at all 15 points, while the
    quotient geometries are projective at the 8 points off the plane; the
    predicate reports the dimension formula."""
    plane = pg32.planes()[0]
    G = TableGeometry(15, [m for m in pg32.flats() if m != plane])
    assert check_geometry_axioms(G).g3 is False
    v = is_locally_projective(G)
    assert v.verdict is False
    assert witness_points(v) == list(range(15))
    assert v.witnesses[0] == {
        "point": 0,
        "dim_formula_witness": {"s1": [0, 1, 2], "s2": [0, 3, 4, 7, 8, 11, 12]},
    }
    for w in v.witnesses:
        pair = w["dim_formula_witness"]
        m1, m2 = mask_of(pair["s1"]), mask_of(pair["s2"])
        assert m1 & m2 & 1 << w["point"]
        assert G.flat_dim(m1) + G.flat_dim(m2) != G.join_dim(m1, m2) + G.flat_dim(m1 & m2)
    off_plane = [x for x in range(15) if not plane >> x & 1]
    assert len(off_plane) == 8
    assert [x for x in range(15) if ref_quotient_projective(G, x)] == off_plane


@pytest.mark.parametrize("index", range(1, 15))
def test_other_plane_removed_tables_keep_their_verdict(pg32, index):
    """Removing any other plane: the two routes agree, at 7 points."""
    plane = pg32.planes()[index]
    G = TableGeometry(15, [m for m in pg32.flats() if m != plane])
    v = is_locally_projective(G)
    assert v.verdict is False
    assert witness_points(v) == [x for x in range(15) if not ref_quotient_projective(G, x)]
    assert len(v.witnesses) == 7


@pytest.mark.parametrize("case", CASES + HIGHER + PLANE_REMOVED)
def test_locally_projective_matches_full_sweep(case):
    X = geometry(case)
    assert is_locally_projective(X).as_dict() == ref_locally_projective(X).as_dict()


def test_higher_rank_cases_cover_both_outcomes():
    cases = [geometry(c) for c in HIGHER]
    above_three = [X for X in cases if X.dim() > 3]
    assert all(len(X.rank_flats(3)) > 1 for X in above_three)
    assert {bool(is_locally_projective(X)) for X in above_three} == {True, False}


def test_frame_of_pg42_fails_at_every_point():
    """Six points of PG(4,2) in general position.  Each X/x is five points
    in general position in a 3-space: any two of its lines in one plane
    meet, but a line and a plane can miss, so every point fails."""
    P = build_pg(4, 2)
    basis = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    X = subgeometry(P, [P.point_index(v) for v in basis + [(1, 1, 1, 1, 1)]])
    v = is_locally_projective(X)
    assert witness_points(v) == list(range(6))
    assert v.as_dict() == ref_locally_projective(X).as_dict()


@pytest.mark.parametrize(
    "case", PLANE_REMOVED + [c for c in GALLERY if c.endswith("-2")]
)
def test_projective_axioms_match_full_sweep(case, monkeypatch):
    G = geometry(case)
    got = projective.check_projective_axioms(G).as_dict()
    monkeypatch.setattr(projective, "dim_formula_violations", ref_dim_formula_violations)
    assert got == projective.check_projective_axioms(G).as_dict()


INCIDENCE_CASES = CASES + HIGHER + PLANE_REMOVED + list(ODD_TABLES)


def dumps(report):
    return json.dumps(report.as_dict())


@pytest.mark.parametrize("case", INCIDENCE_CASES)
def test_lp_axioms_match_literal_route(case):
    X = geometry(case)
    assert dumps(check_lp_axioms(X)) == dumps(ref_lp_axioms(X))


@pytest.mark.parametrize("case", INCIDENCE_CASES + P3_CORPUS)
def test_projective_axioms_match_literal_route(case):
    G = geometry(case)
    assert dumps(projective.check_projective_axioms(G)) == dumps(ref_projective_axioms(G))


@functools.lru_cache(maxsize=None)
def p3_change(case):
    """Whether the parent took the concurrent-lines route (P1 and more than
    16 points), the p3 verdict, and the change from the parent's report."""
    G = geometry(case)
    rep = projective.check_projective_axioms(G)
    return rep.p1 and G.n_points > 16, rep.p3, parent_p3_change(G, rep)


@pytest.mark.parametrize("case", P3_CORPUS)
def test_veblen_young_changes_only_missed_failures(case):
    """Against the parent's two P3 routes: on the concurrent-lines route the
    verdict is kept and only its witness may change; elsewhere the report
    is the parent's, or p3 turns false where the middle-vertex route missed
    a failure."""
    concurrent, _, change = p3_change(case)
    assert change in ((None, (False, False)) if concurrent else (None, (True, False)))


def test_veblen_young_corpus_covers_every_change():
    """The corpus reaches both verdicts of each parent route, and P3
    failures the middle-vertex route missed."""
    assert {p3_change(case) for case in P3_CORPUS} == {
        (False, True, None),
        (False, False, None),
        (False, False, (True, False)),
        (True, True, None),
        (True, False, (False, False)),
    }


def bundle_report(check, X):
    """The JSON of the report dict check(X), or the message of its
    DimensionTooLow."""
    try:
        return json.dumps(check(X))
    except DimensionTooLow as exc:
        return str(exc)


def theorem_report(X):
    return check_bundle_theorem(X).as_dict()


def no_coplanarity(X):
    raise AssertionError(f"coplanarity computed on {X.label()}")


@pytest.mark.parametrize("case", INCIDENCE_CASES)
def test_bundle_theorem_matches_literal_route(case, monkeypatch):
    X = geometry(case)
    if isinstance(X, CoordGeometry):
        monkeypatch.setattr(classify, "_coplanarity", no_coplanarity)
        bundle_report(theorem_report, X)
    else:
        want = bundle_report(functools.partial(literal_bundle, limit=BUNDLE_LIMIT), X)
        assert bundle_report(theorem_report, X) == want


def test_lp_cases_cover_every_axiom():
    """Each lp axiom fails somewhere in the cases, lp4 also on a coordinate
    geometry."""
    failed = set()
    for case in INCIDENCE_CASES:
        X = geometry(case)
        for w in check_lp_axioms(X).witnesses:
            failed.add((w["axiom"], isinstance(X, CoordGeometry)))
    assert {"lp1", "lp2", "lp3", "lp4", "lp4prime"} <= {axiom for axiom, _ in failed}
    assert ("lp4", True) in failed


def test_shared_pair_table_reports():
    """lp1 reports the pair both lines hold, then the pair no line holds;
    P1 reports the first."""
    X = geometry("shared-pair")
    lp1 = [w["points"] for w in check_lp_axioms(X).witnesses if w["axiom"] == "lp1"]
    assert lp1 == [[0, 1], [2, 3]]
    assert projective.check_projective_axioms(X).witnesses["p1"] == {"points": [0, 1], "lines_through": 2}


@pytest.mark.parametrize("case", PLANE_REMOVED)
def test_quotient_line_form_on_plane_removed_tables(case):
    X = geometry(case)
    assert has_enough_points(X).certificates["quotient_line_form"] is ref_quotient_line_form(X)


def test_quotient_line_form_on_shared_pair_table():
    """The plane holds two lines through 0, so the count fails; the
    quotient route would divide by {0}, which is not a flat, and raises."""
    X = geometry("shared-pair")
    assert has_enough_points(X).certificates["quotient_line_form"] is False
    with pytest.raises(ExceptionalNotFlat):
        ref_quotient_line_form(X)

"""The local predicates of a coordinate geometry, decided at its tangent
points, against the routes that swept every point (quotient_routes).

Where a point x of X lies on no tangent line, X/x = P/x.  The library
reads the tangent points off the tangent lines (tangent_lines), and they
must be the points that the count of lines of X through each point
(ref_tangent_points_by_count) finds.  It counts the quotient-line form,
searches planes for a quadrilateral and sweeps plane and hyperplane meets
only at tangent points, reads full_quotient_points and the line condition
off the tangent lines, and decides lp4 and lp4prime by local
projectivity.  On a seeded corpus every report must be the one the full
routes give, and the two runtime checks the library dropped must hold:
the line condition implies local projectivity, and the quotient-line form
implies a quadrilateral in every plane.  The guards show that the sweeps
the theorems settle are not reached, and that X's incidence index is built
only by the sweeps that read it.
"""

import functools
import itertools
import json
import random

import pytest

from fingeo import classify
from fingeo.classify import (
    Verdict,
    check_line_condition,
    check_lp_axioms,
    full_quotient_points,
    has_enough_points,
    is_locally_projective,
    tangent_lines,
)
from fingeo.errors import InternalContradiction, SizeLimit
from fingeo.gallery import build_example, make_affine
from fingeo.geometry import CoordGeometry, bits_of, mask_of, subgeometry
from fingeo.gf import gf, identity_hom
from fingeo.projective import SemilinearMap, build_pg
from fingeo.reconstruct import MorphismInstance, reconstruct_locally_projective
from quotient_routes import (
    ref_has_enough_points,
    ref_local_dim_formula_at,
    ref_skew_points,
    ref_tangent_points_by_count,
)

GALLERY = [f"{name}-{q}" for q in (2, 3) for name in ("affine", "elliptic-quadric", "cone", "two-hyperplanes")]
# sparse and dense seeded subgeometries (a dense one misses one to three
# points of its space, so few of its points lie on a tangent line), and
# point quotients of dense subgeometries of PG(4,2)
SPACES = ((3, 2), (3, 3), (4, 2))
RANDOM = [f"{kind}{n}{q}-{seed}" for kind in ("sparse", "dense") for n, q in SPACES for seed in range(3)]
QUOTIENTS = [f"quotient-{seed}" for seed in range(3)]
CASES = GALLERY + RANDOM + QUOTIENTS


@functools.lru_cache(maxsize=None)
def geometry(case):
    name, tail = case.rsplit("-", 1)
    rng = random.Random(case)
    if name == "quotient":
        P = build_pg(4, 2)
        X = subgeometry(P, rng.sample(range(P.n_points), P.n_points - rng.randrange(1, 4)))
        return X.point_quotient(rng.randrange(X.n_points))
    if name.startswith(("sparse", "dense")):
        P = build_pg(int(name[-2]), int(name[-1]))
        k = rng.randrange(6, 14) if name.startswith("sparse") else P.n_points - rng.randrange(1, 4)
        return subgeometry(P, rng.sample(range(P.n_points), k))
    return build_example(name, gf(int(tail)))


def dumps(verdict):
    return json.dumps(verdict.as_dict())


@pytest.mark.parametrize("case", CASES)
def test_tangent_point_routes_match_full_routes(case, monkeypatch):
    X = geometry(case)
    lines_at = tangent_lines(X)
    assert classify._tangent_points(X) == ref_tangent_points_by_count(X)
    assert full_quotient_points(X) == tuple(x for x, ts in enumerate(lines_at) if not ts)
    tangents = sorted(itertools.chain(*lines_at), key=lambda m: (m.bit_count(), m))
    lines = [{"line": sorted(bits_of(m))} for m in tangents]
    assert dumps(check_line_condition(X)) == dumps(Verdict("line_condition", not lines, lines))
    # the full search raises when the quotient form holds and a plane lacks
    # a quadrilateral
    assert dumps(has_enough_points(X)) == dumps(ref_has_enough_points(X))
    lp = is_locally_projective(X)
    lp_axioms = check_lp_axioms(X)
    monkeypatch.setattr(classify, "_skew_points", ref_skew_points)
    assert dumps(lp) == dumps(classify.is_locally_projective.__wrapped__(X))
    # every point where a plane and a hyperplane meet alone fails the
    # dimension formula, and none is left when the line condition holds
    assert [w["point"] for w in lp.witnesses] == list(bits_of(ref_skew_points(X)))
    assert lp or not check_line_condition(X)
    # the lp axioms with the lp4 and lp4prime sweeps run
    monkeypatch.setattr(classify, "is_locally_projective", lambda X: Verdict("locally_projective", False))
    assert dumps(lp_axioms) == dumps(check_lp_axioms(X))


@pytest.mark.parametrize("case", CASES)
def test_witnesses_match_per_point_filter(case):
    """The flats through every flagged point, gathered in one pass, name the
    pair that filtering all flats at that point names."""
    X = geometry(case)
    flagged = bits_of(classify._skew_points(X))
    want = [{"point": x, "dim_formula_witness": ref_local_dim_formula_at(X, x)} for x in flagged]
    assert is_locally_projective(X).witnesses == want


def test_flagged_point_without_violation_is_a_contradiction(monkeypatch):
    """AG(3,3) is locally projective, so point 0, flagged by hand, has no
    violating pair: the theorem is contradicted, not the verdict True."""
    monkeypatch.setattr(classify, "_skew_points", lambda X: 1)
    with pytest.raises(InternalContradiction, match="point 0"):
        is_locally_projective(make_affine(3, gf(3)))


def test_cases_cover_both_outcomes():
    cases = [geometry(c) for c in CASES]
    tangent = [X for X in cases if classify._tangent_points(X)]
    assert 0 < len(tangent) < len(cases)
    assert {bool(is_locally_projective(X)) for X in tangent} == {True, False}
    assert {has_enough_points(X).certificates["quotient_line_form"] for X in tangent} == {True, False}
    assert {bool(has_enough_points(X)) for X in tangent} == {True, False}
    assert any(w["axiom"] == "lp4" for X in cases for w in check_lp_axioms(X).witnesses)


def reached(*args):
    raise AssertionError("reached")


def test_lp4_is_decided_by_local_projectivity(ag33, two_hyperplanes_33, pg33, elliptic_33, monkeypatch):
    monkeypatch.setattr(classify, "_lp4_witness", reached)
    for X in (ag33, two_hyperplanes_33, pg33, build_pg(4, 2).point_quotient(0)):
        assert check_lp_axioms(X).verdict is True
    with pytest.raises(AssertionError, match="reached"):
        check_lp_axioms(elliptic_33)


@pytest.mark.parametrize("q", (3, 4))
def test_affine_space_searches_no_plane(q, monkeypatch):
    monkeypatch.setattr(classify, "_has_quadrilateral", reached)
    v = has_enough_points(make_affine(3, gf(q)))
    assert v.verdict is True and v.certificates == {"quotient_line_form": True}


@pytest.mark.parametrize("name, q", [("affine", 3), ("two-plane-complement", 3), ("subfield-complement", 4)])
def test_line_condition_check_builds_no_flats_of_x(name, q):
    """The constructors that check the line condition read it off the
    tangent lines, which are the lines of P: X's flats and incidence index
    are left unbuilt."""
    X = build_example(name, gf(q))
    assert X._flats is None
    assert "incidence" not in vars(X)


def test_lp_axioms_of_a_locally_projective_geometry_build_no_incidence_index():
    X = make_affine(3, gf(3))
    assert check_lp_axioms(X).verdict is True
    assert "incidence" not in vars(X)


def test_enough_points_without_tangent_points_builds_no_point_lines():
    """AG(3,4) has no tangent point, so no point's lines are counted."""
    X = make_affine(3, gf(4))
    assert has_enough_points(X).verdict is True
    assert "point_lines" not in vars(X.incidence)


def test_lp_reconstruction_builds_no_point_lines():
    """The lp driver finds its base points on the tangent lines, not by
    counting the lines of X through each point."""
    K = gf(3)
    X = make_affine(3, K)
    gen = SemilinearMap(identity_hom(K), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    res = reconstruct_locally_projective(MorphismInstance.restrict_semilinear(gen, X))
    assert res.phi == gen.canonical()
    assert (classify.tangent_lines.__wrapped__,) in X._plans
    assert "point_lines" not in vars(X.incidence)


def test_local_predicates_beyond_desk_scale_raise_size_limit():
    """The tangent points are read off the lines of the ambient PG(n, q),
    so a geometry whose ambient space is beyond desk scale (here 40 points
    of GF(2)^7, in PG(6, 2)) gets SizeLimit, as every ambient predicate
    does."""
    K = gf(2)
    vectors = sorted(random.Random(7).sample(range(1, 2**7), 40))
    X = CoordGeometry(K, [tuple(v >> i & 1 for i in range(7)) for v in vectors])
    gen = SemilinearMap(identity_hom(K), tuple(tuple(int(i == j) for j in range(7)) for i in range(7)))
    inst = MorphismInstance.restrict_semilinear(gen, X)
    calls = [has_enough_points, is_locally_projective, check_lp_axioms, check_line_condition,
             lambda X: reconstruct_locally_projective(inst)]
    for call in calls:
        with pytest.raises(SizeLimit):
            call(X)

"""Classification predicates over the gallery and ambient scans."""

import random

import pytest

from fingeo.classify import (
    check_bundle_theorem,
    check_line_condition,
    check_lp_axioms,
    check_minimal_embedding,
    classify,
    full_quotient_points,
    has_enough_points,
    is_affino_projective,
    is_locally_affino_projective,
    is_locally_projective,
    is_mobius,
    is_ovoid,
)
from fingeo.errors import DimensionTooLow
from fingeo.geometry import TableGeometry, bits_of, subgeometry
from fingeo.geometry import is_generated_by_lines_planes
from fingeo.gf import gf
from fingeo.gallery import coordinate_hyperplanes, make_complement, make_hyperplane_union, make_quadric
from fingeo.projective import build_pg, check_projective_axioms, decompose_irreducible
from quotient_routes import certified_bundles


# -- enough points -----------------------------------------------------------------


def test_enough_points_pg32(pg32):
    v = has_enough_points(pg32)
    assert v and v.certificates["quotient_line_form"]


def test_enough_points_degenerate_three_point_plane():
    # triangle geometry: the only plane has three points, no quadrilateral
    flats = [0, 1, 2, 4, 3, 5, 6, 7]
    G = TableGeometry(3, flats)
    assert G.dim() == 2
    v = has_enough_points(G)
    assert v.verdict is False
    assert v.witnesses == [{"plane": [0, 1, 2]}]


def test_enough_points_elliptic_34(elliptic_34):
    v = has_enough_points(elliptic_34)
    assert v and v.certificates["quotient_line_form"]


def test_enough_points_hyperbolic_has_short_quotient_lines(hyperbolic_34):
    # ruled quadrics satisfy the plane form while the tangent sections give
    # two-point quotient lines, so the reformulation is strictly stronger
    v = has_enough_points(hyperbolic_34)
    assert v.verdict is True
    assert v.certificates["quotient_line_form"] is False


def test_enough_points_dimension_too_low(pg32):
    line = subgeometry(pg32, sorted(bits_of(pg32.lines()[0])))
    with pytest.raises(DimensionTooLow):
        has_enough_points(line)


# -- locally projective ---------------------------------------------------------------


def test_complement_of_plane_locally_projective(pg33):
    X = subgeometry(pg33, sorted(bits_of(pg33.full_mask & ~pg33.planes()[0])))
    assert is_locally_projective(X)


def test_elliptic_not_locally_projective_but_lap(elliptic_33):
    assert not is_locally_projective(elliptic_33)
    assert is_locally_affino_projective(elliptic_33)


def test_two_hyperplanes_locally_projective(two_hyperplanes_33):
    assert is_locally_projective(two_hyperplanes_33)


# -- ambient line condition -------------------------------------------------------------


def test_line_condition_complement_of_two_planes(two_plane_complement_34):
    assert check_line_condition(two_plane_complement_34)


def test_line_condition_subfield_complement(subfield_complement_34):
    assert check_line_condition(subfield_complement_34)


def test_line_condition_fails_on_ovoid(elliptic_33):
    v = check_line_condition(elliptic_33)
    assert v.verdict is False
    assert v.witnesses  # a tangent line


def test_three_planes_removed_may_fail_line_condition(pg33):
    hs = coordinate_hyperplanes(pg33)
    X = make_complement(pg33, hs[:3])
    v = check_line_condition(X)
    assert v.verdict is False


# -- point/line/plane axioms --------------------------------------------------------------


def test_lp_axioms_pg32(pg32):
    v = check_lp_axioms(pg32)
    assert v and all(v.certificates.values())


def test_lp_axioms_ag33(ag33):
    v = check_lp_axioms(ag33)
    assert v and v.certificates["lp4prime"] and v.certificates["lp5"]


def test_lp_axioms_broken_geometry():
    flats = [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1111]
    G = TableGeometry(4, flats)
    v = check_lp_axioms(G)
    assert v.verdict is False
    assert v.witnesses


def test_lp4prime_witnesses_share_each_plane_point_list(pg33):
    """Every lp4prime witness naming a plane holds the one point list built
    for that plane, not a copy: hyperbolic(3,3) has 40 planes and 192
    witnesses, so copies would be 384 lists."""
    X = make_quadric(pg33, "hyperbolic")
    pairs = [w["planes"] for w in check_lp_axioms(X).witnesses if w["axiom"] == "lp4prime"]
    assert len(pairs) == 192 and len(X.incidence.planes) == 40
    lists = {id(points): points for pair in pairs for points in pair}
    assert len(lists) == len({tuple(points) for points in lists.values()}) <= 40


# -- bundle condition -----------------------------------------------------------------------


def test_bundle_pg32_and_concurrency(pg32):
    v = check_bundle_theorem(pg32)
    assert v and v.method == "exhaustive"
    count, concurrent = certified_bundles(pg32)
    assert count > 0 and concurrent


def test_bundle_subgeometry_inherits(two_hyperplanes_33):
    assert check_bundle_theorem(two_hyperplanes_33, limit=10**9)


def test_bundle_elliptic_exhaustive(elliptic_33):
    v = check_bundle_theorem(elliptic_33)
    assert v and v.method == "exhaustive"


def test_bundle_sampled_on_pg34(pg34):
    v = check_bundle_theorem(pg34)
    assert v and v.method == "sampled" and v.seed == 0xB1D


def test_bundle_without_violation_draws_nothing(pg34, monkeypatch):
    def no_draws(self, *args, **kwargs):
        raise AssertionError("a geometry without violations drew a sample")

    monkeypatch.setattr(random.Random, "sample", no_draws)
    v = check_bundle_theorem(pg34)
    assert v and v.method == "sampled" and v.seed == 0xB1D


def test_bundle_dim4_locally_projective():
    # dimension >= 4 locally projective geometries satisfy the bundle
    # condition; take a hyperplane complement in PG(4, 2)
    P = build_pg(4, 2)
    hyper = P.hyperplanes()[0]
    X = subgeometry(P, sorted(bits_of(P.full_mask & ~hyper)))
    assert X.dim() == 4
    assert is_locally_projective(X)
    v = check_bundle_theorem(X)  # 120 two-point lines: tuple count over cap
    assert v and v.method == "sampled" and v.seed == 0xB1D


# -- affino-projective -----------------------------------------------------------------------


def test_affine_is_affino_projective(ag33):
    v = is_affino_projective(ag33)
    assert v
    H = set(v.certificates["hyperplane"])
    P = build_pg(3, 3)
    xpts = set(ag33.ambient_indices)
    assert H | xpts == set(range(P.n_points))


def test_full_space_affino_projective(pg32):
    v = is_affino_projective(pg32)
    assert v
    assert v.certificates["certificate_count"] == 15  # every hyperplane works


def test_elliptic_not_affino_projective(elliptic_33):
    v = is_affino_projective(elliptic_33)
    assert v.verdict is False
    assert v.certificates["certificate_count"] == 0


# -- locally affino-projective ------------------------------------------------------------------


def test_elliptic_lap_with_tangent_planes(elliptic_33, pg33):
    v = is_locally_affino_projective(elliptic_33)
    assert v
    tangent = v.certificates["tangent_hyperplanes"]
    assert len(tangent) == elliptic_33.n_points
    # each certificate is a plane meeting the quadric only at its point
    xmask = 0
    for i in elliptic_33.ambient_indices:
        xmask |= 1 << i
    for local_x, plane_pts in tangent.items():
        pm = 0
        for i in plane_pts:
            pm |= 1 << i
        assert (pm & xmask).bit_count() == 1


def test_hyperbolic_32_lap(hyperbolic_32):
    assert is_locally_affino_projective(hyperbolic_32)


def test_cone_lap(cone_33):
    assert is_locally_affino_projective(cone_33)


@pytest.mark.parametrize("x", [0, 11])
def test_cone_quotient_lies_in_pg23(cone_33, pg23, x):
    # X/x has 10 of the 13 points of PG(2,3), so some line of PG(2,3) meets
    # it once; the quotient is not its own projective space
    Q = cone_33.point_quotient(x)
    assert (Q.n_points, Q.is_full_pg, Q.ambient) == (10, False, pg23)
    verdicts = classify(Q, ("line_condition", "minimal_embedding")).verdicts
    assert verdicts["line_condition"].verdict is False
    assert verdicts["minimal_embedding"].verdict is False


# -- Moebius and ovoid ------------------------------------------------------------------------


def test_elliptic_is_mobius_and_ovoid(elliptic_33):
    assert is_mobius(elliptic_33)
    assert is_ovoid(elliptic_33)


def test_hyperbolic_not_ovoid(hyperbolic_32, pg32):
    assert is_ovoid(hyperbolic_32).verdict is False
    # exhibit a ruling line fully inside the quadric
    xmask = 0
    for i in hyperbolic_32.ambient_indices:
        xmask |= 1 << i
    assert any(line & ~xmask == 0 for line in pg32.lines())


def test_full_space_not_mobius(pg33):
    assert is_mobius(pg33).verdict is False


def test_mobius_not_applicable_for_tiny_sets(pg32):
    X = subgeometry(pg32, [0, 1])
    assert is_mobius(X).verdict == "not applicable"
    assert is_ovoid(X).verdict == "not applicable"


# -- minimal embedding --------------------------------------------------------------------------


def test_minimal_embedding_complement(pg33):
    X = subgeometry(pg33, sorted(bits_of(pg33.full_mask & ~pg33.planes()[0])))
    assert check_minimal_embedding(X)


def test_minimal_embedding_elliptic_fails(elliptic_33):
    v = check_minimal_embedding(elliptic_33)
    assert v.verdict is False
    assert v.witnesses[0]["tangent_line"]


def test_minimal_embedding_full_space(pg32):
    assert check_minimal_embedding(pg32)


def test_full_quotient_points_match_minimal_embedding(ag33):
    assert len(full_quotient_points(ag33)) == ag33.n_points


# -- cross-predicate coherence --------------------------------------------------------------------


GALLERY = [
    "ag33",
    "two_hyperplanes_33",
    "elliptic_33",
    "cone_33",
    "hyperbolic_32",
]


@pytest.mark.parametrize("fixture", GALLERY)
def test_line_condition_implies_locally_projective(fixture, request):
    X = request.getfixturevalue(fixture)
    if check_line_condition(X):
        assert is_locally_projective(X)


@pytest.mark.parametrize("fixture", GALLERY)
def test_locally_projective_implies_generated_by_lines_planes(fixture, request):
    X = request.getfixturevalue(fixture)
    if is_locally_projective(X):
        assert is_generated_by_lines_planes(X).verdict


def test_reducible_when_no_enough_points():
    # a dim >= 3 locally projective geometry without enough points must be a
    # reducible projective space: the coproduct of two projective lines and
    # two extra points arranged as a frame
    # coproduct of two 3-point lines: flats are all unions of a flat of one
    # component with a flat of the other
    side1 = [0, 0b000001, 0b000010, 0b000100, 0b000111]
    side2 = [0, 0b001000, 0b010000, 0b100000, 0b111000]
    flats = [a | b for a in side1 for b in side2]
    G = TableGeometry(6, flats)
    assert G.dim() == 3
    assert is_locally_projective(G)
    assert has_enough_points(G).verdict is False
    rep = check_projective_axioms(G)
    assert rep.p1 and rep.p2 and rep.p3 and not rep.irreducible
    assert len(decompose_irreducible(G)) == 2


def test_hyperplane_union_locally_projective(pg32):
    X = make_hyperplane_union(pg32)
    assert X.n_points == 14
    assert is_locally_projective(X)


def test_classify_report_shape(elliptic_33):
    rep = classify(elliptic_33, predicates=("mobius", "ovoid", "affino_projective"))
    d = rep.as_dict()
    assert set(d["predicates"]) == {"mobius", "ovoid", "affino_projective"}
    assert d["predicates"]["mobius"]["verdict"] is True
    assert d["predicates"]["affino_projective"]["verdict"] is False

"""Gallery constructors: counts by independent enumeration, asserted
classifications, and error paths."""

import itertools

import pytest

from fingeo import classify
from fingeo.classify import (
    Verdict,
    check_line_condition,
    is_locally_affino_projective,
    is_locally_projective,
)
from fingeo.errors import EqualHyperplanes, InternalContradiction, NoEmbedding, SizeLimit
from fingeo.gallery import (
    _anisotropic_binary_form,
    build_example,
    coordinate_hyperplanes,
    make_complement,
    make_hyperplane_union,
    make_quadric,
    make_subfield_complement,
    make_two_hyperplanes,
)
from fingeo.geometry import bits_of
from fingeo.gf import gf
from fingeo.projective import build_pg


def test_affine_counts(ag33, ag34):
    assert ag33.n_points == 27
    assert ag34.n_points == 64


def test_elliptic_count_by_direct_enumeration(pg33, elliptic_33):
    # oracle: iterate normalized 4-tuples mod 3 and test x0 x1 + x2^2 + x3^2
    count = 0
    pts = set()
    for v in itertools.product(range(3), repeat=4):
        if not any(v):
            continue
        first = next(c for c in v if c)
        if first != 1:
            continue
        val = (v[0] * v[1] + v[2] * v[2] + v[3] * v[3]) % 3
        if val == 0:
            count += 1
            pts.add(v)
    assert count == 10 == elliptic_33.n_points
    assert set(elliptic_33.vectors) == pts


def test_quadric_counts(pg32, pg33, pg34):
    for P, q in ((pg32, 2), (pg33, 3), (pg34, 4)):
        assert make_quadric(P, "elliptic").n_points == q * q + 1
        assert make_quadric(P, "hyperbolic").n_points == (q + 1) ** 2
        assert make_quadric(P, "cone").n_points == q * (q + 1)


@pytest.mark.parametrize("form", ["elliptic", "hyperbolic", "cone"])
def test_quadric_off_pg3_refused_from_coordinates(form):
    """The ambient is checked from its coordinates: PG(5,5) is refused
    before its flat lattice is enumerated."""
    P = build_pg(5, 5)
    with pytest.raises(SizeLimit):
        make_quadric(P, form)
    assert P._flats is None


def test_hyperbolic_32_contains_six_lines(hyperbolic_32, pg32):
    xmask = 0
    for i in hyperbolic_32.ambient_indices:
        xmask |= 1 << i
    rulings = [line for line in pg32.lines() if line & ~xmask == 0]
    assert len(rulings) == 6
    assert hyperbolic_32.n_points == 9


def test_cone_is_locally_affino_projective(cone_33):
    assert is_locally_affino_projective(cone_33)


def test_anisotropic_form_selection():
    assert _anisotropic_binary_form(gf(3)) == (1, 0, 1)  # x^2 + y^2 works mod 3
    a, b, c = _anisotropic_binary_form(gf(2))
    assert (a, b, c) == (1, 1, 1)
    a, b, c = _anisotropic_binary_form(gf(4))
    assert b != 0  # char-2 forms need a cross term


def test_two_hyperplanes_counts(pg32, pg33, two_hyperplanes_33):
    hs2 = coordinate_hyperplanes(pg32)
    X2 = make_two_hyperplanes(pg32, hs2[0], hs2[1])
    assert X2.n_points == 8
    assert two_hyperplanes_33.n_points == 18
    assert is_locally_projective(X2)


def test_two_hyperplanes_equal_raises(pg32):
    hs = coordinate_hyperplanes(pg32)
    with pytest.raises(EqualHyperplanes):
        make_two_hyperplanes(pg32, hs[0], hs[0])


def test_subfield_complement_counts(subfield_complement_34):
    assert subfield_complement_34.n_points == 85 - 15
    X2 = make_subfield_complement(2, gf(2), gf(4))
    assert X2.n_points == 21 - 7


def test_subfield_complement_no_embedding():
    with pytest.raises(NoEmbedding):
        make_subfield_complement(3, gf(4), gf(8))
    with pytest.raises(NoEmbedding):
        make_subfield_complement(3, gf(3), gf(3))


def test_complement_line_condition(pg34):
    hs = coordinate_hyperplanes(pg34)
    X = make_complement(pg34, hs[:2])
    assert X.n_points == 48
    assert check_line_condition(X)


def test_hyperplane_union(pg32):
    X = make_hyperplane_union(pg32)
    assert X.n_points == 14  # only the all-ones point is missing
    assert is_locally_projective(X)


def test_build_example_names(pg33):
    X = build_example("elliptic-quadric", gf(3))
    assert X.n_points == 10
    A = build_example("affine", gf(4), dim=3)
    assert A.n_points == 64
    P = build_example("projective", gf(2), dim=2)
    assert P.n_points == 7
    S = build_example("subfield-complement", gf(4))
    assert S.n_points == 70
    with pytest.raises(ValueError):
        build_example("nonsense", gf(3))


def test_constructions_deterministic(pg33):
    a = make_quadric(pg33, "cone")
    b = make_quadric(pg33, "cone")
    assert a.vectors == b.vectors


def test_example_spec_is_pure():
    a, b = (build_example("hyperbolic-quadric", gf(3)) for _ in range(2))
    assert a.vectors == b.vectors
    assert a.n_points == 16


@pytest.mark.parametrize(
    "build, check",
    [
        (lambda: make_complement(build_pg(3, 3), coordinate_hyperplanes(build_pg(3, 3))[:1]), "check_line_condition"),
        (lambda: build_example("two-hyperplanes", gf(3)), "is_locally_projective"),
        (lambda: make_subfield_complement(3, gf(2), gf(4)), "check_line_condition"),
    ],
)
def test_failed_property_check_is_a_typed_error(monkeypatch, build, check):
    # the checks are real code, not asserts, so they survive python -O; the
    # constructors look the predicate up in classify when they run
    monkeypatch.setattr(classify, check, lambda X: Verdict(check, False))
    with pytest.raises(InternalContradiction):
        build()

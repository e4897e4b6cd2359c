"""The plane questions of a coordinate geometry, read off the tangent lines
inside each plane's span, against the incidence routes that came before
(quotient_routes).

Every plane of X is the trace of one plane of P, its span
(classify.plane_spans).  has_enough_points counts the lines of a plane
through a point as q + 1 less the tangent lines inside the span, lp4 meets
the spans of two lines of a plane in a point z and asks which points have
a tangent line through z, and lp4prime pairs the planes whose spans hold
one tangent line.  On the gallery, its point quotients and seeded
subgeometries the reports must be byte-identical to the incidence routes',
also with the lp4 and lp4prime sweeps forced on locally projective
geometries; and classify must build neither half of X's incidence index
that the old routes read.  The line spans lp4 meets come from the same
span builder as the plane spans (classify._spans), and must equal the dict
that _lp4_witness built inline.
"""

import functools
import json
import random

import pytest

from fingeo import classify
from fingeo.classify import Verdict, check_lp_axioms, classify as classify_all, has_enough_points, plane_spans
from fingeo.errors import FingeoError
from fingeo.gallery import EXAMPLE_NAMES, build_example
from fingeo.geometry import CoordGeometry, Incidence, TableGeometry, subgeometry
from fingeo.gf import gf
from fingeo.projective import build_pg
from quotient_routes import (
    ref_incidence_enough_points,
    ref_incidence_lp4_witness,
    ref_incidence_lp_axioms,
    ref_line_spans,
)

# the subfield complement needs a proper subfield: GF(4) alone has one here
GALLERY = [f"{name}-{q}" for q in (2, 3, 4, 5) for name in EXAMPLE_NAMES if name != "subfield-complement" or q == 4]
# a sparse and a dense seeded subgeometry of each space (a dense one misses
# one to five points of its space); PG(4,4) has no dense case, since the
# forced lp4 sweep of a locally projective geometry that size takes seconds
# on either route
SPACES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))
RANDOM = [f"{kind}{n}{q}" for kind in ("sparse", "dense") for n, q in SPACES if (kind, n, q) != ("dense", 4, 4)]
CASES = [f"{case}{tail}" for case in GALLERY + RANDOM for tail in ("", "/0")]


@functools.lru_cache(maxsize=None)
def geometry(case):
    """The geometry named by case."""
    case, quotient = case.removesuffix("/0"), case.endswith("/0")
    if case.startswith(("sparse", "dense")):
        P = build_pg(int(case[-2]), int(case[-1]))
        rng = random.Random(f"plane spans {case}")
        k = rng.randrange(8, 24) if case.startswith("sparse") else P.n_points - rng.randrange(1, 6)
        X = subgeometry(P, rng.sample(range(P.n_points), k))
    else:
        name, q = case.rsplit("-", 1)
        X = build_example(name, gf(int(q)))
    return X.point_quotient(0) if quotient and X.n_points else X


def outcome(call, X):
    """The report's bytes, or the class of the error it raised."""
    try:
        return json.dumps(call(X).as_dict())
    except FingeoError as exc:
        return type(exc).__name__


def not_locally_projective(X):
    return Verdict("locally_projective", False)


@pytest.mark.parametrize("case", CASES)
def test_plane_questions_match_incidence_routes(case, monkeypatch):
    X = geometry(case)
    assert outcome(has_enough_points, X) == outcome(ref_incidence_enough_points, X)
    assert outcome(check_lp_axioms, X) == outcome(ref_incidence_lp_axioms, X)
    # the lp4 and lp4prime sweeps forced on both routes
    monkeypatch.setattr(classify, "is_locally_projective", not_locally_projective)
    assert outcome(check_lp_axioms, X) == outcome(ref_incidence_lp_axioms, X)
    assert classify._lp4_witness(X) == ref_incidence_lp4_witness(X, X.incidence)


def test_cases_cover_both_outcomes():
    """The corpus holds failing and passing verdicts of each plane question."""
    cases = [X for X in map(geometry, CASES) if X.dim() == 3]
    lp4 = {classify._lp4_witness(X) is None for X in cases}
    lp4prime = {not any(classify._lp4prime_partners(X)) for X in cases}
    enough = {has_enough_points(X).certificates["quotient_line_form"] for X in cases}
    assert lp4 == lp4prime == enough == {True, False}


@pytest.mark.parametrize("case", ["elliptic-quadric-3", "cone-4", "hyperbolic-quadric-4", "sparse43/0"])
def test_each_plane_is_the_trace_of_its_span(case):
    X = geometry(case)
    P, xmask = X.ambient, sum(1 << a for a in X.ambient_indices)
    spans = plane_spans(X)
    assert len(spans) == len(set(spans)) == len(X.planes())
    for pm, span in zip(X.planes(), spans):
        assert span in P.planes()
        assert sum(1 << a for i, a in enumerate(X.ambient_indices) if pm >> i & 1) == span & xmask


@pytest.mark.parametrize("case", [case for case in GALLERY if not case.endswith("-5")] + RANDOM)
def test_line_spans_match_the_inline_dict(case):
    """One span builder serves lines and planes: its line spans are the dict
    _lp4_witness built inline, entry for entry and in the same order."""
    X = geometry(case)
    assert list(classify._spans(X, 1).items()) == list(ref_line_spans(X).items())


@pytest.mark.parametrize("q", (2, 3, 4))
def test_classify_builds_no_line_planes(q, monkeypatch):
    """Classifying a coordinate geometry, a gallery example or its point
    quotient, builds neither line_planes nor plane_lines of any incidence
    index; the table route, run last, builds both."""
    built = []
    for part in ("line_planes", "plane_lines"):
        build = getattr(Incidence, part).func
        recorded = functools.cached_property(lambda inc, build=build, part=part: built.append(part) or build(inc))
        recorded.__set_name__(Incidence, part)
        monkeypatch.setattr(Incidence, part, recorded)
    for name in EXAMPLE_NAMES:
        try:
            X = build_example(name, gf(q))
        except FingeoError:
            continue
        X = CoordGeometry(X.field, X.vectors)  # with empty caches
        for G in (X, X.point_quotient(0)):
            classify_all(G)
            assert built == [], G.label()
    has_enough_points(TableGeometry(X.n_points, X.flats()))
    assert sorted(built) == ["line_planes", "plane_lines"]

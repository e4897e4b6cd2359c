"""The ambient predicates against the literal ambient scans they replace.

Each reference below is a direct scan of the ambient space: every line of
P, the lines through each point, or the line through each pair of an
outside point and a point of X.  The library lists the tangent lines of
every point in one pass over P's lines (tangent_lines), and builds no
incidence index of P; every predicate and driver that reads the ambient
space must give what the scans give, on the gallery over GF(2) to GF(4),
the point quotients at the first and last point of the GF(3) gallery, and
seeded random subgeometries of PG(3,3).

A geometry's ambient space is the PG(n, q) of its coordinates, quotients
included: the ambient predicates on X and on the same points embedded in
that space by subgeometry must agree.
"""

import itertools
import random

import pytest

from fingeo import classify as classify_module, linalg
from fingeo.classify import (
    affino_admissible_points,
    check_line_condition,
    check_minimal_embedding,
    classify,
    full_quotient_points,
    is_affino_projective,
    is_mobius,
    lap_certificates,
    secant_lines,
    tangent_lines,
    tangent_unions,
)
from fingeo.gallery import EXAMPLE_NAMES, build_example, make_affine, make_quadric
from fingeo.geometry import CoordGeometry, CoordQuotient, FiniteGeometry, bits_of, mask_of, subgeometry
from fingeo.gf import gf, identity_hom
from fingeo.projective import LinearSubspace, SemilinearMap, build_pg
from fingeo.reconstruct import (
    MorphismInstance,
    ReconstructionResult,
    certify_side_conditions,
    extend_affino,
    reconstruct_affino_projective,
)
from quotient_routes import ref_join_dim, ref_tangent_lines

# GF(2) and GF(3) have no proper subfield to take a complement of
GALLERY = [(name, q) for q in (2, 3, 4) for name in EXAMPLE_NAMES if q == 4 or name != "subfield-complement"]
RANDOM_SEEDS = range(10)


def ambient_of(X):
    """The PG(n, q) of X's coordinates and the index of each point in it;
    X itself when it holds every point, as a full point quotient keeps its
    own point order."""
    P = X if X.is_full_pg else build_pg(X.ncoords - 1, X.field.q)
    return P, tuple(map(P.point_index, X.vectors))


def ref_line_condition_witnesses(X):
    P, idx = ambient_of(X)
    xmask = mask_of(idx)
    witnesses = []
    for line in P.lines():
        hit = (line & xmask).bit_count()
        if hit == 1:
            witnesses.append({"line": sorted(bits_of(line))})
    return witnesses


def ref_minimal_embedding_witnesses(X):
    P, idx = ambient_of(X)
    xmask = mask_of(idx)
    witnesses = []
    for local_x, amb_x in enumerate(idx):
        for line in P.lines_through(amb_x):
            if (line & xmask).bit_count() < 2:
                witnesses.append({"point": local_x, "tangent_line": sorted(bits_of(line))})
                break
    return witnesses


def ref_full_quotient_points(X):
    P, idx = ambient_of(X)
    xmask = mask_of(idx)
    out = []
    for local_x, amb_x in enumerate(idx):
        if all((line & xmask).bit_count() >= 2 for line in P.lines_through(amb_x)):
            out.append(local_x)
    return tuple(out)


def ref_lap_certificates(P, xmask, amb_x):
    must_cover = 0
    for line in P.lines_through(amb_x):
        if (line & xmask).bit_count() < 2:
            must_cover |= line
    return [hm for hm in P.hyperplanes() if hm >> amb_x & 1 and must_cover & ~hm == 0]


def ref_mobius_union(P, xmask, amb_x):
    union = 0
    for line in P.lines_through(amb_x):
        if line & xmask == 1 << amb_x:
            union |= line
    return union


def ref_tangent_point(X):
    P, idx = ambient_of(X)
    xmask = mask_of(idx)
    for p in bits_of(P.full_mask & ~xmask):
        if all((P.line_through_pair(p, amb) & xmask).bit_count() == 1 for amb in idx):
            return p
    return None


def ref_secant_lines(X):
    """For each point p of P off X, ascending, the lines of P through p not
    inside X's first certifying hyperplane, each as the local points of X
    on it."""
    P, idx = ambient_of(X)
    H = is_affino_projective(X).certificates["hyperplane_mask"]
    local_of = {a: x for x, a in enumerate(idx)}
    return tuple(
        (p, tuple(
            tuple(local_of[a] for a in bits_of(line) if a in local_of)
            for line in P.lines()
            if line >> p & 1 and line & ~H
        ))
        for p in range(P.n_points)
        if p not in local_of
    )


def random_subgeometry(seed):
    P = build_pg(3, 3)
    rng = random.Random(seed)
    return subgeometry(P, rng.sample(range(P.n_points), rng.randrange(3, 30)))


@pytest.fixture(scope="module")
def geometries():
    out = {f"{name}-{q}": build_example(name, gf(q)) for name, q in GALLERY}
    for seed in RANDOM_SEEDS:
        out[f"random-{seed}"] = random_subgeometry(seed)
    for name, q in GALLERY:
        if q == 3:
            X = out[f"{name}-3"]
            out[f"{name}-3-first"] = X.point_quotient(0)
            out[f"{name}-3-last"] = X.point_quotient(X.n_points - 1)
    return out


CASES = [f"{name}-{q}" for name, q in GALLERY] + [f"random-{seed}" for seed in RANDOM_SEEDS]
QUOTIENT_CASES = [f"{name}-3-{where}" for name, q in GALLERY if q == 3 for where in ("first", "last")]


@pytest.mark.parametrize("case", CASES + QUOTIENT_CASES)
def test_view_matches_ambient_scans(geometries, case):
    X = geometries[case]
    P, idx = ambient_of(X)
    xmask = mask_of(idx)
    assert (X.ambient, X.ambient_indices) == (P, idx)
    assert (X.local_of, X.ambient_mask) == ({a: x for x, a in enumerate(idx)}, xmask)
    assert tangent_lines(X) == ref_tangent_lines(X)
    assert check_line_condition(X).witnesses == ref_line_condition_witnesses(X)
    assert check_minimal_embedding(X).witnesses == ref_minimal_embedding_witnesses(X)
    assert full_quotient_points(X) == ref_full_quotient_points(X)
    refs = [ref_lap_certificates(P, xmask, amb) for amb in idx]
    assert lap_certificates(X) == tuple(ref[0] if ref else None for ref in refs)
    assert affino_admissible_points(X) == tuple(x for x, ref in enumerate(refs) if ref)
    assert tangent_unions(X) == tuple(ref_mobius_union(P, xmask, amb) for amb in idx)


@pytest.mark.parametrize("name", ["affine", "elliptic-quadric"])
def test_classify_builds_no_ambient_incidence_index(name):
    """Every predicate reads the lines and hyperplanes of P, never its
    incidence index.  A fresh PG(3,3), not the interned one that other
    tests index, is set as X's ambient space."""
    X = build_example(name, gf(3))
    X.ambient = P = build_pg.__wrapped__(3, 3)
    classify(X)
    assert P._flats is not None  # the predicates did read this P
    assert "incidence" not in vars(P)


def test_affino_driver_builds_no_ambient_incidence_index():
    """extend_affino groups the secant lines by their point on the
    completing hyperplane in one pass over P's lines."""
    K = gf(3)
    X = make_affine(3, K)
    X.ambient = P = build_pg.__wrapped__(3, 3)
    gen = SemilinearMap(identity_hom(K), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    res = reconstruct_affino_projective(MorphismInstance.restrict_semilinear(gen, X, kind="affino-projective"))
    assert res.phi == gen.canonical()
    assert P._flats is not None  # the driver did read this P
    assert "incidence" not in vars(P)


def test_secant_lines_match_ambient_scan(geometries):
    checked = []
    for case in CASES + QUOTIENT_CASES:
        X = geometries[case]
        if is_affino_projective(X):
            assert secant_lines(X) == ref_secant_lines(X), case
            checked.append(case)
    assert {"affine-2", "affine-3", "affine-4"} <= set(checked), checked


def test_secant_lines_are_grouped_once(monkeypatch):
    """The secant lines are kept on X by its memo: a second extension on
    the same geometry reads no line of P."""
    K = gf(3)
    X = make_affine(3, K)
    X.ambient = P = build_pg.__wrapped__(3, 3)
    gen = SemilinearMap(identity_hom(K), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, X, kind="affino-projective")
    calls = []
    library_lines = P.lines

    def lines():
        calls.append(P)
        return library_lines()

    monkeypatch.setattr(P, "lines", lines)
    first = extend_affino(inst)
    assert calls
    calls.clear()
    assert extend_affino(inst) == first
    assert calls == []
    assert secant_lines(X) is secant_lines(X)


def test_ovoid_reads_the_mobius_verdict(monkeypatch):
    """Each verdict is kept on the geometry, so classify runs Moebius once
    although ovoid asks for it again."""
    X = make_quadric(build_pg(3, 3), "elliptic")
    calls = []

    def counted(G):
        calls.append(G)
        return tangent_unions(G)

    monkeypatch.setattr(classify_module, "tangent_unions", counted)
    report = classify(X, ["mobius", "ovoid"])
    assert report.verdicts["ovoid"].verdict is True
    assert calls == [X]
    assert is_mobius(X) is is_mobius(X)
    assert is_affino_projective(X) is is_affino_projective(X)


@pytest.mark.parametrize("name", ["elliptic-quadric", "cone", "affine", "two-hyperplanes"])
def test_second_classify_plans_nothing(name):
    """Every keyed fact classify derives is kept in the geometry's one memo:
    a second run reads the same reports and plans nothing new on X or on
    its ambient space."""
    X = build_example(name, gf(3))
    X = CoordGeometry(X.field, X.vectors)  # with an empty plan
    first = classify(X)
    plans = [dict(G._plans) for G in (X, X.ambient)]
    assert plans[0]
    assert classify(X) == first
    for G, before in zip((X, X.ambient), plans):
        assert G._plans.keys() == before.keys() and all(G._plans[k] is v for k, v in before.items())


AMBIENT_PREDICATES = (
    "line_condition",
    "minimal_embedding",
    "affino_projective",
    "locally_affino_projective",
    "mobius",
    "ovoid",
)


@pytest.mark.parametrize("where", ["whole", "first", "last"])
@pytest.mark.parametrize("case", [f"{name}-3" for name, q in GALLERY if q == 3])
def test_ambient_predicates_read_the_coordinate_space(geometries, case, where):
    X = geometries[case]
    if where != "whole":
        X = X.point_quotient(0 if where == "first" else X.n_points - 1)
    P, idx = ambient_of(X)
    got = classify(X, AMBIENT_PREDICATES).verdicts
    want = classify(subgeometry(P, idx), AMBIENT_PREDICATES).verdicts
    for pred in AMBIENT_PREDICATES:
        assert got[pred].verdict == want[pred].verdict, pred
        assert len(got[pred].witnesses) == len(want[pred].witnesses), pred


@pytest.mark.parametrize("case", CASES)
def test_side_condition_tangent_point_matches_pair_scan(geometries, case):
    X = geometries[case]
    K = X.field
    n1 = X.ncoords
    identity = SemilinearMap(identity_hom(K), [linalg.unit_vec(n1, j) for j in range(n1)])
    inst = MorphismInstance(X, K, n1 - 1, X.vectors, "affino-projective")
    result = ReconstructionResult(identity, LinearSubspace.zero(K, n1), (0, 1))
    report = certify_side_conditions(result, inst)
    want = ref_tangent_point(X)
    assert report["tangent_point_hypothesis"] is (want is None)
    assert report.get("tangent_point") == want


def test_random_cases_cover_both_tangent_point_outcomes():
    found = {ref_tangent_point(random_subgeometry(seed)) is None for seed in RANDOM_SEEDS}
    assert found == {True, False}


@pytest.fixture(scope="module")
def join_geometries(pg32, ag33, elliptic_33, elliptic_34, cone_33):
    rng = random.Random("join geometries")
    P4, P5 = build_pg(4, 3), build_pg(5, 2)
    X5 = subgeometry(P5, rng.sample(range(P5.n_points), 36))
    return {
        "pg32": pg32,
        "ag33": ag33,
        "pg32/0": pg32.point_quotient(0),
        "elliptic_33/0": elliptic_33.point_quotient(0),
        "elliptic_34": elliptic_34,
        "cone_33": cone_33,
        "sub43": subgeometry(P4, rng.sample(range(P4.n_points), 14)),
        "sub52/line": CoordQuotient(X5, X5.lines()[0]),
    }


JOIN_NAMES = ["pg32", "ag33", "pg32/0", "elliptic_33/0", "elliptic_34", "cone_33", "sub43", "sub52/line"]


@pytest.mark.parametrize("name", JOIN_NAMES)
def test_coordinate_join_dim_matches_closure_route(join_geometries, name):
    """Every pair of flats, joined from the dimension bounds or by a rank,
    against the closure route and against the rank route for every pair."""
    G = join_geometries[name]
    for m1, m2 in itertools.combinations_with_replacement(G.flats(), 2):
        assert G.join_dim(m1, m2) == FiniteGeometry.join_dim(G, m1, m2) == ref_join_dim(G, m1, m2)


def test_join_geometries_cover_ranks_and_bounds(join_geometries):
    """Some joins need the rank (a pair of skew lines in dimension >= 3) and
    the line quotient is three-dimensional."""
    assert join_geometries["sub52/line"].dim() == 3
    for name in ("pg32", "elliptic_34", "cone_33", "sub43", "sub52/line"):
        G = join_geometries[name]
        assert any(not m1 & m2 and G.join_dim(m1, m2) == 3 for m1, m2 in itertools.combinations(G.lines(), 2))


def count_ranks(monkeypatch):
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *args: calls.append(args) or rank(*args))
    return calls


def test_local_projectivity_of_a_quadric_takes_no_rank(monkeypatch):
    """On elliptic(3,4) every flagged point names its witness from pairs of
    planes, whose joins the dimension bounds decide."""
    X = build_example("elliptic-quadric", gf(4))
    calls = count_ranks(monkeypatch)
    v = classify_module.is_locally_projective(X)
    assert v.verdict is False and len(v.witnesses) == X.n_points
    assert calls == []


def test_skew_lines_join_by_a_rank(monkeypatch):
    """Two skew lines of PG(3,3) lie between the bounds 2 and 3, so their
    join takes one rank; two lines through a point take none."""
    P = build_pg.__wrapped__(3, 3)
    lines = P.lines()
    skew = next(m for m in lines if not m & lines[0])
    meeting = next(m for m in lines[1:] if m & lines[0])
    calls = count_ranks(monkeypatch)
    assert P.join_dim(lines[0], meeting) == 2 and calls == []
    assert P.join_dim(lines[0], skew) == 3 and len(calls) == 1

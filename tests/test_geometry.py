"""Closure-geometry kernel: closure, axioms, bases, lattice ops, morphisms,
subgeometries, quotients.

PG(3, 2) facts are cross-checked against an independent XOR oracle: its
points are the nonzero 4-bit integers, the line through a and b is
{a, b, a^b}, and planes are the XOR-closed 7-sets.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingeo import geometry, linalg
from fingeo.errors import (
    NotAMorphism,
    NotConstantOnClasses,
    NotGenerating,
    PreconditionLinesTooShort,
)
from fingeo.geometry import (
    CoordGeometry,
    FiniteGeometry,
    Flat,
    GeometryMorphism,
    PartialMorphism,
    TableGeometry,
    basis_of,
    bits_of,
    check_dim_bounds,
    check_geometry_axioms,
    closure,
    dim,
    factor_through_quotient,
    is_generated_by_lines,
    is_generated_by_lines_planes,
    join,
    mask_of,
    meet,
    quotient,
    subgeometry,
)
from fingeo.gallery import make_affine
from fingeo.gf import gf, list_homomorphisms
from fingeo.projective import build_pg
from quotient_routes import check_morphism, ref_flat_preimage_witness, ref_generated_by


def xor_int(P, i):
    """PG(3,2) point as the integer with bits = coordinates."""
    c = P.vectors[i]
    return c[0] * 8 + c[1] * 4 + c[2] * 2 + c[3]


def from_xor(P, n):
    v = ((n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1)
    return P.point_index(v)


# -- closure --------------------------------------------------------------------


def test_closure_empty(pg32):
    assert closure(pg32, []).mask == 0


def test_closure_two_points_is_xor_line(pg32):
    rng = random.Random(3)
    for _ in range(20):
        i, j = rng.sample(range(15), 2)
        got = {xor_int(pg32, k) for k in closure(pg32, [i, j]).points}
        a, b = xor_int(pg32, i), xor_int(pg32, j)
        assert got == {a, b, a ^ b}


def test_closure_three_points_is_fano_plane(pg32):
    rng = random.Random(4)
    found = 0
    while found < 10:
        i, j, k = rng.sample(range(15), 3)
        a, b, c = (xor_int(pg32, t) for t in (i, j, k))
        if c == a ^ b:
            continue
        found += 1
        got = {xor_int(pg32, t) for t in closure(pg32, [i, j, k]).points}
        assert got == {a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c}
        assert len(got) == 7


def test_closure_idempotent(pg32):
    f = closure(pg32, [0, 1, 5])
    assert closure(pg32, f.points).mask == f.mask


# -- axioms ---------------------------------------------------------------------


def test_axioms_pg32(pg32):
    rep = check_geometry_axioms(pg32)
    assert rep.all_pass


def broken_exchange_table():
    # closed sets: empty, singletons, {0,1,2}, everything
    return TableGeometry(4, [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1111])


def test_axioms_broken_exchange_witness():
    G = broken_exchange_table()
    rep = check_geometry_axioms(G)
    assert rep.g1 and rep.g2 and not rep.g3
    w = rep.witnesses["g3"]
    s, x, between = mask_of(w["flat"]), w["point"], mask_of(w["between"])
    t = G.closure_mask(s | (1 << x))
    assert s | (1 << x) <= t
    assert s & ~between == 0 and between & ~t == 0
    assert between not in (s, t)


def test_axioms_table_not_closed_under_meets():
    """{0, 1} and {1, 2} meet in {1}, which the table does not hold."""
    rep = check_geometry_axioms(TableGeometry(4, [0, 0b0011, 0b0110, 0b1111]))
    assert not rep.g2
    assert rep.witnesses["g2"] == [[0, 1], [1, 2]]


def test_axioms_ag23():
    P = build_pg(2, 3)
    line = P.lines()[0]
    A = subgeometry(P, sorted(bits_of(P.full_mask & ~line)))
    assert A.n_points == 9
    assert check_geometry_axioms(A).all_pass


# -- bases and dimension ----------------------------------------------------------


def test_basis_line_greedy(pg32):
    line = closure(pg32, [0, 1])
    pts = line.points
    assert basis_of(pg32, line, pts) == pts[:2]


def test_basis_singleton(pg32):
    s = closure(pg32, [5])
    assert basis_of(pg32, s, [5]) == (5,)


def test_basis_full_space(pg32):
    full = Flat(pg32, pg32.full_mask)
    assert len(basis_of(pg32, full, range(15))) == 4


def test_basis_not_generating(pg32):
    full = Flat(pg32, pg32.full_mask)
    with pytest.raises(NotGenerating):
        basis_of(pg32, full, [0, 1])


def test_basis_cardinality_permutation_invariant(pg32):
    rng = random.Random(99)
    full = Flat(pg32, pg32.full_mask)
    plane = closure(pg32, [0, 1, 4])
    for flat in (full, plane):
        pts = list(flat.points)
        sizes = set()
        for _ in range(20):
            rng.shuffle(pts)
            cl = pg32.closure_mask(0)
            basis = []
            for x in pts:
                if not cl >> x & 1:
                    basis.append(x)
                    cl = pg32.closure_mask(mask_of(basis))
            sizes.add(len(basis))
        assert len(sizes) == 1


def test_dim_examples(pg32):
    assert dim(pg32, Flat(pg32, 0)) == -1
    for line in pg32.lines()[:5]:
        assert dim(pg32, Flat(pg32, line)) == 1
    assert dim(pg32, Flat(pg32, pg32.full_mask)) == 3


# -- join / meet -------------------------------------------------------------------


def test_join_with_empty(pg32):
    s = closure(pg32, [0, 1])
    assert join(pg32, s, Flat(pg32, 0)).mask == s.mask


def test_join_two_points(pg32):
    a, b = closure(pg32, [2]), closure(pg32, [9])
    assert join(pg32, a, b).mask == pg32.line_through_pair(2, 9)


def test_meet_two_planes_is_line(pg32):
    planes = pg32.planes()
    m = meet(pg32, Flat(pg32, planes[0]), Flat(pg32, planes[1]))
    assert dim(pg32, m) == 1


def test_lattice_laws(pg32):
    rng = random.Random(5)
    flats = pg32.flats()
    for _ in range(40):
        s1 = Flat(pg32, flats[rng.randrange(len(flats))])
        s2 = Flat(pg32, flats[rng.randrange(len(flats))])
        j, m = join(pg32, s1, s2), meet(pg32, s1, s2)
        assert m.mask == s1.mask & s2.mask
        assert pg32.closure_mask(j.mask) == j.mask
        assert join(pg32, s1, s1).mask == s1.mask
        assert meet(pg32, j, s1).mask == s1.mask  # absorption


# -- morphisms ---------------------------------------------------------------------


def test_identity_is_morphism(pg32):
    rep = check_morphism(GeometryMorphism(pg32, pg32, tuple(range(15))))
    assert rep.is_morphism and rep.condition_c_ok and rep.agree


def test_constant_is_morphism(pg32):
    rep = check_morphism(GeometryMorphism(pg32, pg32, (3,) * 15))
    assert rep.is_morphism and rep.condition_c_ok


def test_collinearity_violation_detected(pg32):
    # send three collinear points to a triangle, everything else to itself
    line = next(iter(pg32.lines()))
    a, b, c = list(bits_of(line))[:3]
    tri = [p for p in range(15) if not line >> p & 1][:1]
    mapping = list(range(15))
    mapping[c] = tri[0]
    rep = check_morphism(GeometryMorphism(pg32, pg32, tuple(mapping)))
    assert not rep.is_morphism
    assert rep.witness is not None
    assert rep.agree  # both conditions detect the failure


# -- generated by lines / planes ------------------------------------------------------


def test_pg22_generated_by_lines(pg22):
    assert is_generated_by_lines(pg22).verdict


def test_ag32_needs_planes(ag32):
    assert not is_generated_by_lines(ag32).verdict
    assert is_generated_by_lines_planes(ag32).verdict


def test_single_line_generated_by_lines():
    G = TableGeometry(3, [0, 1, 2, 4, 7])
    assert is_generated_by_lines(G).verdict


class PairClosesToLine(FiniteGeometry):
    """Four points where {0, 1} closes to {0, 1, 2} and every other set is
    closed: not monotone, since {0, 1, 3} is closed."""

    def __init__(self):
        super().__init__(4)

    def _closure_mask(self, mask):
        return 0b0111 if mask == 0b0011 else mask


def test_flat_not_closed_under_the_line_rule():
    # {0, 1, 3} is a flat holding 0 and 1 but not the rest of their line
    rep = is_generated_by_lines(PairClosesToLine())
    assert (rep.verdict, rep.method) == (False, "exhaustive")
    assert rep.witness == {"flat_not_rule_closed": [0, 1, 3]}


@pytest.mark.parametrize("backend", ["coordinate", "table"])
def test_generated_by_witness_is_least_rule_closed_non_flat(pg32, backend):
    """The witness is the least rule-closed set that is not a flat, in
    (size, mask) order, whatever order the search meets such sets in."""
    pts = [0, 4, 5, 6, 7, 8, 9, 11, 12, 13]
    parent = pg32 if backend == "coordinate" else TableGeometry(15, pg32.flats())
    G = subgeometry(parent, pts)
    rep = is_generated_by_lines(G)
    assert (rep.verdict, rep.method) == (False, "exhaustive")
    assert rep.witness == {"rule_closed_not_flat": [0, 1, 6]}

    def rule_closed(m):
        return all(G.line_through_pair(a, b) & ~m == 0 for a, b in itertools.combinations(bits_of(m), 2))

    extra = [m for m in range(1 << G.n_points) if rule_closed(m) and m not in G.flat_set()]
    assert sorted(bits_of(min(extra, key=lambda m: (m.bit_count(), m)))) == [0, 1, 6]


def test_generated_by_lines_exact_on_pg34(pg34):
    rep = is_generated_by_lines(pg34)
    assert (rep.verdict, rep.method, rep.seed) == (True, "exhaustive", None)
    assert rep.family_size == len(pg34.flats()) == 529


def seeded_subgeometries(P, seed, count):
    """count subgeometries of P on random.Random(seed) draws of 3 to all of
    its points."""
    rng = random.Random(seed)
    return [
        subgeometry(P, sorted(rng.sample(range(P.n_points), rng.randrange(3, P.n_points + 1))))
        for _ in range(count)
    ]


@functools.cache
def small_generated_by_cases():
    """Geometries of at most 24 points: the spaces PG(3,2), PG(2,3) and
    AG(3,2), seeded subgeometries of each, a table copy of every one, and
    PairClosesToLine."""
    cases = []
    for P in (build_pg(3, 2), build_pg(2, 3), make_affine(3, gf(2))):
        for G in [P] + seeded_subgeometries(P, P.n_points, 8):
            cases += [G, TableGeometry(G.n_points, G.flats())]
    return cases + [PairClosesToLine()]


@pytest.mark.parametrize("use_planes", [False, True], ids=["lines", "planes"])
def test_generated_by_matches_reference(use_planes):
    """The (flat, point) sweep gives the verdict and witness of the
    exhaustive enumeration of rule-closed sets, and on a true verdict its
    count of them."""
    decide = is_generated_by_lines_planes if use_planes else is_generated_by_lines
    verdicts = set()
    for G in small_generated_by_cases():
        assert G.n_points <= 24
        rep, ref = decide(G), ref_generated_by(G, use_planes)
        assert (rep.verdict, rep.witness, rep.method, rep.seed) == (ref.verdict, ref.witness, "exhaustive", None)
        assert rep.family_size == (ref.family_size if ref.verdict else None)
        verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def least_rule_closed_non_flat_up_to_3(G):
    """The least set of at most 3 points, in (size, mask) order, that holds
    the line through any two of its points and is not closed, by brute
    force over every such set; None when there is none."""
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(G.n_points), r):
            m = mask_of(pts)
            rule_closed = all(G.line_through_pair(a, b) & ~m == 0 for a, b in itertools.combinations(pts, 2))
            if rule_closed and G.closure_mask(m) != m:
                return list(pts)
    return None


def wrongly_true_cases():
    """Seeded subgeometries above 24 points that a sample of random subsets
    called generated by lines: 12 of PG(3,3) with 26 to 35 points and one
    of PG(3,4) with 60, each with its least rule-closed non-flat or None."""
    P = build_pg(3, 3)
    rng = random.Random(7)
    subs = [subgeometry(P, sorted(rng.sample(range(40), rng.randrange(26, 36)))) for _ in range(12)]
    subs.append(subgeometry(build_pg(3, 4), sorted(random.Random(3).sample(range(85), 60))))
    witnesses = {1: [10, 26, 27], 6: [10, 23, 27], 9: [2, 9, 21], 11: [0, 4, 16], 12: [18, 24, 51]}
    return [(G, witnesses.get(i)) for i, G in enumerate(subs)]


def test_generated_by_exact_above_24_points():
    cases = wrongly_true_cases()
    reps = [is_generated_by_lines(G) for G, _ in cases]
    assert [rep.witness for rep in reps] == [w and {"rule_closed_not_flat": w} for _, w in cases]
    for (G, witness), rep in zip(cases, reps):
        assert G.n_points > 24
        # each witness is a triangle whose three lines hold only its own
        # points in G
        assert least_rule_closed_non_flat_up_to_3(G) == witness
        assert (rep.verdict, rep.method, rep.seed) == (witness is None, "exhaustive", None)
        assert rep.family_size == (len(G.flats()) if rep.verdict else None)


# -- subgeometries ----------------------------------------------------------------


def test_subgeometry_full_is_same(pg32):
    sub = subgeometry(pg32, range(15))
    assert set(sub.flats()) == set(pg32.flats())


def test_elliptic_quadric_lines_are_secants(elliptic_33):
    for line in elliptic_33.lines():
        assert line.bit_count() == 2


def test_complement_of_plane_pg32(pg32):
    plane = pg32.planes()[0]
    A = subgeometry(pg32, sorted(bits_of(pg32.full_mask & ~plane)))
    assert A.n_points == 8
    assert all(line.bit_count() == 2 for line in A.lines())


def test_embedding_read_off_coordinates(pg32):
    sub = subgeometry(pg32, [9, 3, 5])
    assert not sub.is_full_pg
    assert (sub.ambient, sub.ambient_indices) == (pg32, (3, 5, 9))
    subsub = subgeometry(sub, [0, 2])
    assert (subsub.ambient, subsub.ambient_indices) == (pg32, (3, 9))
    full = subgeometry(pg32, range(15))
    assert full.is_full_pg and full.ambient is full


def test_small_quotients_are_their_own_space(pg32):
    # a plane leaves one class and the whole space none: both quotients are
    # full, so neither needs a PG(0, 2)
    for E in (pg32.planes()[0], pg32.full_mask):
        Q, _ = quotient(pg32, Flat(pg32, E))
        assert Q.is_full_pg and Q.ambient is Q
        assert Q.ambient_indices == tuple(range(Q.n_points))


def test_table_subgeometry():
    G = broken_exchange_table()
    sub = subgeometry(G, [0, 1, 2])
    assert sub.n_points == 3


# -- quotients --------------------------------------------------------------------


def test_quotient_by_empty(pg32):
    Q, pi = quotient(pg32, Flat(pg32, 0))
    assert Q.n_points == 15
    assert all(m.bit_count() == 1 for m in Q.classes)
    assert pi.exceptional.mask == 0


def test_quotient_pg32_point(pg32):
    Q, pi = quotient(pg32, closure(pg32, [0]))
    assert Q.n_points == 7
    # classes pair up the 14 remaining points two by two along lines through
    # the removed point
    assert all(m.bit_count() == 2 for m in Q.classes)
    assert Q.dim() == 2
    assert len(Q.lines()) == 7
    pi.validate()


def test_quotient_pg32_line(pg32):
    line = Flat(pg32, pg32.lines()[0])
    Q, pi = quotient(pg32, line)
    assert Q.n_points == 3
    assert Q.dim() == 1
    assert all(m.bit_count() == 4 for m in Q.classes)


def test_quotient_flats_correspond(pg33):
    E = closure(pg33, [0])
    Q, _ = quotient(pg33, E)
    # flats of the quotient are exactly the flats through E
    through = {m for m in pg33.flats() if E.mask & ~m == 0}
    lifted = set()
    for qm in Q.flats():
        pm = E.mask
        for c in bits_of(qm):
            pm |= Q.classes[c]
        lifted.add(pm)
    assert lifted == through


# -- factorization -----------------------------------------------------------------


def test_factor_projection_gives_identity(pg32):
    E = closure(pg32, [0])
    Q, pi = quotient(pg32, E)
    tilde = factor_through_quotient(pi)
    assert tilde.map == tuple(range(Q.n_points))


def test_factor_quotient_of_quotient(pg32):
    # composing the quotient by a point with the quotient by the image of a
    # line equals the direct quotient by the line
    line_mask = pg32.lines()[0]
    x = (line_mask & -line_mask).bit_length() - 1
    E1 = closure(pg32, [x])
    Q1, pi1 = quotient(pg32, E1)
    inner = sorted({pi1(i) for i in bits_of(line_mask) if pi1(i) is not None})
    E2 = closure(Q1, inner)
    Q2, pi2 = quotient(Q1, E2)
    direct_Q, direct_pi = quotient(pg32, Flat(pg32, line_mask))
    composed = {}
    for i in range(15):
        a = pi1(i)
        composed[i] = None if a is None else pi2(a)
    # the composed classes partition points exactly as the direct quotient
    blocks1 = {}
    for i, c in composed.items():
        if c is not None:
            blocks1.setdefault(c, set()).add(i)
    blocks2 = {}
    for i in range(15):
        c = direct_pi(i)
        if c is not None:
            blocks2.setdefault(c, set()).add(i)
    assert sorted(map(sorted, blocks1.values())) == sorted(map(sorted, blocks2.values()))


def test_factor_with_empty_exceptional(pg32):
    ident = PartialMorphism(pg32, pg32, Flat(pg32, 0), tuple(range(15)))
    tilde = factor_through_quotient(ident)
    assert tilde.map == tuple(range(15))


def test_factor_requires_long_lines(ag32):
    E = closure(ag32, [0])
    Q, pi = quotient(ag32, E)
    with pytest.raises(PreconditionLinesTooShort):
        factor_through_quotient(pi)


def test_factor_not_constant_raises(pg32):
    E = closure(pg32, [0])
    _, pi = quotient(pg32, E)
    bad_map = list(pi.map)
    # give two members of one class different values
    cls = next(m for m in pi.target.classes if m.bit_count() == 2)
    a, b = bits_of(cls)
    bad_map[a], bad_map[b] = 0, 1
    bad = PartialMorphism(pg32, pi.target, E, tuple(bad_map))
    with pytest.raises(NotConstantOnClasses):
        factor_through_quotient(bad)


# -- partial morphisms: validate against its earlier route ----------------------------


def ref_validate(self):
    """PartialMorphism.validate as it was when the restriction went through
    check_morphism and its finite-closure sweep, kept verbatim as the
    reference for the verdicts, exception types and messages."""
    e = self.exceptional.mask
    for i, y in enumerate(self.map):
        if (y is None) != bool(e >> i & 1):
            raise NotConstantOnClasses("definedness does not match the exceptional flat")
    # constant on classes of x v E
    seen = {}
    for i, y in enumerate(self.map):
        if y is None:
            continue
        key = self.source.closure_mask(e | (1 << i))
        if key in seen and seen[key] != y:
            raise NotConstantOnClasses(f"points {i} and class {sorted(bits_of(key))}")
        seen[key] = y
    # restriction to source - E is a morphism of the subgeometry
    dom = sorted(bits_of(self.defined_mask()))
    sub = subgeometry(self.source, dom)
    restricted = GeometryMorphism(sub, self.target, tuple(self.map[i] for i in dom))
    rep = check_morphism(restricted)
    if not rep.is_morphism:
        raise NotConstantOnClasses(f"restriction is not a morphism: {rep.witness}")
    return True


def outcome(fn):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


# messages of the failures validate now raises as NotAMorphism; the
# reference raises NotConstantOnClasses for every failure
NOT_A_MORPHISM = ("definedness does not match the exceptional flat", "restriction is not a morphism: ")


def ref_outcome(pm):
    """ref_validate's outcome, with the type the library now raises."""
    got = outcome(lambda: ref_validate(pm))
    if isinstance(got, tuple) and got[0] is NotConstantOnClasses and got[1].startswith(NOT_A_MORPHISM):
        return NotAMorphism, got[1]
    return got


def assert_validate_raises(pm, kind, message):
    assert outcome(pm.validate) == ref_outcome(pm) == (kind, message)


def test_validate_definedness_mismatch(pg32):
    E = closure(pg32, [0])
    _, pi = quotient(pg32, E)
    bad = list(pi.map)
    bad[1] = None
    pm = PartialMorphism(pg32, pi.target, E, tuple(bad))
    assert_validate_raises(pm, NotAMorphism, "definedness does not match the exceptional flat")


def test_validate_not_constant_on_a_class(pg32):
    E = closure(pg32, [0])
    Q, pi = quotient(pg32, E)
    assert sorted(bits_of(Q.classes[0])) == [1, 2]
    bad = list(pi.map)
    bad[2] = (bad[2] + 1) % Q.n_points
    pm = PartialMorphism(pg32, Q, E, tuple(bad))
    assert_validate_raises(pm, NotConstantOnClasses, "points 2 and class [0, 1, 2]")


def test_validate_restriction_not_a_morphism(pg22):
    # swapping two points of PG(2,2) is constant on the (singleton) classes
    # but sends the line {0, 3, 4} back onto the non-line {1, 3, 4}
    swap = (1, 0, 2, 3, 4, 5, 6)
    pm = PartialMorphism(pg22, pg22, Flat(pg22, 0), swap)
    assert_validate_raises(
        pm, NotAMorphism, "restriction is not a morphism: {'target_flat': [0, 3, 4], 'preimage': [1, 3, 4]}"
    )


def paired_table():
    """Six points in three pairs that no closed set separates: a table
    geometry whose singletons are not closed, so even E = 0 has classes
    of two points."""
    pairs = (0b000011, 0b001100, 0b110000)
    return TableGeometry(6, [0, 0b111111] + [a | b for a in pairs for b in pairs])


@functools.cache
def property_geometries():
    return (build_pg(2, 2), build_pg(3, 2), paired_table())


def unitriangular_product(draw, n):
    """An invertible n x n matrix over GF(2): lower times upper
    unitriangular, with entries drawn."""
    K = gf(2)
    bit = st.integers(0, 1)
    lower = [[1 if i == j else draw(bit) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(bit) if j > i else 0 for j in range(n)] for i in range(n)]
    return linalg.mat_mul(K, lower, upper)


def induced_indices(src, tgt, M):
    """The point map v -> M v between coordinate geometries over GF(2), with
    None on the kernel."""
    out = []
    for v in src.vectors:
        w = linalg.normalize_vec(src.field, linalg.matvec(src.field, M, v))
        out.append(None if w is None else tgt.point_index(w))
    return out


@st.composite
def partial_maps(draw):
    """(source, target, E, map) with E a flat of the source.  The map is a
    random index map off E, one image per class x v E, or (between
    projective spaces) induced by a matrix; then one entry may be changed."""
    geoms = property_geometries()
    src, tgt = draw(st.sampled_from(geoms)), draw(st.sampled_from(geoms))
    point = st.integers(0, tgt.n_points - 1)
    kinds = ["random", "classwise"]
    if isinstance(src, CoordGeometry) and isinstance(tgt, CoordGeometry):
        kinds.append("linear")
    kind = draw(st.sampled_from(kinds))
    if kind == "linear":
        M = [[draw(st.integers(0, 1)) for _ in range(src.ncoords)] for _ in range(tgt.ncoords)]
        images = induced_indices(src, tgt, M)
        e = mask_of(i for i, y in enumerate(images) if y is None)
    else:
        e = draw(st.sampled_from(src.flats()))
        pool = draw(st.lists(point, min_size=1, max_size=3))
        images, by_class = [], {}
        for i in range(src.n_points):
            if e >> i & 1:
                images.append(None)
            elif kind == "random":
                images.append(draw(point))
            else:
                key = src.closure_mask(e | 1 << i)
                if key not in by_class:
                    by_class[key] = draw(st.sampled_from(pool))
                images.append(by_class[key])
    change = draw(st.sampled_from([None, "value", "definedness"]))
    if change is not None:
        i = draw(st.integers(0, src.n_points - 1))
        if change == "definedness" and images[i] is not None:
            images[i] = None
        else:
            images[i] = draw(point)
    return src, tgt, e, tuple(images)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(partial_maps())
def test_validate_matches_reference(case):
    src, tgt, e, images = case
    pm = PartialMorphism(src, tgt, Flat(src, e), images)
    assert outcome(pm.validate) == ref_outcome(pm)


@st.composite
def bijections(draw):
    """A geometry and a permutation of its points: random, or (on a
    projective space) induced by an invertible matrix."""
    G = draw(st.sampled_from(property_geometries()))
    if isinstance(G, CoordGeometry) and draw(st.booleans()):
        return G, tuple(induced_indices(G, G, unitriangular_product(draw, G.ncoords)))
    return G, tuple(draw(st.permutations(range(G.n_points))))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(bijections())
def test_dim_bounds_isomorphism_matches_check_morphism(case):
    G, perm = case
    inv = [0] * len(perm)
    for i, y in enumerate(perm):
        inv[y] = i
    rep = check_dim_bounds(GeometryMorphism(G, G, perm))
    assert rep.bijective and rep.equal_dims
    assert rep.isomorphism == check_morphism(GeometryMorphism(G, G, tuple(inv))).is_morphism


def with_flat_set_preimage_test(fn):
    """fn's outcome when each flat preimage is looked up in the source's
    flat set before its closure is taken, as it was before."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_flat_preimage_witness", ref_flat_preimage_witness)
        return outcome(fn)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(partial_maps(), bijections())
def test_flat_preimages_by_closure_match_flat_set_route(case, bijection):
    """validate and check_dim_bounds give the same results and witnesses
    when flat preimages are tested by closure alone, on partial maps that
    fail in every way, on total maps (mostly neither injective nor
    morphisms) and on bijections."""
    src, tgt, e, images = case
    pm = PartialMorphism(src, tgt, Flat(src, e), images)
    assert outcome(pm.validate) == with_flat_set_preimage_test(pm.validate)
    total = GeometryMorphism(src, tgt, tuple(0 if y is None else y for y in images))
    G, perm = bijection
    for f in (total, GeometryMorphism(G, G, perm)):
        assert outcome(lambda: check_dim_bounds(f)) == with_flat_set_preimage_test(lambda: check_dim_bounds(f))


# -- dimension bounds ---------------------------------------------------------------


def test_dim_bounds_identity(pg32):
    rep = check_dim_bounds(GeometryMorphism(pg32, pg32, tuple(range(15))))
    assert rep.surjective and rep.equal_dims and rep.isomorphism


def test_dim_bounds_quotient_projection(pg32):
    E = closure(pg32, [0])
    Q, pi = quotient(pg32, E)
    dom = sorted(bits_of(pi.defined_mask()))
    sub = subgeometry(pg32, dom)
    f = GeometryMorphism(sub, Q, tuple(pi(i) for i in dom))
    rep = check_dim_bounds(f)
    assert rep.surjective and rep.dim_ok
    assert rep.dim_source - rep.dim_target == dim(pg32, E) + 1


def truncation_of_pg32(pg32):
    keep = [m for m in pg32.flats() if pg32.flat_dim(m) < 2]
    return TableGeometry(15, keep + [pg32.full_mask])


def test_dim_bounds_truncation_bijective_not_iso(pg32):
    T = truncation_of_pg32(pg32)
    assert T.dim() == 2
    f = GeometryMorphism(pg32, T, tuple(range(15)))
    assert check_morphism(f).is_morphism
    rep = check_dim_bounds(f)
    assert rep.surjective and rep.bijective and rep.dim_ok
    assert not rep.equal_dims and rep.isomorphism is False


# -- closure-operator invariants on small geometries ---------------------------------


@pytest.mark.parametrize(
    "fixture",
    ["pg32", "ag33", "two_hyperplanes_33", "elliptic_33", "cone_33", "hyperbolic_32"],
)
def test_closure_properties_and_axioms(fixture, request):
    G = request.getfixturevalue(fixture)
    assert G.n_points <= 40
    rep = check_geometry_axioms(G)
    assert rep.all_pass, rep.witnesses
    rng = random.Random(77)
    for _ in range(30):
        m = rng.getrandbits(G.n_points) & G.full_mask
        c = G.closure_mask(m)
        assert m & ~c == 0
        assert G.closure_mask(c) == c
        m2 = m | (rng.getrandbits(G.n_points) & G.full_mask)
        assert c & ~G.closure_mask(m2) == 0


# -- directed unions of embeddings ----------------------------------------------------


def test_embedding_on_directed_union(pg32):
    # the canonical embedding PG(3,2) -> PG(3,4) restricted to a chain
    # line < plane < full is an embedding at each stage and on the union
    P4 = build_pg(3, 4)
    embed = list_homomorphisms(gf(2), gf(4))[0]
    mapping = []
    for v in pg32.vectors:
        w = linalg.normalize_vec(gf(4), embed.map_vec(v))
        mapping.append(P4.point_index(w))
    mapping = tuple(mapping)

    def is_embedding(points):
        sub = subgeometry(pg32, points)
        f = GeometryMorphism(sub, P4, tuple(mapping[i] for i in points))
        if not check_morphism(f).is_morphism:
            return False
        image = sorted({mapping[i] for i in points})
        if len(image) != len(points):
            return False
        im_geo = subgeometry(P4, image)
        back = {mapping[i]: k for k, i in enumerate(points)}
        inv = tuple(back[image[j]] for j in range(len(image)))
        return check_morphism(GeometryMorphism(im_geo, sub, inv)).is_morphism

    line = sorted(bits_of(pg32.lines()[0]))
    plane = sorted(bits_of(pg32.planes()[0]))
    assert set(line) <= set(plane)
    chain = [line, plane, list(range(15))]
    for stage in chain:
        assert is_embedding(stage)


# -- partial morphisms cannot always be extended ---------------------------------------


def test_projection_has_no_extension(pg32):
    E = closure(pg32, [0])
    Q, pi = quotient(pg32, E)
    # no choice of image for the removed point yields a morphism on all of P
    for candidate in range(Q.n_points):
        mapping = tuple(candidate if i == 0 else pi(i) for i in range(15))
        rep = check_morphism(GeometryMorphism(pg32, Q, mapping))
        assert not rep.is_morphism

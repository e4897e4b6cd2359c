"""Differential tests for the coordinate closure kernel, the prefix-walk
form table, the column-wise subspace flat sweep, forward-elimination rank,
the bundle condition and the bitset bundle sweeps.

The literal algorithms they replaced are kept here as references: a
per-point in_span trace of the span, a per-point dot product for each
form, the generic quotient closure through the parent, the generic flat
sweep and the coordinate covering sweep, rank as the length of the RREF,
and the bundle certification over every itertools.combinations 4-tuple.
The per-form route, ref_form_mask in quotient_routes, is a second
reference for the form table.
The subspace enumeration with one annihilator per subspace,
ref_subspace_flats in quotient_routes, is the reference for the
column-wise sweep.
The bundle check over every 4-tuple, literal_bundle in quotient_routes, is
the reference both for the table sweep and for the theorem that decides
every coordinate geometry, quotients included, with no sweep.
"""

import functools
import itertools
import random

import pytest

from fingeo import classify, linalg
from fingeo.classify import (
    BUNDLE_LIMIT,
    BUNDLE_SEED,
    _coplanarity,
    _first_violation,
    _one_gap_tuples,
    check_bundle_theorem,
)
from fingeo.errors import CapExceeded, DimensionTooLow, ExceptionalNotFlat, NoEmbedding
from fingeo.gallery import EXAMPLE_NAMES, build_example, make_quadric
from fingeo.gf import gf
from fingeo.geometry import (
    CoordGeometry,
    CoordQuotient,
    FiniteGeometry,
    QuotientGeometry,
    TableGeometry,
    bits_of,
    mask_of,
    quotient_geometry,
    subgeometry,
)
from fingeo.projective import build_pg
from quotient_routes import (
    certified_bundles,
    literal_bundle,
    literal_violation,
    ref_form_mask,
    ref_subspace_flats,
    ref_value_masks,
)


def literal_trace(G, mask):
    """Points whose vector lies in the span of the points in mask."""
    rows, pivots = linalg.rref(G.field, [G.vectors[i] for i in bits_of(mask)])
    return mask_of(i for i, v in enumerate(G.vectors) if linalg.in_span(G.field, rows, pivots, v))


def literal_closure(G, mask):
    """The reference closure: literal traces on coordinate geometries, and
    on a quotient the parent closure of E and the representatives."""
    if isinstance(G, CoordQuotient):
        pm = G.e_mask | mask_of(G.reps[i] for i in bits_of(mask))
        s = literal_closure(G.parent, pm)
        return mask_of(i for i, rep in enumerate(G.reps) if s >> rep & 1)
    return literal_trace(G, mask)


def sample_masks(G, rng, count=60):
    masks = [0, G.full_mask]
    for _ in range(count):
        k = rng.randint(1, min(4, G.n_points))
        masks.append(mask_of(rng.sample(range(G.n_points), k)))
        masks.append(rng.getrandbits(G.n_points))
    return masks


@pytest.fixture(scope="module")
def kernel_geometries(pg32, pg33, ag33, elliptic_34):
    return {
        "pg(3,2)": pg32,
        "pg(3,3)": pg33,
        "pg(2,4)": build_pg(2, 4),
        "ag(3,3)": ag33,
        "elliptic(3,4)": elliptic_34,
    }


NAMES = ("pg(3,2)", "pg(3,3)", "pg(2,4)", "ag(3,3)", "elliptic(3,4)")


def fresh_copy(G):
    """The same coordinate geometry with empty caches."""
    return CoordGeometry(G.field, G.vectors)


@pytest.mark.parametrize("name", NAMES)
def test_closure_matches_literal_trace(kernel_geometries, name):
    G = fresh_copy(kernel_geometries[name])
    rng = random.Random(name)
    for m in sample_masks(G, rng):
        assert G.closure_mask(m) == literal_trace(G, m), sorted(bits_of(m))


@pytest.mark.parametrize("name", NAMES)
def test_quotient_closures_match_parent_route(kernel_geometries, name):
    G = kernel_geometries[name]
    rng = random.Random(f"quotient {name}")
    x = rng.randrange(G.n_points)
    line = G.lines_through(x)[0]
    for e_mask in (1 << x, line):
        Q = CoordQuotient(G, e_mask)
        generic = QuotientGeometry(G, e_mask)
        assert Q.classes == generic.classes
        assert Q.reps == generic.reps
        for m in sample_masks(Q, rng, count=30):
            assert Q.closure_mask(m) == literal_closure(Q, m) == generic.closure_mask(m)
    # the point quotient of a coordinate geometry is a coordinate quotient
    assert isinstance(G.point_quotient(x), CoordQuotient)


def test_quotient_of_quotient_matches_parent_route(pg33):
    Q = CoordQuotient(pg33, 1)
    QQ = Q.point_quotient(0)
    rng = random.Random(7)
    for m in sample_masks(QQ, rng, count=20):
        assert QQ.closure_mask(m) == literal_closure(QQ, m)


def test_coordinate_quotient_needs_a_flat(pg32):
    # points 0 and 1 span a line with a third point
    with pytest.raises(ExceptionalNotFlat):
        CoordQuotient(pg32, 0b11)


def test_table_quotient_needs_a_flat():
    # {0} closes to {0, 1}, so it is not a flat of the table
    G = TableGeometry(4, [0, 0b0011, 0b0111, 0b1011, 0b1111])
    with pytest.raises(ExceptionalNotFlat):
        quotient_geometry(G, 0b0001)
    with pytest.raises(ExceptionalNotFlat):
        G.point_quotient(0)
    assert quotient_geometry(G, 0b0011).n_points == 2


def literal_form_mask(G, form):
    """Points on which the form vanishes, one dot product per point."""
    return mask_of(i for i, v in enumerate(G.vectors) if not linalg.dot(G.field, form, v))


def trailing_one_forms(n, q):
    """Every form of K^n whose last nonzero entry is 1."""
    for j in range(n):
        for prefix in itertools.product(range(q), repeat=j):
            yield prefix + (1,) + (0,) * (n - j - 1)


def assert_form_table_matches(G):
    """G's form table holds exactly the forms with a trailing 1, each with
    the mask of the per-point dot product and of the per-form route."""
    table = G._form_table
    forms = list(trailing_one_forms(G.ncoords, G.field.q))
    assert sorted(table) == sorted(forms), G.label()
    value_masks = ref_value_masks(G)
    for form in forms:
        assert table[form] == literal_form_mask(G, form) == ref_form_mask(G, form, value_masks), form


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
def test_form_mask_matches_dot_loop(q):
    """Every form of a seeded subgeometry of PG(3, q) and of its quotients
    by a point and by a line."""
    rng = random.Random(f"form masks {q}")
    P = build_pg(3, q)
    X = subgeometry(P, rng.sample(range(P.n_points), rng.randrange(3, min(P.n_points, 60))))
    line = X.closure_mask(mask_of(rng.sample(range(X.n_points), 2)))
    for G in (X, CoordQuotient(X, 1 << rng.randrange(X.n_points)), CoordQuotient(X, line)):
        assert_form_table_matches(G)


def test_form_table_edge_cases():
    """The empty geometry has no form, a point of PG(0, q) one form, which
    misses it, and a subgeometry of PG(11, 2) all 4095 forms of GF(2)^12."""
    K = gf(2)
    empty = CoordGeometry(K, [])
    assert empty._form_table == {} and empty.closure_mask(0) == 0
    for q in (2, 5, 16):
        point = CoordGeometry(gf(q), [(1,)])
        assert point._form_table == {(1,): 0}
        assert point.closure_mask(0) == 0 and point.closure_mask(1) == 1
    rng = random.Random("form masks PG(11, 2)")
    X = CoordGeometry(K, [tuple(v >> i & 1 for i in range(12)) for v in rng.sample(range(1, 1 << 12), 50)])
    assert len(X._form_table) == 4095
    assert_form_table_matches(X)


@pytest.mark.parametrize("name", NAMES)
def test_covering_sweep_matches_generic_sweep(kernel_geometries, name):
    G = fresh_copy(kernel_geometries[name])
    ref = fresh_copy(G)
    FiniteGeometry._build_flats(ref)
    assert G.flats() == ref.flats()
    assert G._flat_dims == ref._flat_dims
    # the bases built on demand are those the covering sweep extended
    rows_of = ref_covering_flats(fresh_copy(G))
    for m in G.flats():
        assert G.flat_rows(m) == rows_of[m]


def test_covering_sweep_on_quotients(pg33, elliptic_34):
    for G in (pg33, elliptic_34):
        Q = CoordQuotient(G, 1)
        ref = QuotientGeometry(G, 1)
        assert Q.flats() == ref.flats()
        assert Q._flat_dims == ref._flat_dims


def ref_covering_flats(G):
    """The covering sweep that enumerated the flats of a coordinate geometry
    before the subspace enumeration, kept verbatim: extend each flat's basis
    by one outside point x.  Every other point of the resulting flat gives
    the same span, so all of them leave the points still to visit.  The
    flats are stored on G, and their bases returned as {mask: (rows,
    pivots)}."""
    K = G.field
    rows_of = {0: ((), ())}
    frontier = [0]
    while frontier:
        nxt = []
        for fmask in frontier:
            rows, pivots = rows_of[fmask]
            rest = G.full_mask & ~fmask
            while rest:
                x = (rest & -rest).bit_length() - 1
                basis = linalg.rref_extend(K, rows, pivots, G.vectors[x])
                t = G.trace_mask(*basis)
                # a trace missing x would leave x in rest for good
                assert t >> x & 1, (G.label(), x)
                rest &= ~t
                if t not in rows_of:
                    rows_of[t] = basis
                    nxt.append(t)
        frontier = nxt
    G._store_flats({m: len(rows) - 1 for m, (rows, _) in rows_of.items()})
    return rows_of


def assert_flats_match_covering_sweep(make):
    """Two fresh geometries from make: one enumerates its flats, the other
    runs the covering sweep; the flats, their dimensions, the flats of
    each dimension and each flat's basis agree."""
    G, ref = make(), make()
    rows_of = ref_covering_flats(ref)
    assert G.flats() == ref.flats(), G.label()
    assert G._flat_dims == ref._flat_dims, G.label()
    for d in range(-1, ref.dim() + 2):
        assert G.rank_flats(d) == ref.rank_flats(d), (G.label(), d)
    for m in ref.flats():
        assert G.flat_rows(m) == rows_of[m], (G.label(), m)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_flats_match_covering_sweep_on_gallery(q):
    for name in EXAMPLE_NAMES:
        if name == "subfield-complement" and q in (2, 3, 5):
            continue  # no proper subfield to embed
        X = build_example(name, gf(q))
        assert_flats_match_covering_sweep(functools.partial(fresh_copy, X))


@pytest.mark.parametrize("n, q", ((3, 3), (4, 2), (5, 2)))
def test_flats_match_covering_sweep_on_random_subgeometries(n, q):
    P = build_pg(n, q)
    rng = random.Random(f"subgeometry flats {n} {q}")
    for _ in range(6):
        idx = rng.sample(range(P.n_points), rng.randrange(4, P.n_points))
        assert_flats_match_covering_sweep(functools.partial(subgeometry, P, idx))


@pytest.mark.parametrize("n, q", ((3, 2), (3, 3), (4, 2)))
def test_flats_match_covering_sweep_on_quotients(n, q):
    P = build_pg(n, q)
    rng = random.Random(f"quotient flats {n} {q}")
    x = rng.randrange(P.n_points)
    for e_mask in (1 << x, rng.choice(P.lines_through(x))):
        assert_flats_match_covering_sweep(functools.partial(CoordQuotient, P, e_mask))


def test_flats_match_covering_sweep_on_quadric_quotients(elliptic_33, cone_34):
    for X in (elliptic_33, cone_34):
        assert_flats_match_covering_sweep(functools.partial(CoordQuotient, X, 1))


def covering_sweep(G):
    """The coordinate sweep's skip applied to any closure: what it finds."""
    seen = {G.closure_mask(0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for f in frontier:
            rest = G.full_mask & ~f
            while rest:
                x = (rest & -rest).bit_length() - 1
                t = G.closure_mask(f | 1 << x)
                rest &= ~t
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def test_table_failing_exchange_keeps_every_flat():
    # {1} < {1, 2} < {0, 1, 2, 3} breaks exchange: {1} v 0 is everything
    G = TableGeometry(4, [[], [0], [1], [2], [3], [1, 2], [0, 1, 2, 3]])
    every_closure = {G.closure_mask(m) for m in range(1 << G.n_points)}
    assert set(G.flats()) == every_closure
    assert mask_of([1, 2]) in G.flat_set()
    # the covering skip would lose it, so the generic sweep must not skip
    assert mask_of([1, 2]) not in covering_sweep(G)


# -- column-wise subspace sweep -------------------------------------------------


def assert_sweep_matches_subspace_flats(make):
    """Two fresh geometries from make: one runs the column-wise sweep, the
    other the subspace enumeration it replaced; the flats, their
    dimensions, the flats of each dimension and each flat's basis agree."""
    G, ref = make(), make()
    G.flats()
    rows_of = ref_subspace_flats(ref)
    assert G._flats == ref._flats, G.label()
    assert G._flat_dims == ref._flat_dims, G.label()
    assert G._flats_by_dim == ref._flats_by_dim, G.label()
    for m in ref.flats():
        assert G.flat_rows(m) == rows_of[m], (G.label(), m)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_sweep_matches_subspace_flats_on_gallery(q):
    """Every gallery example that builds over GF(q), and its quotients by a
    point and by a line through it."""
    for name in EXAMPLE_NAMES:
        try:
            X = build_example(name, gf(q))
        except NoEmbedding:
            continue  # no proper subfield to embed
        assert_sweep_matches_subspace_flats(functools.partial(fresh_copy, X))
        rng = random.Random(f"sweep quotients {name} {q}")
        x, y = rng.sample(range(X.n_points), 2)
        for e_mask in (1 << x, X.line_through_pair(x, y)):
            assert_sweep_matches_subspace_flats(functools.partial(CoordQuotient, X, e_mask))


@pytest.mark.parametrize("n, q", ((1, 2), (1, 7), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)))
def test_sweep_matches_subspace_flats_on_random_subgeometries(n, q):
    """Seeded random subgeometries of PG(n, q) of every size from the empty
    geometry and a single point up to the whole space, and their quotients
    by a point."""
    P = build_pg(n, q)
    rng = random.Random(f"sweep subgeometries {n} {q}")
    for k in (0, 1, 2, P.n_points, *(rng.randrange(P.n_points + 1) for _ in range(6))):
        idx = rng.sample(range(P.n_points), k)
        assert_sweep_matches_subspace_flats(functools.partial(subgeometry, P, idx))
        if k:
            X = subgeometry(P, idx)
            assert_sweep_matches_subspace_flats(functools.partial(CoordQuotient, X, 1 << rng.randrange(k)))


def planned_rows(G):
    """The flats whose RREF basis G has planned."""
    return {key[1] for key in G._plans if key[0] is CoordGeometry.span_rows}


def test_sweep_builds_no_rows(pg33, elliptic_34):
    """The sweep records ranks only: no flat has a basis until a join asks.
    A join the dimension bounds decide (two lines through a point, or any
    two lines of a plane) builds no basis; a join of two disjoint lines in
    dimension 3 takes a rank, and builds the bases of the two flats it joins
    and no other."""
    for G in (fresh_copy(pg33), fresh_copy(elliptic_34), CoordQuotient(elliptic_34, 1), CoordQuotient(build_pg(4, 2), 1)):
        G.flats()
        assert planned_rows(G) == set(), G.label()
        lines = G.lines()
        m1 = lines[0]
        meeting, disjoint = next(m for m in lines[1:] if m & m1), next(m for m in lines if not m & m1)
        for m2 in (meeting, disjoint) if G.dim() == 2 else (meeting,):
            assert G.join_dim(m1, m2) == G.flat_dim(G.closure_mask(m1 | m2))
        assert planned_rows(G) == set(), G.label()
        if G.dim() == 3:
            assert G.join_dim(m1, disjoint) == G.flat_dim(G.closure_mask(m1 | disjoint))
            assert planned_rows(G) == {m1, disjoint}, G.label()


def test_sweep_builds_no_annihilator(monkeypatch, pg33, elliptic_34):
    """The sweep reads each form off its column, so it never asks
    linalg.annihilator for a span's forms."""
    geometries = [fresh_copy(pg33), fresh_copy(elliptic_34), CoordQuotient(elliptic_34, 1)]
    calls = []
    annihilator = linalg.annihilator
    monkeypatch.setattr(linalg, "annihilator", lambda *args: calls.append(args) or annihilator(*args))
    for G in geometries:
        G.flats()
    assert calls == []


def test_cold_closures_build_the_form_table_once(monkeypatch, pg33, elliptic_34):
    """The first closure on a fresh geometry builds the whole form table;
    later closures and the flat sweep read it and build nothing more."""
    built = []
    walk = CoordGeometry._form_table.func
    counted = functools.cached_property(lambda G: built.append(G) or walk(G))
    counted.__set_name__(CoordGeometry, "_form_table")
    monkeypatch.setattr(CoordGeometry, "_form_table", counted)
    rng = random.Random("one walk")
    for G in (fresh_copy(pg33), fresh_copy(elliptic_34), CoordQuotient(fresh_copy(elliptic_34), 1)):
        for m in sample_masks(G, rng, count=10):
            assert G.closure_mask(m) == literal_closure(G, m)
        assert built[-1] is G
        G.flats()
        assert built.count(G) == 1 and len(G._form_table) == (G.field.q**G.ncoords - 1) // (G.field.q - 1)


class ReadRecord(dict):
    """A form table that records the forms read from it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, form):
        self.read.add(form)
        return super().__getitem__(form)


class Unreadable(tuple):
    def __iter__(self):
        raise AssertionError("coordinates read")

    def __getitem__(self, i):
        raise AssertionError("coordinates read")


def test_sweep_reads_only_table_entries(pg33, elliptic_34):
    """Given its form table, the flat sweep reads every form of it and no
    coordinate of a point: no mask comes from anywhere else."""
    for G in (pg33, elliptic_34, CoordQuotient(elliptic_34, 1)):
        got, ref = fresh_copy(G), fresh_copy(G)
        table = got.__dict__["_form_table"] = ReadRecord(fresh_copy(G)._form_table)
        got.vectors = Unreadable(got.vectors)
        got.flats()
        ref_subspace_flats(ref)
        assert table.read == set(table)
        assert got._flat_dims == ref._flat_dims and got._flats == ref._flats


# -- bundle sweep -------------------------------------------------------------


def assert_bundle_agrees(X, limit, seed=BUNDLE_SEED):
    """Both sweeps give the same report, or both find the dimension too
    low; returns the report (None in the second case)."""
    try:
        want = literal_bundle(X, limit, seed)
    except DimensionTooLow:
        with pytest.raises(DimensionTooLow):
            check_bundle_theorem(X, limit=limit, seed=seed)
        return None
    got = check_bundle_theorem(X, limit=limit, seed=seed).as_dict()
    assert got == want, X.label()
    return got


def minus_plane(P, k):
    """The flat table of P with its k-th plane removed."""
    plane = P.planes()[k]
    return TableGeometry(P.n_points, [m for m in P.flats() if m != plane])


@pytest.mark.parametrize("limit", (10**8, 10))
@pytest.mark.parametrize("k", range(15))
def test_bundle_on_pg32_minus_a_plane(pg32, k, limit):
    got = assert_bundle_agrees(minus_plane(pg32, k), limit)
    if k == 0:
        # points 0, 1, 2 no longer close to a plane, so the greedy
        # dimension of the whole table drops to 2
        assert got is None
    else:
        assert got["method"] == ("sampled" if limit == 10 else "exhaustive")
        assert got["certificates"]["violations"] == 5


def test_bundle_seed_draws_the_witnesses_of_a_table(pg32):
    """A table's sampled witnesses come from the given seed."""
    got = assert_bundle_agrees(minus_plane(pg32, 3), 10, seed=7)
    assert got["method"] == "sampled" and got["seed"] == 7
    assert got["witnesses"] != check_bundle_theorem(minus_plane(pg32, 3), limit=10).as_dict()["witnesses"]


@pytest.mark.parametrize("limit", (10**8, 10))
def test_bundle_matches_literal_on_gallery(pg32, hyperbolic_32, elliptic_33, two_hyperplanes_33, limit):
    cone_32 = make_quadric(pg32, "cone")
    for X in (pg32, hyperbolic_32, cone_32, elliptic_33, two_hyperplanes_33):
        assert_bundle_agrees(X, limit)


@pytest.mark.parametrize("n, q, quotient", ((3, 2, False), (3, 3, False), (4, 2, False), (4, 2, True), (4, 3, True)))
def test_bundle_theorem_matches_literal_on_random_coordinate_geometries(n, q, quotient):
    """Three seeded subgeometries of PG(n, q), or point quotients of them,
    of dimension >= 3 and with at most 50 lines: the literal search finds no
    violation, although each has four lines with exactly five coplanar
    pairs."""
    P = build_pg(n, q)
    rng = random.Random(f"bundle corpus {n} {q} {quotient}")
    found = 0
    while found < 3:
        X = subgeometry(P, rng.sample(range(P.n_points), rng.randrange(6, min(P.n_points, 20))))
        if quotient:
            X = X.point_quotient(rng.randrange(X.n_points))
        if X.dim() < 3 or len(X.lines()) > 50:
            continue
        got = assert_bundle_agrees(X, BUNDLE_LIMIT)
        assert got["verdict"] is True and got["certificates"]["violations"] == 0
        assert next(_one_gap_tuples(_coplanarity(X)[1]), None) is not None, X.label()
        found += 1


def test_bundle_theorem_runs_no_sweep_on_coordinate_geometries(pg32, pg33, elliptic_33, monkeypatch):
    def sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(classify, "_coplanarity", sweep)
    monkeypatch.setattr(classify, "_first_violation", sweep)
    for X in (pg33, elliptic_33, CoordQuotient(build_pg(4, 2), 1)):
        assert check_bundle_theorem(X).verdict is True
    # a table still sweeps
    with pytest.raises(AssertionError, match="swept"):
        check_bundle_theorem(minus_plane(pg32, 3))


@pytest.mark.parametrize("k, violations", ((1, 3), (7, 1)))
def test_bundle_sampled_on_pg33_minus_a_plane(pg33, k, violations):
    got = assert_bundle_agrees(minus_plane(pg33, k), BUNDLE_LIMIT)
    assert got["method"] == "sampled" and got["seed"] == BUNDLE_SEED
    assert got["certificates"]["violations"] == violations


def test_bundle_reports_a_violation_every_draw_misses(pg33):
    X = minus_plane(pg33, 3)
    # the seeded draws alone would call the condition satisfied
    assert literal_bundle(X, BUNDLE_LIMIT)["verdict"] is True
    v = check_bundle_theorem(X)
    assert v.verdict is False and v.method == "sampled" and v.seed == BUNDLE_SEED
    assert v.certificates["violations"] == len(v.witnesses) == 1
    lines = X.lines()
    assert literal_violation(X)(tuple(lines.index(mask_of(w)) for w in v.witnesses[0]))


def test_pair_sweep_matches_literal_search(pg32, elliptic_33, cone_33):
    tables = [minus_plane(pg32, k) for k in range(1, 15)]
    assert all(T.dim() == 3 for T in tables)
    gallery = [build_example(name, gf(2)) for name in EXAMPLE_NAMES if name != "subfield-complement"]
    outcomes = set()
    for X in tables + gallery + [elliptic_33, cone_33]:
        nl = len(X.lines())
        assert nl <= 58
        hit = literal_violation(X)
        _, adj, co = _coplanarity(X)
        first = _first_violation(adj, co)
        assert (first is not None) == any(map(hit, itertools.combinations(range(nl), 4))), X.label()
        assert first is None or hit(first), X.label()
        outcomes.add(first is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("density", (0.3, 0.6, 0.9))
def test_one_gap_enumeration_matches_combinations(density):
    rng = random.Random(density)
    n = 22
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    want = [
        tup
        for tup in itertools.combinations(range(n), 4)
        if sum(not adj[i] >> j & 1 for i, j in itertools.combinations(tup, 2)) == 1
    ]
    assert want
    assert list(_one_gap_tuples(adj)) == want


# -- rank -----------------------------------------------------------------------


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
def test_rank_matches_rref_length(q):
    K = gf(q)
    rng = random.Random(q)
    cases = [(), ((0, 0, 0),), ((1, 2 % q, 0), (1, 2 % q, 0))]
    for _ in range(150):
        ncols = rng.randint(1, 6)
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [
            tuple(rng.randrange(1, q) if rng.random() < density else 0 for _ in range(ncols))
            for _ in range(rng.randint(0, 7))
        ]
        if rows:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * ncols)
            rows.append(rng.choice(rows))
            # a multiple of one row plus another lies in their span
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(linalg.vec_add(K, linalg.vec_scale(K, rng.randrange(q), a), b))
        cases.append(tuple(rows))
    for rows in cases:
        assert linalg.rank(K, rows) == len(linalg.rref(K, rows)[0]), rows


# -- bundle certification ----------------------------------------------------------


def literal_certified_bundles(X):
    """(count, all_concurrent) over every itertools.combinations 4-tuple."""
    lines = X.lines()

    def coplanar(*ms):
        m = 0
        for x in ms:
            m |= x
        return X.flat_dim(X.closure_mask(m)) <= 2

    count = 0
    all_conc = True
    for tup in itertools.combinations(lines, 4):
        if not all(coplanar(a, b) for a, b in itertools.combinations(tup, 2)):
            continue
        if any(coplanar(a, b, c) for a, b, c in itertools.combinations(tup, 3)):
            continue
        count += 1
        if not tup[0] & tup[1] & tup[2] & tup[3]:
            all_conc = False
    return count, all_conc


def test_certified_bundles_cap(elliptic_34):
    assert len(elliptic_34.lines()) == 136
    with pytest.raises(CapExceeded):
        certified_bundles(elliptic_34)


def test_certified_bundles_match_literal(pg32, elliptic_33):
    for X in (pg32, elliptic_33, minus_plane(pg32, 3)):
        got = certified_bundles(X)
        assert got == literal_certified_bundles(X), X.label()
        assert got[0] > 0

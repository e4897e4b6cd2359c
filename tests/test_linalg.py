"""Exact linear algebra over small Galois fields.

rref and rref_extend, which run on forward elimination, are checked tuple
for tuple against the Gauss-Jordan sweep they replaced
(quotient_routes.ref_rref), and rref is shown to stop reading rows at full
rank.  The span kernels are checked tuple for tuple against the routes they
replaced (quotient_routes.ref_intersect_spans and ref_quotient_projection),
span_meet by the RREF of its basis against ref_intersect_spans, and the
table-driven vector kernels against FieldElement arithmetic.  pair_solver is
checked against solve, and twisted_images against the per-point route
normalize_vec(apply_vec(v)).  mat_mul, which adds table rows of B, is
checked against one dot product per entry on every shape, empty ones
included, and the quotient projection against the inverse of a frame plus
the span's basis.
"""

import functools
import itertools
import random
from collections import Counter

import pytest

from fingeo import linalg
from fingeo.gf import gf, hom_from_power, list_homomorphisms
from fingeo.projective import SemilinearMap
from quotient_routes import identity_matrix, ref_intersect_spans, ref_quotient_projection, ref_rref


def random_matrix(rng, K, m, n):
    return tuple(tuple(rng.randrange(K.q) for _ in range(n)) for _ in range(m))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_properties(q):
    K = gf(q)
    rng = random.Random(q * 101)
    for _ in range(80):
        M = random_matrix(rng, K, rng.randrange(1, 6), rng.randrange(1, 6))
        rows, pivots = linalg.rref(K, M)
        assert len(rows) == len(pivots)
        assert list(pivots) == sorted(pivots)
        for i, (row, piv) in enumerate(zip(rows, pivots)):
            assert row[piv] == 1
            for other in range(len(rows)):
                if other != i:
                    assert rows[other][piv] == 0
        # row space is preserved: every original row reduces to zero
        for r in M:
            assert linalg.in_span(K, rows, pivots, r)
        # idempotent
        again, p2 = linalg.rref(K, rows)
        assert again == rows and p2 == pivots


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_echelon_properties(q):
    """The same random matrices as test_rref_properties: the kept rows are
    nonzero, normalised at distinct leads, each zero at the earlier leads,
    and span the rows; the rank counts them."""
    K = gf(q)
    rng = random.Random(q * 101)
    for _ in range(80):
        M = random_matrix(rng, K, rng.randrange(1, 6), rng.randrange(1, 6))
        kept = linalg.echelon(K, M)
        leads = [next(j for j, c in enumerate(row) if c) for row in kept]
        assert len(set(leads)) == len(leads)
        for i, (row, lead) in enumerate(zip(kept, leads)):
            assert row[lead] == 1
            assert all(row[earlier] == 0 for earlier in leads[:i])
        assert linalg.rref(K, kept) == linalg.rref(K, M)
        assert linalg.rank(K, M) == len(kept) == len(linalg.rref(K, M)[0])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_solve_and_kernel(q):
    K = gf(q)
    rng = random.Random(q * 7)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_matrix(rng, K, m, n)
        x = tuple(rng.randrange(q) for _ in range(n))
        b = linalg.matvec(K, A, x)
        got = linalg.solve(K, A, b)
        assert got is not None
        assert linalg.matvec(K, A, got) == b
        for kv in linalg.kernel_basis(K, A):
            assert linalg.matvec(K, A, kv) == linalg.zero_vec(m)
        assert len(linalg.kernel_basis(K, A)) == n - linalg.rank(K, A)


def test_solve_inconsistent():
    K = gf(3)
    A = ((1, 0), (1, 0))
    assert linalg.solve(K, A, (1, 2)) is None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverse(q):
    K = gf(q)
    rng = random.Random(q)
    n = 4
    count = 0
    while count < 20:
        M = random_matrix(rng, K, n, n)
        inv = linalg.inverse(K, M)
        if linalg.rank(K, M) < n:
            assert inv is None
            continue
        count += 1
        assert linalg.mat_mul(K, M, inv) == identity_matrix(n)
        assert linalg.mat_mul(K, inv, M) == identity_matrix(n)


def test_normalize_vec():
    K = gf(5)
    assert linalg.normalize_vec(K, (0, 2, 4)) == (0, 1, 2)
    assert linalg.normalize_vec(K, (0, 0, 0)) is None
    assert linalg.normalize_vec(K, (1, 3, 0)) == (1, 3, 0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_span_points_counts(q):
    K = gf(q)
    rng = random.Random(q * 13)
    for _ in range(20):
        M = random_matrix(rng, K, rng.randrange(1, 4), 4)
        rows, pivots = linalg.rref(K, M)
        pts = linalg.span_points(K, rows)
        r = len(rows)
        assert len(pts) == (q**r - 1) // (q - 1)
        assert set(pts) == {v for v in linalg.all_proj_points(K, 4) if linalg.in_span(K, rows, pivots, v)}
    assert linalg.span_points(K, ()) == []


@pytest.mark.parametrize("q", [2, 3])
def test_intersect_spans(q):
    K = gf(q)
    rng = random.Random(q * 17)
    for _ in range(40):
        A = random_matrix(rng, K, rng.randrange(1, 4), 4)
        B = random_matrix(rng, K, rng.randrange(1, 4), 4)
        ra, pa = linalg.rref(K, A)
        rb, pb = linalg.rref(K, B)
        inter = linalg.intersect_spans(K, ra, rb)
        ri, pi = linalg.rref(K, inter)
        # oracle: enumerate all vectors of both spans
        span_a = {v for v in linalg.all_vectors(K, 4) if linalg.in_span(K, ra, pa, v)}
        span_b = {v for v in linalg.all_vectors(K, 4) if linalg.in_span(K, rb, pb, v)}
        both = span_a & span_b
        span_i = {v for v in linalg.all_vectors(K, 4) if linalg.in_span(K, ri, pi, v)}
        assert span_i == both


def test_rref_extend_matches_rref():
    K = gf(3)
    rng = random.Random(29)
    for _ in range(50):
        M = random_matrix(rng, K, rng.randrange(0, 4), 4)
        rows, piv = linalg.rref(K, M)
        v = tuple(rng.randrange(3) for _ in range(4))
        r2, p2 = linalg.rref_extend(K, rows, piv, v)
        expect = linalg.rref(K, list(rows) + [v])
        assert (r2, p2) == expect


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_rref_matches_gauss_jordan(q):
    """Seeded inputs of widths 1 to 7 and 0 to 12 rows, with zero and
    repeated rows, given as a tuple, a list of lists and a generator: rref
    and rref_extend give the reference RREF, rows and pivots alike."""
    K = gf(q)
    rng = random.Random(f"rref {q}")
    for _ in range(300):
        n = rng.randrange(1, 8)
        M = list(random_matrix(rng, K, rng.randrange(13), n))
        for _ in range(rng.randrange(3)):
            M.insert(rng.randrange(len(M) + 1), rng.choice(M) if M and rng.random() < 0.5 else (0,) * n)
        want = ref_rref(K, M)
        assert linalg.rref(K, tuple(M)) == want, M
        assert linalg.rref(K, [list(r) for r in M]) == want, M
        assert linalg.rref(K, (r for r in M)) == want, M
        rows, pivots = want
        v = random_matrix(rng, K, 1, n)[0] if rng.random() < 0.7 else (0,) * n
        assert linalg.rref_extend(K, rows, pivots, v) == ref_rref(K, rows + (v,)), (rows, v)
    assert linalg.rref(K, ()) == ref_rref(K, ()) == ((), ())
    assert linalg.rref(K, [(0, 0, 0)] * 3) == ref_rref(K, [(0, 0, 0)] * 3) == ((), ())


def test_rref_stops_reading_at_full_rank():
    """Rows after n rows that span K^n are never read."""
    K = gf(3)

    def rows():
        yield from ((1, 2, 0), (1, 1, 1), (0, 0, 2))
        raise AssertionError("a row after full rank was read")

    assert linalg.rref(K, rows()) == (identity_matrix(3), (0, 1, 2))


def gaussian_binomial(n, r, q):
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_subspaces_once_each_by_rank(q):
    K = gf(q)
    for n in range(5 if q <= 4 else 4):
        listed = list(linalg.subspaces(K, n))
        ranks = [len(rows) for rows, _ in listed]
        assert ranks == sorted(ranks)
        for r in range(n + 1):
            assert ranks.count(r) == gaussian_binomial(n, r, q), (n, r)
        for rows, pivots in listed:
            assert linalg.rref(K, rows) == (rows, pivots)
        assert len(set(listed)) == len(listed)


def test_sigma_matrix_twist():
    K = gf(4)
    frob = hom_from_power(K, K, 1)
    M = ((1, 2), (3, 0))
    assert frob.map_matrix(M) == ((1, 3), (2, 0))


def test_all_proj_points_is_normalized_lex():
    K = gf(2)
    pts = linalg.all_proj_points(K, 3)
    assert pts == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_annihilator_and_quotient_projection(q):
    K = gf(q)
    rng = random.Random(q * 313)
    for _ in range(60):
        n = rng.randrange(1, 6)
        rows, pivots = linalg.rref(K, random_matrix(rng, K, rng.randrange(0, 5), n))
        forms = linalg.annihilator(K, rows, pivots, n)
        assert len(forms) == n - len(rows)
        assert linalg.rank(K, forms) == len(forms)
        for f in forms:
            assert f[max(j for j, c in enumerate(f) if c)] == 1  # trailing 1
            assert all(linalg.dot(K, f, r) == 0 for r in rows)
        # a vector lies in the span exactly when every form vanishes on it,
        # and exactly when the projection to V/W kills it
        proj = linalg.quotient_projection(K, rows, pivots, n)
        if q**n > 256:
            continue
        for v in linalg.all_vectors(K, n):
            inside = linalg.in_span(K, rows, pivots, v)
            assert inside == all(linalg.dot(K, f, v) == 0 for f in forms)
            assert inside == (not any(linalg.matvec(K, proj, v)))


SPAN_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]
SPAN_KINDS = ("empty", "zero", "full", "raw", "rref")


def span_rows(rng, K, n, kind):
    """Seeded rows in K^n: none, all zero, an invertible n x n matrix, raw
    rows, or an RREF basis; the last three padded with duplicated,
    dependent and zero rows in random order (the RREF basis is not)."""
    if kind == "empty":
        return ()
    if kind == "zero":
        return ((0,) * n,) * rng.randrange(1, 3)
    if kind == "full":
        rows = ()
        while linalg.rank(K, rows) < n:
            rows = random_matrix(rng, K, n, n)
    else:
        rows = random_matrix(rng, K, rng.randrange(1, n + 1), n)
    if kind == "rref":
        return linalg.rref(K, rows)[0]
    rows = list(rows)
    for _ in range(rng.randrange(4)):
        extra = rng.choice(("duplicate", "dependent", "zero"))
        if extra == "duplicate":
            rows.append(rng.choice(rows))
        elif extra == "dependent":
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(linalg.vec_add(K, linalg.vec_scale(K, rng.randrange(K.q), a),
                                       linalg.vec_scale(K, rng.randrange(K.q), b)))
        else:
            rows.append((0,) * n)
    rng.shuffle(rows)
    return tuple(rows)


@pytest.mark.parametrize("q", SPAN_FIELDS)
def test_intersect_spans_matches_reference(q):
    K = gf(q)
    rng = random.Random(f"intersect {q}")
    for kinds in itertools.product(SPAN_KINDS, repeat=2):
        for n in range(1, 7):
            A, B = (span_rows(rng, K, n, kind) for kind in kinds)
            assert linalg.intersect_spans(K, A, B) == ref_intersect_spans(K, A, B), (kinds, A, B)


@pytest.mark.parametrize("q", SPAN_FIELDS)
def test_span_meet_matches_reference(q):
    """span_meet against an echelon basis gives an independent basis of the
    reference intersection, and returns a basis inside span(rows) as it is."""
    K = gf(q)
    rng = random.Random(f"span meet {q}")
    inside_seen = 0
    for kinds in itertools.product(SPAN_KINDS, repeat=2):
        for n in range(1, 7):
            A, B = (span_rows(rng, K, n, kind) for kind in kinds)
            basis = linalg.echelon(K, B)
            got = linalg.span_meet(K, A, basis)
            assert linalg.rank(K, got) == len(got)
            assert linalg.rref(K, got)[0] == ref_intersect_spans(K, A, basis), (kinds, A, B)
            combos = [
                functools.reduce(lambda u, v: linalg.vec_add(K, u, v),
                                 (linalg.vec_scale(K, rng.randrange(q), r) for r in A), (0,) * n)
                for _ in range(rng.randrange(1, 3))
            ]
            inside = linalg.echelon(K, combos)
            if inside:
                assert linalg.span_meet(K, A, inside) is inside, (A, inside)
                inside_seen += 1
    assert inside_seen


@pytest.mark.parametrize("q", SPAN_FIELDS)
def test_quotient_projection_matches_reference(q):
    K = gf(q)
    rng = random.Random(f"projection {q}")
    for kind in SPAN_KINDS:
        for n in range(1, 7):
            rows, pivots = linalg.rref(K, span_rows(rng, K, n, kind))
            got = linalg.quotient_projection(K, rows, pivots, n)
            assert got == ref_quotient_projection(K, rows, pivots, n), (kind, rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_table_kernels_match_field_arithmetic(q):
    K = gf(q)
    rng = random.Random(f"tables {q}")

    def elements(v):
        return [K.element(a) for a in v]

    def values(xs):
        return tuple(int(x) for x in xs)

    def fdot(u, v):
        return int(sum((a * b for a, b in zip(elements(u), elements(v))), K.element(0)))

    for _ in range(40):
        n = rng.randrange(1, 7)
        u, v = (random_matrix(rng, K, 1, n)[0] for _ in range(2))
        if rng.random() < 0.2:
            u = (0,) * n
        c = rng.randrange(q)
        M = random_matrix(rng, K, rng.randrange(1, 5), n)
        N = random_matrix(rng, K, n, rng.randrange(1, 5))
        assert linalg.vec_add(K, u, v) == values(a + b for a, b in zip(elements(u), elements(v)))
        assert linalg.vec_sub(K, u, v) == values(a - b for a, b in zip(elements(u), elements(v)))
        assert linalg.vec_scale(K, c, u) == values(K.element(c) * a for a in elements(u))
        assert linalg.dot(K, u, v) == fdot(u, v)
        assert linalg.matvec(K, M, u) == tuple(fdot(row, u) for row in M)
        assert linalg.mat_mul(K, M, N) == tuple(tuple(fdot(row, col) for col in zip(*N)) for row in M)
        lead = next((a for a in elements(u) if int(a)), None)
        expect = None if lead is None else values(a / lead for a in elements(u))
        assert linalg.normalize_vec(K, u) == expect


FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", FIELDS)
def test_pair_solver_matches_solve(q):
    """Seeded column pairs of length 3 to 5, zero and proportional columns
    among them: no solver exactly when the rank is below 2; otherwise the
    solver gives solve's (a, b) on the span, and None off it, also when y
    leaves the span in one row only."""
    K = gf(q)
    rng = random.Random(f"pair solver {q}")
    seen = Counter()
    for _ in range(150):
        m = rng.randrange(3, 6)
        u = random_matrix(rng, K, 1, m)[0]
        v = rng.choice([(0,) * m, linalg.vec_scale(K, rng.randrange(q), u), random_matrix(rng, K, 1, m)[0]])
        if rng.random() < 0.5:
            u, v = v, u
        solver = linalg.pair_solver(K, u, v)
        assert (solver is None) == (linalg.rank(K, (u, v)) < 2), (u, v)
        if solver is None:
            seen["dependent"] += 1
            continue
        A = linalg.transpose((u, v))
        inside = linalg.vec_add(K, linalg.vec_scale(K, rng.randrange(q), u), linalg.vec_scale(K, rng.randrange(q), v))
        k = rng.randrange(m)
        nudged = inside[:k] + (K._add[inside[k]][rng.randrange(1, q)],) + inside[k + 1 :]
        for y in (inside, nudged, random_matrix(rng, K, 1, m)[0]):
            want = linalg.solve(K, A, y)
            assert solver(y) == want, (u, v, y)
            seen["inside" if want is not None else "outside"] += 1
    assert min(seen[k] for k in ("dependent", "inside", "outside")) > 0, seen


FIELD_PAIRS = [(q, q2) for q in FIELDS for q2 in FIELDS if list_homomorphisms(gf(q), gf(q2))]


@pytest.mark.parametrize("q, q2", FIELD_PAIRS)
def test_twisted_images_match_the_point_route(q, q2):
    """Seeded 3- and 4-row maps on the points of PG(2, q) (and the zero
    vector), for every homomorphism gf(q) -> gf(q2), gf(2) -> gf(4),
    gf(3) -> gf(9) and gf(4) -> gf(16) among them, at full and deficient
    rank: the same normalised image at every point, None in the kernel."""
    K, K2 = gf(q), gf(q2)
    rng = random.Random(f"twisted {q} {q2}")
    vectors = [(0, 0, 0)] + linalg.all_proj_points(K, 3)
    for sigma in list_homomorphisms(K, K2):
        for r in (3, 2, 1):
            while True:
                m = rng.randrange(3, 5)
                M = linalg.mat_mul(K2, random_matrix(rng, K2, m, r), random_matrix(rng, K2, r, 3))
                if linalg.rank(K2, M) == r:
                    break
            phi = SemilinearMap(sigma, M)
            want = [linalg.normalize_vec(K2, phi.apply_vec(v)) for v in vectors]
            assert linalg.twisted_images(K2, M, sigma.table, vectors) == want
            assert want[0] is None
            if q == q2:  # a bijective sigma: a deficient rank leaves rational kernel points
                assert (None in want[1:]) == (r < 3)
    assert linalg.twisted_images(K2, ((1, 0, 0),), tuple(range(q)), []) == []


@pytest.mark.parametrize("q", FIELDS)
def test_mat_mul_matches_the_dot_route(q):
    K = gf(q)
    rng = random.Random(f"mat_mul {q}")
    for m, k, n in itertools.product(range(4), repeat=3):
        for zero in (False, True):
            A = random_matrix(rng, K, m, k)
            B = ((0,) * n,) * k if zero else random_matrix(rng, K, k, n)
            want = tuple(tuple(linalg.dot(K, row, col) for col in zip(*B)) for row in A)
            assert linalg.mat_mul(K, A, B) == want
            assert linalg.mat_mul(K, B, A) == tuple(tuple(linalg.dot(K, row, col) for col in zip(*A)) for row in B)
    A, ragged = random_matrix(rng, K, 2, 2), ((1, 0, 1), (1, 1))
    assert linalg.mat_mul(K, A, ragged) == tuple(tuple(linalg.dot(K, row, col) for col in zip(*ragged)) for row in A)


@pytest.mark.parametrize("q", FIELDS)
def test_quotient_projection_is_the_frame_inverse(q):
    """The rows of the inverse of [unit vectors on the free columns | RREF
    rows], taken as columns, that belong to the unit vectors are the quotient
    projection: the frame coordinates modulo the span."""
    K = gf(q)
    rng = random.Random(f"frame {q}")
    for n in range(3, 7):
        for _ in range(6):
            rows, pivots = linalg.rref(K, random_matrix(rng, K, rng.randrange(n - 2), n))
            free = [j for j in range(n) if j not in pivots]
            basis = [linalg.unit_vec(n, j) for j in free] + list(rows)
            inv = linalg.inverse(K, linalg.transpose(basis))
            assert linalg.quotient_projection(K, rows, pivots, n) == inv[: len(free)]

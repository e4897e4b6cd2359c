"""Exact row-echelon linear algebra over GF(q).

Vectors are tuples of field encodings, matrices are tuples of row tuples.
Everything is pure and allocation-light; these routines sit under every
enumeration kernel in the package.  Every kernel runs on the field's
tables, never on its arithmetic methods.

One forward elimination (_kept_rows), which stops reading rows at full
rank, sits under rank, echelon bases, the meet of two spans (span_meet)
and rref, which sorts the kept rows by lead and back-substitutes.  The
annihilator and the quotient projection are read off an RREF.
pair_solver solves two-unknown systems in closed form, twisted_images
computes a semilinear map's images on many points one output row at a
time, and mat_mul adds table rows of B per nonzero entry of A.

rref_extend, solve, intersect_spans and span_points have no caller in the
library; they stay because perfbench/tracer.py wraps them by name.
"""

from __future__ import annotations

import itertools

from .gf import GF


def unit_vec(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


def vec_add(K: GF, u, v):
    add = K._add
    return tuple(add[a][b] for a, b in zip(u, v))


def vec_sub(K: GF, u, v):
    add, neg = K._add, K._neg
    return tuple(add[a][neg[b]] for a, b in zip(u, v))


def vec_scale(K: GF, c, v):
    mrow = K._mul[c]
    return tuple(mrow[a] for a in v)


def dot(K: GF, u, v):
    add, mul = K._add, K._mul
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = add[acc][mul[a][b]]
    return acc


def matvec(K: GF, M, v):
    add, mul = K._add, K._mul
    terms = [(j, mul[b]) for j, b in enumerate(v) if b]
    out = []
    for row in M:
        acc = 0
        for j, mcol in terms:
            acc = add[acc][mcol[row[j]]]
        out.append(acc)
    return tuple(out)


def mat_mul(K: GF, A, B):
    """A . B: each nonzero entry a of a row of A adds a times B's matching row."""
    add, mul = K._add, K._mul
    n = min(map(len, B), default=0)
    out = []
    for row in A:
        acc = [0] * n
        for a, brow in zip(row, B):
            if a:
                mrow = mul[a]
                acc = [add[s][mrow[b]] for s, b in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def mat_scale(K: GF, c, M):
    return tuple(vec_scale(K, c, row) for row in M)


def transpose(M):
    return tuple(zip(*M))


def normalize_vec(K: GF, v):
    """Scale so the leftmost nonzero entry is 1; None for the zero vector."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            mrow = K._mul[K._inv[c]]
            return tuple(mrow[a] for a in v)
    return None


def _kept_rows(K: GF, rows):
    """Forward elimination up to full rank: each row, reduced against the
    rows kept so far (each zero at the earlier leads), is kept when nonzero,
    normalised at its lead, and yielded as (lead, row)."""
    add, neg, mul, invt = K._add, K._neg, K._mul, K._inv
    kept = []
    for v in rows:
        for piv, row in kept:
            c = v[piv]
            if c:
                mrow = mul[neg[c]]
                v = [add[a][mrow[b]] if b else a for a, b in zip(v, row)]
        for lead, c in enumerate(v):
            if c:
                if c != 1:
                    mrow = mul[invt[c]]
                    v = [mrow[a] for a in v]
                kept.append((lead, v))
                yield lead, v
                break
        if len(kept) == len(v):
            return


def rref(K: GF, rows):
    """Reduced row echelon form; returns (rows, pivot_columns): the rows
    forward elimination keeps, sorted by lead, with each lead then cleared
    from the rows above it, last lead first.  A row space has one RREF."""
    pivots, out = [], []
    for lead, v in sorted(_kept_rows(K, rows)):
        pivots.append(lead)
        out.append(v)
    if len(out) > 1:
        add, neg, mul = K._add, K._neg, K._mul
        for k in range(len(out) - 1, 0, -1):
            piv, row = pivots[k], out[k]
            for i in range(k):
                c = out[i][piv]
                if c:
                    mrow = mul[neg[c]]
                    out[i] = [add[a][mrow[b]] if b else a for a, b in zip(out[i], row)]
    return tuple(map(tuple, out)), tuple(pivots)


def echelon(K: GF, rows):
    """A basis of span(rows): the rows forward elimination keeps."""
    return tuple([tuple(v) for _, v in _kept_rows(K, rows)])


def rank(K: GF, rows):
    return len(echelon(K, rows))


def span_meet(K: GF, rows, basis):
    """A basis of span(rows) & span(basis), for independent basis rows: the
    basis residues are reduced against each row kept by forward elimination
    of rows, and basis comes back once all vanish (for one row, a membership
    test); else the meet is read off one echelon of [residue | basis row]."""
    add, neg, mul = K._add, K._neg, K._mul
    residues = list(basis)
    for piv, row in _kept_rows(K, rows):
        for i, r in enumerate(residues):
            c = r[piv]
            if c:
                mrow = mul[neg[c]]
                residues[i] = [add[a][mrow[b]] if b else a for a, b in zip(r, row)]
        if not any(map(any, residues)):
            return basis
    stacked = echelon(K, [tuple(r) + tuple(b) for r, b in zip(residues, basis)])
    return tuple(row[len(row) // 2 :] for row in stacked if not any(row[: len(row) // 2]))


def reduce_against(K: GF, basis_rows, pivots, v):
    """Eliminate v's pivot coordinates against an rref basis."""
    add, neg, mul = K._add, K._neg, K._mul
    v = list(v)
    for row, piv in zip(basis_rows, pivots):
        c = v[piv]
        if c:
            mrow = mul[neg[c]]
            v = [add[a][mrow[b]] if b else a for a, b in zip(v, row)]
    return tuple(v)


def in_span(K: GF, basis_rows, pivots, v):
    return not any(reduce_against(K, basis_rows, pivots, v))


def rref_extend(K: GF, basis_rows, pivots, v):
    """The RREF of an RREF basis and one vector."""
    return rref(K, (*basis_rows, v))


def annihilator(K: GF, rows, pivots, ncols):
    """Basis of the forms f with f . r = 0 for every row r of an RREF basis,
    read straight off the rows: one form per free column j, with 1 at j and
    -row[j] at each row's pivot.  Pivots before j are the only other nonzero
    entries, so each form ends in its 1: normalised with a trailing 1, the
    same tuple for the same span every time."""
    neg = K._neg
    pivot_set = set(pivots)
    forms = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        f = [0] * ncols
        f[j] = 1
        for row, piv in zip(rows, pivots):
            f[piv] = neg[row[j]]
        forms.append(tuple(f))
    return forms


def kernel_basis(K: GF, M):
    """RREF basis of {v : M v = 0}."""
    if not M:
        return ()
    rows, pivots = rref(K, M)
    out, _ = rref(K, annihilator(K, rows, pivots, len(M[0])))
    return out


def quotient_projection(K: GF, rows, pivots, ncols):
    """Matrix of V -> V/W for W the span of an RREF basis, read off the rows
    as the annihilator is: a free column maps to its unit vector among the
    free columns, a pivot column to minus its row on them.  It kills exactly
    W, and is the identity on the free coordinates."""
    neg = K._neg
    row_at = dict(zip(pivots, rows))
    free = [j for j in range(ncols) if j not in row_at]
    return tuple(
        tuple(neg[row_at[j][f]] if j in row_at else int(j == f) for j in range(ncols))
        for f in free
    )


def pair_solver(K: GF, u, v):
    """None when the columns u and v are dependent; else the solver of
    a.u + b.v = y, returning (a, b), or None for y outside span(u, v).  It
    uses Cramer's rule on the first nonzero 2x2 minor, at the first nonzero
    row, then checks every row."""
    add, neg, mul = K._add, K._neg, K._mul
    for r, (ur, vr) in enumerate(zip(u, v)):
        if ur or vr:
            break
    else:
        return None
    s = next((k for k in range(r + 1, len(u)) if mul[ur][v[k]] != mul[u[k]][vr]), None)
    if s is None:
        return None
    us, vs = u[s], v[s]
    dinv = mul[K._inv[add[mul[ur][vs]][neg[mul[us][vr]]]]]

    def solve_pair(y):
        a = dinv[add[mul[y[r]][vs]][neg[mul[y[s]][vr]]]]
        b = dinv[add[mul[ur][y[s]]][neg[mul[us][y[r]]]]]
        return (a, b) if all(add[mul[a][c]][mul[b][d]] == e for c, d, e in zip(u, v, y)) else None

    return solve_pair


def twisted_images(K: GF, M, table, vectors):
    """normalize_vec(M . sigma(v)) for each v, None in the kernel, with sigma
    given by its table into K.  It is computed output row by output row:
    each matrix entry m becomes the table c -> m . sigma(c), read once per
    vector in one comprehension per column."""
    add, mul, invt = K._add, K._mul, K._inv
    cols = list(zip(*vectors))
    rows = []
    for row in M:
        acc = [0] * len(vectors)
        for m, col in zip(row, cols):
            if m:
                t = [mul[m][c] for c in table]
                acc = [add[a][t[c]] for a, c in zip(acc, col)]
        rows.append(acc)
    out = []
    for img in zip(*rows):
        lead = next(filter(None, img), 0)
        if lead != 1:
            img = tuple([mul[invt[lead]][a] for a in img]) if lead else None
        out.append(img)
    return out


def solve(K: GF, A, b):
    """One solution x of A x = b, or None.  A is rows of an m x n matrix."""
    n = len(A[0]) if A else len(b)
    aug = [tuple(row) + (bb,) for row, bb in zip(A, b)]
    rows, pivots = rref(K, aug)
    x = [0] * n
    for row, piv in zip(rows, pivots):
        if piv == n:
            return None  # inconsistent: pivot in the constant column
        x[piv] = row[n]
    return tuple(x)


def intersect_spans(K: GF, rows1, rows2):
    """RREF basis of span(rows1) & span(rows2): the RREF of their
    span_meet against an echelon basis of rows2."""
    return rref(K, span_meet(K, rows1, echelon(K, rows2)))[0]


def span_points(K: GF, basis_rows):
    """All normalized projective representatives in the span of independent
    rows: the images of the points of PG(r-1, q) under their transpose."""
    if not basis_rows:
        return []
    return twisted_images(K, transpose(basis_rows), range(K.q), all_proj_points(K, len(basis_rows)))


def all_vectors(K: GF, n):
    """All q^n coordinate vectors, ascending lexicographic."""
    return itertools.product(range(K.q), repeat=n)


def all_proj_points(K: GF, n):
    """All normalized length-n vectors (leftmost nonzero entry 1), ascending
    lexicographic; these are the canonical projective point representatives."""
    return [v for v in all_vectors(K, n) if any(v) and normalize_vec(K, v) == v]

"""Coordinatized projective spaces PG(n, q), semilinear maps and the partial
projective morphisms they induce, plus coordinates for a quotient space
V/W.  The quotient geometry PG(V)/P(W) itself is geometry.CoordQuotient,
whose points are already the coordinates of PG(V/W).

Convention: a semilinear map acts as Phi(v) = M . v^sigma (apply the field
homomorphism coordinatewise, then the matrix).  This keeps kernels
K-subspaces and makes composition associative.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import reduce

from . import linalg
from .errors import InvalidArgument, NotProjective, SizeLimit, ZeroMap
from .geometry import (
    CoordGeometry,
    FiniteGeometry,
    Flat,
    PartialMorphism,
    Report,
    bits_of,
    dim_formula_violations,
    mask_of,
)
from .gf import GF, FieldHom, gf, interned

PG_MAX_POINTS = 6000
FLAT_PAIR_LIMIT = 2_000_000


class ProjPoint(namedtuple("ProjPoint", "field coords")):
    """A projective point as its normalized homogeneous coordinates."""

    __slots__ = ()

    @staticmethod
    def make(field: GF, coords) -> "ProjPoint":
        v = linalg.normalize_vec(field, tuple(coords))
        if v is None:
            raise InvalidArgument("projective point needs a nonzero vector")
        return ProjPoint(field, v)

    def __repr__(self):
        return f"P{self.coords}"


class LinearSubspace(namedtuple("LinearSubspace", "field ambient_dim rows")):
    """A vector subspace of K^(ambient_dim) as its reduced-echelon basis."""

    __slots__ = ()

    @staticmethod
    def from_vectors(field: GF, ambient_dim: int, vectors) -> "LinearSubspace":
        rows, _ = linalg.rref(field, list(vectors))
        return LinearSubspace(field, ambient_dim, rows)

    @staticmethod
    def zero(field: GF, ambient_dim: int) -> "LinearSubspace":
        return LinearSubspace(field, ambient_dim, ())

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return tuple(next(i for i, c in enumerate(r) if c) for r in self.rows)

    def contains(self, v):
        return linalg.in_span(self.field, self.rows, self.pivots, v)

    def __repr__(self):
        return f"subspace(rank {self.rank} of K^{self.ambient_dim})"


class SemilinearMap(namedtuple("SemilinearMap", "sigma matrix")):
    """sigma: K -> K' together with an (m+1) x (n+1) matrix over K'."""

    __slots__ = ()

    def __new__(cls, sigma: FieldHom, matrix):
        return super().__new__(cls, sigma, tuple(tuple(r) for r in matrix))

    @property
    def source_field(self):
        return self.sigma.source

    @property
    def target_field(self):
        return self.sigma.target

    @property
    def n_in(self):
        return len(self.matrix[0])

    @property
    def n_out(self):
        return len(self.matrix)

    def apply_vec(self, v):
        return linalg.matvec(self.target_field, self.matrix, self.sigma.map_vec(v))

    def is_zero(self):
        return all(not any(r) for r in self.matrix)

    def rank(self):
        return linalg.rank(self.target_field, self.matrix)

    def scaled(self, c):
        return SemilinearMap(self.sigma, linalg.mat_scale(self.target_field, c, self.matrix))

    def canonical(self):
        """Scale so the first nonzero entry in row-major order is 1."""
        for row in self.matrix:
            for cval in row:
                if cval:
                    if cval == 1:
                        return self
                    return self.scaled(self.target_field.inv(cval))
        return self

    def compose(self, inner: "SemilinearMap") -> "SemilinearMap":
        """self after inner: matrix = M_self . (M_inner)^sigma_self."""
        if inner.target_field is not self.source_field:
            raise InvalidArgument("fields do not chain")
        twisted = self.sigma.map_matrix(inner.matrix)
        return SemilinearMap(
            self.sigma.compose(inner.sigma),
            linalg.mat_mul(self.target_field, self.matrix, twisted),
        )

    def kernel(self) -> LinearSubspace:
        """{v in K^(n+1) : M v^sigma = 0} as a K-subspace."""
        K, K2 = self.source_field, self.target_field
        kb = linalg.kernel_basis(K2, self.matrix)
        if self.sigma.is_bijective():
            inv = self.sigma.inverse()
            rows, _ = linalg.rref(K, [inv.map_vec(r) for r in kb])
            return LinearSubspace(K, self.n_in, rows)
        if K.q**self.n_in > 1 << 20:
            raise SizeLimit("kernel enumeration too large")
        piv = tuple(next(i for i, c in enumerate(r) if c) for r in kb)
        vecs = [
            v
            for v in linalg.all_vectors(K, self.n_in)
            if linalg.in_span(K2, kb, piv, self.sigma.map_vec(v))
        ]
        rows, _ = linalg.rref(K, vecs)
        return LinearSubspace(K, self.n_in, rows)

    def __repr__(self):
        return f"semilinear({self.sigma}, {self.n_out}x{self.n_in})"


# -- projective spaces ---------------------------------------------------------


@interned("projective dimension", "field order")
def build_pg(n: int, q: int) -> CoordGeometry:
    """The projective space PG(n, q) as a coordinate geometry, interned."""
    if not 1 <= n <= 5:
        raise SizeLimit(f"projective dimension {n} outside 1..5")
    K = gf(q)
    count = (q ** (n + 1) - 1) // (q - 1)
    if count > PG_MAX_POINTS:
        raise SizeLimit(f"PG({n},{q}) has {count} points; beyond desk scale")
    pts = linalg.all_proj_points(K, n + 1)
    return CoordGeometry(K, pts, name=f"pg({n},{q})")


class ProjectiveReport(Report):
    def __init__(self, p1, p2, p3, dim_formula, irreducible, witnesses, note=""):
        self.p1 = p1
        self.p2 = p2
        self.p3 = p3
        self.dim_formula = dim_formula
        self.irreducible = irreducible
        self.witnesses = witnesses
        self.note = note

    @property
    def is_projective(self):
        return self.p1 and self.p2 and self.p3 and self.dim_formula

    def as_dict(self):
        return {
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "dimension_formula": self.dim_formula,
            "irreducible": self.irreducible,
            "is_projective": self.is_projective,
            "witnesses": self.witnesses,
            "note": self.note,
        }


def check_projective_axioms(G: FiniteGeometry) -> ProjectiveReport:
    """Point/line/triangle axioms plus the dimension formula on all flat pairs
    (nested pairs are skipped: they cannot violate it)."""
    flats = G.flats()
    if len(flats) * (len(flats) + 1) // 2 > FLAT_PAIR_LIMIT:
        raise SizeLimit("flat-pair sweep beyond limit")
    witnesses = {}
    p1, p2, p3 = _point_line_axioms(G, witnesses)

    # dimension formula over all flat pairs
    dim_ok = True
    empty_meet_only = True
    for m1, m2, lhs, rhs in dim_formula_violations(G, flats):
        if dim_ok:
            witnesses["dim_formula"] = {
                "s1": sorted(bits_of(m1)),
                "s2": sorted(bits_of(m2)),
                "lhs": lhs,
                "rhs": rhs,
            }
        dim_ok = False
        if m1 & m2:
            empty_meet_only = False
    irreducible = all(line.bit_count() >= 3 for line in G.lines())
    note = ""
    if p1 and p2 and not dim_ok and empty_meet_only:
        # every violation involves a disjoint pair: parallel-type failures only
        note = "not projective, locally projective candidate"
    return ProjectiveReport(p1, p2, p3, dim_ok, irreducible, witnesses, note)


def _point_line_axioms(G, witnesses):
    """P1 (two points lie on one line), P2 (every line has two points) and
    P3 (Veblen-Young), with the witness of each failure put in witnesses."""
    lines = G.lines()
    n = G.n_points
    p1 = True
    point_lines = G.incidence.point_lines
    for a, b in itertools.combinations(range(n), 2):
        c = (point_lines[a] & point_lines[b]).bit_count()
        if c != 1:
            p1 = False
            witnesses["p1"] = {"points": [a, b], "lines_through": c}
            break
    p2 = all(line.bit_count() >= 2 for line in lines)
    if not p2:
        witnesses["p2"] = {"short_line": sorted(bits_of(min(lines, key=int.bit_count)))}
    p3, w = _veblen_young(G)
    if not p3:
        witnesses["p3"] = w
    return p1, p2, p3


def _veblen_young(G):
    """P3 (Veblen-Young) at each vertex of each triangle a < b < c: a line
    off the vertex meeting both sides through it meets the third side.  A
    side is the first line through its two points; c on the side ab skips
    the triangle.  The first failure at a middle vertex b is returned at
    once, else the first at a or c, with the vertex in the middle."""
    inc = G.incidence
    lines, point_lines = inc.lines, inc.point_lines
    n = G.n_points
    # the lines meeting each line, and the index of the first line through
    # each pair of points (-1 when there is none)
    meets = [reduce(operator.or_, map(point_lines.__getitem__, bits_of(m))) for m in lines]
    side = [[(c & -c).bit_length() - 1 for c in (pa & pb for pb in point_lines)] for pa in point_lines]
    later = None
    for a in range(n):
        pa, side_a = point_lines[a], side[a]
        for b in range(a + 1, n):
            ab = side_a[b]
            if ab < 0:
                continue
            line_ab, meets_ab, side_b = lines[ab], meets[ab], side[b]
            off_ab = meets_ab & ~(pa | point_lines[b])
            for c in range(b + 1, n):
                bc, ac = side_b[c], side_a[c]
                if bc < 0 or ac < 0 or line_ab >> c & 1:
                    continue
                meets_bc, meets_ac = meets[bc], meets[ac]
                # a line off a and b meeting ab and just one of bc and ac
                # fails at b if it meets bc, at a if it meets ac
                one = off_ab & (meets_bc ^ meets_ac)
                if one & meets_bc:
                    return False, _triangle_witness(lines, (a, b, c), one & meets_bc)
                if later is None:
                    if one:
                        later = (b, a, c), one
                    elif at_c := meets_bc & meets_ac & ~(meets_ab | point_lines[c]):
                        later = (a, c, b), at_c
    return (True, None) if later is None else (False, _triangle_witness(lines, *later))


def _triangle_witness(lines, triangle, bad):
    """The triangle, its vertex in the middle, and the first line of the
    bitset bad."""
    return {"triangle": list(triangle), "line": sorted(bits_of(lines[(bad & -bad).bit_length() - 1]))}


def decompose_irreducible(G: FiniteGeometry):
    """Partition into irreducible components: points are related when equal
    or joined by a line with at least three points."""
    if not all(_point_line_axioms(G, {})):
        raise NotProjective("geometry fails the projective point/line axioms")
    parent = list(range(G.n_points))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for line in G.lines():
        if line.bit_count() >= 3:
            pts = list(bits_of(line))
            for x in pts[1:]:
                parent[find(x)] = find(pts[0])
    groups = {}
    for i in range(G.n_points):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(v) for v in sorted(groups.values()))


# -- semilinear actions ----------------------------------------------------------


def apply_semilinear(phi: SemilinearMap, x) -> ProjPoint | None:
    """Image point, or None when the vector lies in the kernel."""
    coords = x.coords if isinstance(x, ProjPoint) else tuple(x)
    w = phi.apply_vec(coords)
    v = linalg.normalize_vec(phi.target_field, w)
    return None if v is None else ProjPoint(phi.target_field, v)


def induced_partial(phi: SemilinearMap) -> PartialMorphism:
    """The partial projective morphism of a nonzero semilinear map, as a
    validated PartialMorphism between PG spaces, undefined exactly on the
    projectivized kernel."""
    if phi.is_zero():
        raise ZeroMap("the zero map induces no projective morphism")
    src = build_pg(phi.n_in - 1, phi.source_field.q)
    tgt = build_pg(phi.n_out - 1, phi.target_field.q)
    images = linalg.twisted_images(phi.target_field, phi.matrix, phi.sigma.table, src.vectors)
    mapping = tuple(None if img is None else tgt.point_index(img) for img in images)
    e_mask = mask_of(i for i, img in enumerate(images) if img is None)
    pm = PartialMorphism(src, tgt, Flat(src, e_mask), mapping)
    pm.validate()
    return pm


def proportional(phi1: SemilinearMap, phi2: SemilinearMap):
    """lambda with phi2 = lambda . phi1, or None (requires equal sigma)."""
    if phi1.sigma != phi2.sigma:
        return None
    if phi1.n_in != phi2.n_in or phi1.n_out != phi2.n_out:
        return None
    K2 = phi1.target_field
    lam = None
    for r1, r2 in zip(phi1.matrix, phi2.matrix):
        for a, b in zip(r1, r2):
            if a == 0 and b == 0:
                continue
            if a == 0 or b == 0:
                return None
            cand = K2.div(b, a)
            if lam is None:
                lam = cand
            elif lam != cand:
                return None
    return lam


# -- quotient coordinates ---------------------------------------------------------


class QuotientCoords(namedtuple("QuotientCoords", "field dim_q proj_matrix lift_matrix")):
    """Coordinates for V/W: the echelon complement of W.

    project: V -> K^(n-w) reduces a vector against W's echelon basis and
    reads off the non-pivot coordinates; lift embeds them back on the free
    coordinates.  project . lift = identity, and project kills exactly W.
    """

    __slots__ = ()

    def project(self, v):
        return linalg.matvec(self.field, self.proj_matrix, v)

    def lift(self, u):
        return linalg.matvec(self.field, self.lift_matrix, u)


def quotient_coords(W: LinearSubspace) -> QuotientCoords:
    K = W.field
    n = W.ambient_dim
    pivots = W.pivots
    free = [j for j in range(n) if j not in pivots]
    proj = linalg.quotient_projection(K, W.rows, pivots, n)  # (n-w) x n
    lift = tuple(tuple(1 if j == f else 0 for f in free) for j in range(n))
    return QuotientCoords(K, len(free), proj, lift)

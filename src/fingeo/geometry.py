"""Finite closure geometries: flats, bases, dimension, axiom checkers,
subgeometries, quotients, morphisms and partial morphisms.

A geometry is a finite point universe 0..n-1 together with a closure
operator on point subsets.  Point sets are handled as Python int bitmasks
internally; the public face is the Flat wrapper.  Three backends exist:
coordinate geometries (points carry homogeneous coordinates, closure is
linear-span trace), table geometries (an explicit closed-set family), and
quotient geometries (classes of x v E over a parent).  A quotient of a
coordinate geometry is itself a coordinate geometry on V/W (CoordQuotient),
so every coordinate backend shares one closure kernel and one flat
enumeration: its flats are the traces of the subspaces of K^n, swept once
each: a free column of an RREF picks one annihilator form, and a trace is
the AND of the picked form masks, read from the geometry's one form table;
the sweep records each trace's rank, and a flat's RREF basis is built on its
first join.  A quotient of any other
geometry is a table geometry on the parent flats through E (QuotientGeometry).

Everything is immutable after construction; the flat table {mask:
dimension} and the incidence index are built once on first demand and only
read afterwards.  Every other keyed fact lives in one memo per geometry
(plan); only closures and point quotients are kept apart.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import namedtuple

from . import linalg
from .errors import (
    ExceptionalNotFlat,
    InvalidArgument,
    InvalidArgumentType,
    NotAMorphism,
    NotConstantOnClasses,
    NotGenerating,
    PreconditionLinesTooShort,
)
from .gf import GF

# the seed and sample size of check_geometry_axioms' closure-operator check
CLOSURE_SEED = 101
CLOSURE_SAMPLES = 200


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _points_mask(G, points) -> int:
    """mask_of for the public entry points: each index must be a point of G."""
    m = 0
    for i in points:
        if not isinstance(i, int):
            raise InvalidArgumentType(f"point index {i!r} is not an int")
        if not 0 <= i < G.n_points:
            raise InvalidArgument(f"point {i} outside 0..{G.n_points - 1}")
        m |= 1 << i
    return m


class Report:
    """The base of the report records: two reports are equal when they
    are of one class and hold equal fields.  Reports stay mutable, so they
    are unhashable."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)


class Flat:
    """A closed point set of a geometry."""

    __slots__ = ("geometry", "mask")

    def __init__(self, geometry, mask):
        self.geometry = geometry
        self.mask = mask

    @property
    def points(self):
        return tuple(bits_of(self.mask))

    @property
    def dim(self):
        return self.geometry.flat_dim(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, i):
        return bool(self.mask >> i & 1)

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __eq__(self, other):
        return (
            isinstance(other, Flat)
            and other.geometry is self.geometry
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.geometry), self.mask))

    def __repr__(self):
        return f"Flat{self.points}"


def containing(masks, n):
    """For each item 0..n-1, the bitset of the indices of the masks that
    hold it: its bits are set in one bytearray, read as an int once."""
    through = [bytearray((len(masks) + 7) // 8) for _ in range(n)]
    for i, m in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        for x in bits_of(m):
            through[x][byte] |= bit
    return tuple(int.from_bytes(b, "little") for b in through)


class Incidence:
    """Which points, lines and planes of a geometry meet, as bitsets over
    indices into its lines() and planes(), built from their definitions on
    every backend: point_lines[x] holds the lines through the point x,
    line_planes[l] the planes through every point of the line l, and
    plane_lines, its transpose, the lines inside each plane.  Each is built
    on first read: point_lines by lines_through, the projective axioms and
    the plane questions of a table (classify), which alone read the other
    two; a coordinate geometry answers those from spans and tangent lines."""

    def __init__(self, G):
        self.n_points, self.lines, self.planes = G.n_points, G.lines(), G.planes()

    @functools.cached_property
    def point_lines(self):
        return containing(self.lines, self.n_points)

    @functools.cached_property
    def line_planes(self):
        through = containing(self.planes, self.n_points)
        return tuple(functools.reduce(operator.and_, map(through.__getitem__, bits_of(m))) for m in self.lines)

    @functools.cached_property
    def plane_lines(self):
        return containing(self.line_planes, len(self.planes))


class FiniteGeometry:
    """Base class; subclasses provide _closure_mask."""

    def __init__(self, n_points):
        self.n_points = n_points
        self.full_mask = (1 << n_points) - 1
        self._flats = None
        self._point_quotients = {}
        self._closure_memo = {}
        self._plans = {}

    # -- closure -------------------------------------------------------------

    def closure_mask(self, mask: int) -> int:
        got = self._closure_memo.get(mask)
        if got is None:
            got = self._closure_mask(mask)
            self._closure_memo[mask] = got
        return got

    def closure(self, points) -> Flat:
        return Flat(self, self.closure_mask(_points_mask(self, points)))

    # -- flat cache ------------------------------------------------------------

    def flats(self):
        """All flats as masks, sorted by (size, mask); built once."""
        if self._flats is None:
            self._build_flats()
        return self._flats

    def flat_set(self):
        self.flats()
        return self._flat_dims.keys()

    def flat_dim(self, mask):
        """A flat's dimension is read from the flat table; any other mask's is computed."""
        if self._flats is None:
            self.flats()
        d = self._flat_dims.get(mask)
        return len(self._basis(mask)) - 1 if d is None else d

    def join_dim(self, m1, m2):
        """Dimension of the join of two flats."""
        return self.flat_dim(self.closure_mask(m1 | m2))

    def _build_flats(self):
        """Every closed set, found from the closure of the empty set by
        adding one point at a time to each closed set, breadth first."""
        close = self.closure_mask
        empty = close(0)
        seen = {empty}
        frontier = [empty]
        while frontier:
            nxt = []
            for fmask in frontier:
                for x in bits_of(self.full_mask & ~fmask):
                    t = close(fmask | (1 << x))
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        self._store_flats({m: len(self._basis(m)) - 1 for m in seen})

    def _store_flats(self, dims):
        """Keep the flat table {mask: dimension}, the flats sorted by (size,
        mask) and one tuple per dimension in the same order."""
        self._flat_dims = dims
        self._flats = tuple(sorted(sorted(dims), key=int.bit_count))
        by_dim = {}
        for m in self._flats:
            by_dim.setdefault(dims[m], []).append(m)
        self._flats_by_dim = {d: tuple(ms) for d, ms in by_dim.items()}

    def _basis(self, mask):
        """The greedy basis of the points of mask: each point, in canonical
        order, that lies off the closure of those taken before it."""
        basis, bmask, cl = [], 0, self.closure_mask(0)
        for x in bits_of(mask):
            if not cl >> x & 1:
                basis.append(x)
                bmask |= 1 << x
                cl = self.closure_mask(bmask)
        return tuple(basis)

    def dim(self):
        return self.flat_dim(self.full_mask) if self.n_points else -1

    def rank_flats(self, d):
        """All flats of dimension d."""
        self.flats()
        return self._flats_by_dim.get(d, ())

    def lines(self):
        return self.rank_flats(1)

    def planes(self):
        return self.rank_flats(2)

    def hyperplanes(self):
        return self.rank_flats(self.dim() - 1)

    @functools.cached_property
    def incidence(self):
        """The incidence index of points, lines and planes; built once."""
        return Incidence(self)

    def lines_through(self, i):
        """The lines through the point i, as masks in lines() order."""
        inc = self.incidence
        return tuple(inc.lines[j] for j in bits_of(inc.point_lines[i]))

    def line_through_pair(self, i, j):
        return self.closure_mask((1 << i) | (1 << j))

    def point_quotient(self, x):
        """The quotient at a single point, cached per geometry."""
        got = self._point_quotients.get(x)
        if got is None:
            got = quotient_geometry(self, 1 << x)
            self._point_quotients[x] = got
        return got

    def plan(self, build, *key):
        """build(self, *key), run on first use and kept in this geometry's one
        memo of derived facts; an exception is not kept, but raised again."""
        k = (build, *key)
        got = self._plans.get(k)
        if got is None:
            got = self._plans[k] = build(self, *key)
        return got

    # -- identification -----------------------------------------------------

    def label(self):
        return f"geometry({self.n_points} points)"

    def __repr__(self):
        return self.label()


class CoordGeometry(FiniteGeometry):
    """Points with homogeneous coordinates over GF(q); closure = span trace.

    One kernel serves every coordinate geometry: the points of a span are
    the points on which every form of its annihilator vanishes, so a trace
    is the AND of the hyperplane bitmasks of the annihilator's basis forms.
    linalg.annihilator reads those forms off the span's RREF rows, already
    normalised with a trailing 1, and every such form's bitmask comes from
    one table per geometry (_form_table), built by one walk over coefficient
    prefixes on the geometry's first closure.

    The flats are the traces of the subspaces of K^n, swept column by column
    with no annihilator built; the sweep records ranks only, and a flat's
    RREF basis is planned on its first join (see _build_flats, flat_rows).
    The embedding is read off the coordinates: the points are distinct
    points of PG(ncoords - 1, q), so is_full_pg follows from the point
    count, ambient is that projective space (the geometry itself when full,
    built on first use otherwise), ambient_indices places each point in it,
    and local_of and ambient_mask read those places back.  A quotient with
    at most one class is full, so it never asks for PG(0, q).
    """

    def __init__(self, K: GF, vectors, name=None):
        super().__init__(len(vectors))
        self.field = K
        self.vectors = tuple(tuple(v) for v in vectors)
        self.ncoords = len(self.vectors[0]) if self.vectors else 0
        self.is_full_pg = self.n_points == (K.q**self.ncoords - 1) // (K.q - 1)
        self._name = name
        self._vec_index = {v: i for i, v in enumerate(self.vectors)}

    @functools.cached_property
    def ambient(self):
        """The projective space PG(ncoords - 1, q) holding the points."""
        if self.is_full_pg:
            return self
        from .projective import build_pg  # projective builds on this module

        return build_pg(self.ncoords - 1, self.field.q)

    @functools.cached_property
    def ambient_indices(self):
        """The ambient index of each point."""
        return tuple(map(self.ambient.point_index, self.vectors))

    @functools.cached_property
    def local_of(self):
        """{ambient index: local index} of each point."""
        return {a: x for x, a in enumerate(self.ambient_indices)}

    @functools.cached_property
    def ambient_mask(self):
        """The points, as a mask of the ambient space."""
        return mask_of(self.ambient_indices)

    def point_index(self, coords):
        return self._vec_index.get(tuple(coords))

    def span_rows(self, mask):
        """RREF basis of the span of the points in mask."""
        return linalg.rref(self.field, [self.vectors[i] for i in bits_of(mask)])

    @functools.cached_property
    def _form_table(self):
        """The bitmask of every form with a trailing 1 (its last nonzero
        entry is 1): the points on which it vanishes.  One depth-first walk
        over coefficient prefixes builds them all.  parts[s] holds the points
        whose partial dot product with the prefix is s, so forms that share
        a prefix share its split, and the form prefix + (1, 0, ...) vanishes
        on parts[s] & (coordinate j is -s): q ANDs.  Only prefixes whose
        first nonzero entry is 1 are walked: the split of lam * prefix is
        the same parts, relabelled s -> lam * s."""
        K, n = self.field, self.ncoords
        q, add, mul, neg = K.q, K._add, K._mul, K._neg
        values = [[0] * q for _ in range(n)]
        for x, v in enumerate(self.vectors):
            for i, a in enumerate(v):
                values[i][a] |= 1 << x
        table = {}

        def walk(prefix, parts):
            j = len(prefix)
            vm, tail = values[j], (1,) + (0,) * (n - j - 1)
            for times in mul[1:]:  # times[c] = lam * c, one row per lam != 0
                table[tuple(times[c] for c in prefix) + tail] = functools.reduce(
                    operator.or_, (pm & vm[neg[times[s]]] for s, pm in enumerate(parts)), 0
                )
            if j + 1 < n:
                walk(prefix + (0,), parts)
                for c in range(1, q):
                    nxt = [0] * q
                    for s, pm in enumerate(parts):
                        if pm:
                            add_s = add[s]
                            for ca, am in zip(mul[c], vm):
                                nxt[add_s[ca]] |= pm & am
                    walk(prefix + (c,), nxt)

        # the zero prefix of length j: its form e_j vanishes where v_j = 0,
        # and its child (0, ..., 0, 1) splits the points by v_j
        for j in range(n):
            table[(0,) * j + (1,) + (0,) * (n - j - 1)] = values[j][0]
            if j + 1 < n:
                walk((0,) * j + (1,), values[j])
        return table

    def trace_mask(self, rows, pivots):
        """Points of this geometry lying in the span of an RREF basis."""
        table = self._form_table
        m = self.full_mask
        for form in linalg.annihilator(self.field, rows, pivots, self.ncoords):
            m &= table[form]
        return m

    def _closure_mask(self, mask):
        return self.trace_mask(*self.span_rows(mask))

    def flat_rows(self, mask):
        """The RREF basis of a flat's span, planned on first use."""
        return self.plan(CoordGeometry.span_rows, mask)

    def join_dim(self, m1, m2):
        """Dimension of the join of two flats: at most d1 + d2 less the
        dimension of m1 & m2, whose span lies in the meet of the spans, and
        above max(d1, d2) unless one flat holds the other.  Bounds that agree
        (for every pair but skew lines in dimension 3) need no rank."""
        d1, d2, meet = self.flat_dim(m1), self.flat_dim(m2), m1 & m2
        low = max(d1, d2) + (meet != m1 and meet != m2)
        if low == min(self.dim(), d1 + d2 - self.flat_dim(meet)):
            return low
        return linalg.rank(self.field, self.flat_rows(m1)[0] + self.flat_rows(m2)[0]) - 1

    def _build_flats(self):
        """A flat is the trace of its span, and that span is the least
        subspace with that trace (the only one at its rank): so sweeping the
        subspaces of K^n by rank and keeping each trace at its first rank
        gives every flat with its dimension.

        The sweep is column-wise.  Free column j of an RREF holds any values
        c at the k rows whose pivot p_i lies left of j, and its annihilator
        form e_j - sum c[i] e_{p_i} depends on that column alone.  So per
        pivot set each free column lists the form masks of its q^k values
        (-c[i] runs through K's negatives as c[i] runs through K); a pivot
        column adds no form.  A subspace is one pick per free column and its
        trace the AND of the picked masks.  Only ranks are recorded: a
        flat's RREF basis is built by flat_rows when a join first asks."""
        n, full, neg, table = self.ncoords, self.full_mask, self.field._neg, self._form_table
        dims = {}
        for r in range(n + 1):
            for pivots in itertools.combinations(range(n), r):
                masks = []
                for j in range(n):
                    if j not in pivots:
                        forms = itertools.product(*(((neg if i in pivots else (0,)) if i < j else (int(i == j),))
                                                    for i in range(n)))
                        masks.append(list(map(table.__getitem__, forms)))
                for ms in itertools.product(*masks):
                    dims.setdefault(functools.reduce(operator.and_, ms, full), r - 1)
        self._store_flats(dims)

    def label(self):
        if self._name:
            return self._name
        return f"coord-geometry({self.n_points} points, {self.field.name})"


class TableGeometry(FiniteGeometry):
    """Abstract geometry from an explicit family of closed sets, each an
    int mask or an iterable of point indices."""

    def __init__(self, n_points, closed_sets, name=None):
        if not isinstance(n_points, int):
            raise InvalidArgumentType(f"point count {n_points!r} is not an int")
        if n_points < 0:
            raise InvalidArgument(f"point count {n_points} is negative")
        super().__init__(n_points)
        self.raw_table = tuple(sorted(set(map(self._table_mask, closed_sets)), key=lambda m: (m.bit_count(), m)))
        self._name = name

    def _table_mask(self, s):
        if not isinstance(s, int):
            if not hasattr(s, "__iter__"):
                raise InvalidArgumentType(f"closed set {s!r} is neither a mask nor a list of points")
            return _points_mask(self, s)
        if not 0 <= s <= self.full_mask:
            raise InvalidArgument(f"closed-set mask {s} outside 0..2^{self.n_points} - 1")
        return s

    def _closure_mask(self, mask):
        acc = self.full_mask
        for t in self.raw_table:
            if mask & ~t == 0:
                acc &= t
        return acc

    def label(self):
        return self._name or f"table-geometry({self.n_points} points)"


class _QuotientClasses:
    """Classes of x v E over a parent geometry, for a flat E.

    Point i is the class whose parent point set is self.classes[i]; classes
    are ordered by their smallest parent representative self.reps[i].
    """

    def _set_classes(self, parent, e_mask, classes):
        self.parent = parent
        self.e_mask = e_mask
        self.classes = tuple(classes)
        self.reps = tuple((m & -m).bit_length() - 1 for m in self.classes)
        self._class_of = {x: i for i, m in enumerate(self.classes) for x in bits_of(m)}

    def class_of_parent_point(self, x):
        """Class index of a parent point not in E."""
        return self._class_of.get(x)

    def label(self):
        return f"quotient({self.parent.label()} / {self.e_mask.bit_count()} pts)"


class QuotientGeometry(_QuotientClasses, TableGeometry):
    """The quotient of a geometry without coordinates, as a table geometry:
    its table is the parent flats F through E, each read as the set of
    classes whose representative lies in F.  Every such F is a union of
    classes and the closure of E and its representatives, so the table
    closure is the parent's."""

    def __init__(self, parent, e_mask):
        if parent.closure_mask(e_mask) != e_mask:
            raise ExceptionalNotFlat("E is not a flat of the parent")
        class_map = {}
        for x in bits_of(parent.full_mask & ~e_mask):
            key = parent.closure_mask(e_mask | (1 << x))
            class_map[key] = class_map.get(key, 0) | 1 << x
        # points are scanned in ascending order, so classes come out ordered
        # by their smallest representative
        self._set_classes(parent, e_mask, class_map.values())
        table = [
            mask_of(i for i, rep in enumerate(self.reps) if f >> rep & 1)
            for f in parent.flats()
            if e_mask & ~f == 0
        ]
        super().__init__(len(class_map), table)


class CoordQuotient(_QuotientClasses, CoordGeometry):
    """The quotient of a coordinate geometry by a flat E, as a coordinate
    geometry on V/W with W the span of E.

    A class lies in a parent flat through E exactly when its representative
    does, and the classes are the fibres of the projection V -> V/W, so the
    quotient's points are the normalised projections of the classes and
    its closure is the span-trace kernel of every coordinate geometry.
    coords keeps the coordinates of V/W (a projective.QuotientCoords) that
    did the projecting.
    """

    def __init__(self, parent, e_mask):
        from .projective import LinearSubspace, quotient_coords  # projective builds on this module

        K = parent.field
        self.coords = quotient_coords(LinearSubspace(K, parent.ncoords, parent.span_rows(e_mask)[0]))
        xs = list(bits_of(parent.full_mask & ~e_mask))
        images = linalg.twisted_images(K, self.coords.proj_matrix, range(K.q), [parent.vectors[x] for x in xs])
        class_map = {}
        for x, u in zip(xs, images):
            if u is None:
                raise ExceptionalNotFlat(f"point {x} lies in the span of E but not in E")
            class_map[u] = class_map.get(u, 0) | 1 << x
        CoordGeometry.__init__(self, K, list(class_map))
        self._set_classes(parent, e_mask, class_map.values())


def quotient_geometry(parent: FiniteGeometry, e_mask: int) -> FiniteGeometry:
    """X/E: coordinate geometries get a coordinate quotient, others the
    generic class geometry."""
    if isinstance(parent, CoordGeometry):
        return CoordQuotient(parent, e_mask)
    return QuotientGeometry(parent, e_mask)


# -- operations ---------------------------------------------------------------


def closure(G: FiniteGeometry, points) -> Flat:
    """Least flat containing the given points."""
    return G.closure(points)


def subgeometry(G: FiniteGeometry, points) -> FiniteGeometry:
    """The geometry induced on a point subset: flats are traces S & A."""
    keep = _points_mask(G, points)
    idx = list(bits_of(keep))
    if isinstance(G, CoordGeometry):
        return CoordGeometry(G.field, [G.vectors[i] for i in idx])
    remap = {old: new for new, old in enumerate(idx)}
    table = [mask_of(remap[i] for i in bits_of(t)) for t in {m & keep for m in G.flats()}]
    return TableGeometry(len(idx), table, name=f"sub({G.label()})")


def basis_of(G: FiniteGeometry, S: Flat, generators) -> tuple:
    """Greedy independent subsequence of generators spanning S, scanned in
    canonical point order."""
    gen = _points_mask(G, generators)
    if G.closure_mask(gen) != S.mask:
        raise NotGenerating("generators do not span the flat")
    return G._basis(gen)


def dim(G: FiniteGeometry, S: Flat) -> int:
    return G.flat_dim(S.mask)


def join(G: FiniteGeometry, S1: Flat, S2: Flat) -> Flat:
    return Flat(G, G.closure_mask(S1.mask | S2.mask))


def meet(G: FiniteGeometry, S1: Flat, S2: Flat) -> Flat:
    return Flat(G, S1.mask & S2.mask)


def dim_formula_violations(G: FiniteGeometry, flats):
    """(m1, m2, lhs, rhs) for each pair of the given flats, m1 listed no
    later than m2, where lhs = dim m1 + dim m2 differs from
    rhs = dim(m1 v m2) + dim(m1 n m2); pairs come in list order.  A pair
    of nested flats is skipped: its join is the larger flat and its meet the
    smaller, so it cannot violate the formula."""
    dims = [G.flat_dim(m) for m in flats]
    for i, m1 in enumerate(flats):
        for j in range(i, len(flats)):
            m2 = flats[j]
            meet = m1 & m2
            if meet == m1 or meet == m2:
                continue
            rhs = G.join_dim(m1, m2) + G.flat_dim(meet)
            if dims[i] + dims[j] != rhs:
                yield m1, m2, dims[i] + dims[j], rhs


# -- axiom checking -----------------------------------------------------------


class AxiomReport(Report):
    def __init__(self, g1, g2, g3, g4, closure_ok, witnesses):
        self.g1 = g1
        self.g2 = g2
        self.g3 = g3
        self.g4 = g4
        self.closure_ok = closure_ok
        self.witnesses = witnesses

    @property
    def all_pass(self):
        return self.g1 and self.g2 and self.g3 and self.g4 and self.closure_ok

    def as_dict(self):
        return {
            "g1": self.g1,
            "g2": self.g2,
            "g3": self.g3,
            "g4": self.g4,
            "closure_operator": self.closure_ok,
            "all_pass": self.all_pass,
            "witnesses": {k: v for k, v in self.witnesses.items()},
        }


def check_geometry_axioms(G: FiniteGeometry) -> AxiomReport:
    """Verdict per axiom with a concrete witness on failure.

    The closure operator itself is checked (extensive, monotone, idempotent)
    on singletons, cached flats and CLOSURE_SAMPLES seeded subsets.  G2 and
    the exchange axiom hold on every span-trace geometry, coordinate
    quotients included: the meet of two traces is the trace of the meet of
    their spans, a point outside a flat lies outside its span, and strictly
    nested flats have strictly nested spans.  Tables run G2 on the table
    they were given, and any other geometry on its flats.  Table
    geometries, their quotients included, get the literal interval scan of
    every (flat, outside point) pair.
    """
    witnesses = {}
    flats = G.flats()
    flat_set = G.flat_set()
    full = G.full_mask
    cl = G.closure_mask

    # closure operator sanity
    closure_ok = True
    rng = random.Random(CLOSURE_SEED)
    samples = [0, full] + [1 << i for i in range(G.n_points)]
    for _ in range(CLOSURE_SAMPLES):
        samples.append(rng.getrandbits(G.n_points) & full)
    for m in samples:
        c = cl(m)
        if m & ~c or cl(c) != c:
            closure_ok = False
            witnesses["closure"] = sorted(bits_of(m))
            break
        big = cl(m | (1 << rng.randrange(G.n_points))) if G.n_points else c
        if c & ~big:
            closure_ok = False
            witnesses["closure_monotone"] = sorted(bits_of(m))
            break

    # G1
    g1 = cl(0) == 0 and full in flat_set
    singleton_bad = None
    for i in range(G.n_points):
        if cl(1 << i) != 1 << i:
            g1 = False
            singleton_bad = i
            break
    if not g1:
        witnesses["g1"] = {"empty_closed": cl(0) == 0, "bad_singleton": singleton_bad}

    # G2: pairwise intersections stay in the closure system (see above)
    g2 = True
    if isinstance(G, CoordGeometry):
        family = ()
    else:
        family = G.raw_table if isinstance(G, TableGeometry) else flats
    member = set(family)
    for m1, m2 in itertools.combinations(family, 2):
        if m1 & m2 not in member:
            g2 = False
            witnesses["g2"] = [sorted(bits_of(m1)), sorted(bits_of(m2))]
            break

    # G3 holds on span traces (see above); other geometries scan intervals
    g3 = True
    if not isinstance(G, CoordGeometry):
        for s in flats:
            if not g3:
                break
            for x in bits_of(full & ~s):
                t = cl(s | (1 << x))
                for cand in flats:
                    if cand != s and cand != t and s & ~cand == 0 and cand & ~t == 0:
                        g3 = False
                        witnesses["g3"] = {
                            "flat": sorted(bits_of(s)),
                            "point": x,
                            "between": sorted(bits_of(cand)),
                        }
                        break
                if not g3:
                    break

    # G4 holds for any finite universe
    g4 = True
    return AxiomReport(g1, g2, g3, g4, closure_ok, witnesses)


# -- morphisms ---------------------------------------------------------------


class GeometryMorphism(namedtuple("GeometryMorphism", "source target map")):
    """Total point map whose flat preimages are flats."""

    __slots__ = ()

    def __call__(self, i):
        return self.map[i]

    def is_surjective(self):
        return len(set(self.map)) == self.target.n_points

    def is_injective(self):
        return len(set(self.map)) == len(self.map)

    def preimage_mask(self, target_mask):
        m = 0
        for i, y in enumerate(self.map):
            if target_mask >> y & 1:
                m |= 1 << i
        return m


class PartialMorphism(namedtuple("PartialMorphism", "source target exceptional map")):
    """Point map defined off an exceptional flat, constant on its join
    classes; an entry of map is None exactly on the exceptional flat."""

    __slots__ = ()

    def __call__(self, i):
        return self.map[i]

    def defined_mask(self):
        return self.source.full_mask & ~self.exceptional.mask

    def validate(self):
        """Check the defining conditions by definition: undefined exactly
        on E, constant on each class x v E, and every target-flat preimage
        under the restriction to source - E is a flat of that subgeometry.
        Raises NotAMorphism naming the first failure, or
        NotConstantOnClasses for a class with two images."""
        e = self.exceptional.mask
        for i, y in enumerate(self.map):
            if (y is None) != bool(e >> i & 1):
                raise NotAMorphism("definedness does not match the exceptional flat")
        i = class_clash(self.source, e, self.map)
        if i is not None:
            key = self.source.closure_mask(e | 1 << i)
            raise NotConstantOnClasses(f"points {i} and class {sorted(bits_of(key))}")
        dom = sorted(bits_of(self.defined_mask()))
        sub = subgeometry(self.source, dom)
        witness = _flat_preimage_witness(
            GeometryMorphism(sub, self.target, tuple(self.map[i] for i in dom))
        )
        if witness is not None:
            raise NotAMorphism(f"restriction is not a morphism: {witness}")
        return True


def class_clash(G: FiniteGeometry, e_mask: int, images):
    """The first point whose image differs from that of an earlier point of
    its class i v E in G, or None.  None images (points of E) are skipped;
    images may be target indices or coordinate vectors."""
    seen = {}
    for i, y in enumerate(images):
        if y is not None and seen.setdefault(G.closure_mask(e_mask | 1 << i), y) != y:
            return i
    return None


def _flat_preimage_witness(f: GeometryMorphism):
    """The first target flat whose preimage is not a source flat, with that
    preimage, or None when every preimage is a flat.  A preimage is a flat
    when it is closed, so no flat of the source is built."""
    for t in f.target.flats():
        pre = f.preimage_mask(t)
        if f.source.closure_mask(pre) != pre:
            return {"target_flat": list(bits_of(t)), "preimage": list(bits_of(pre))}
    return None


def flat_preimage_condition(f: GeometryMorphism) -> bool:
    """The defining morphism condition: every target-flat preimage is a
    source flat."""
    return _flat_preimage_witness(f) is None


# -- generated by lines / planes ----------------------------------------------


class GeneratedReport(Report):
    """The verdict of is_generated_by_lines(_planes), exact at every size:
    method is always "exhaustive" and seed None, as on the other verdict
    records.  family_size is the number of flats on a true verdict (the
    rule-closed sets are then the flats) and None on a false one, whose
    witness is {"flat_not_rule_closed": points} or
    {"rule_closed_not_flat": points}, the least in (size, mask) order."""

    def __init__(self, verdict, method, seed, family_size, witness=None):
        self.verdict = verdict
        self.method = method
        self.seed = seed
        self.family_size = family_size
        self.witness = witness

    def __bool__(self):
        return self.verdict


def _rule_closure(G, closed, points, use_planes, stop):
    """The rule closure of closed | points for a rule-closed set closed: add
    the line through any two points (and the closure of any three off one
    line, when use_planes), pairing each new point only with those taken
    before it.  Stops early once the set is in stop, a family of
    rule-closed sets: the growth stays inside the rule closure, so a
    rule-closed set it reaches is that closure."""
    cur, done = closed | points, closed
    while cur != done and cur not in stop:
        x = next(bits_of(cur & ~done))
        for a in bits_of(done):
            line = G.line_through_pair(a, x)
            cur |= line
            if use_planes:
                for b in bits_of(done & ~line & ~((2 << a) - 1)):
                    cur |= G.closure_mask((1 << a) | (1 << b) | (1 << x))
        done |= 1 << x
    return cur


def _generated_by(G, use_planes):
    """The criterion of is_generated_by_lines, flat by flat in (size, mask)
    order.  Once every flat is rule-closed, the growth of the rule closure
    of F + p stops at the first flat it reaches; and no flat as large as
    the best witness so far can give a smaller one."""
    flats = G.flat_set()
    for m in G.flats():
        if _rule_closure(G, 0, m, use_planes, ()) != m:
            return GeneratedReport(False, "exhaustive", None, None,
                                   witness={"flat_not_rule_closed": sorted(bits_of(m))})
    best = (G.n_points + 1, 0)  # (size, mask) of the least witness so far
    for f in G.flats():
        if f.bit_count() >= best[0]:
            break
        for p in bits_of(G.full_mask & ~f):
            t = _rule_closure(G, f, 1 << p, use_planes, flats)
            if t not in flats:
                best = min(best, (t.bit_count(), t))
    if best[1]:
        return GeneratedReport(False, "exhaustive", None, None,
                               witness={"rule_closed_not_flat": sorted(bits_of(best[1]))})
    return GeneratedReport(True, "exhaustive", None, len(flats))


def is_generated_by_lines(G) -> GeneratedReport:
    """True when the line rule regenerates exactly the flat family: every
    set holding the line through any two of its points is a flat.  That
    holds exactly when every flat is rule-closed and, for every flat F and
    point p off F, the rule closure of F + p is a flat.  Proof: a minimal
    rule-closed non-flat S holds a maximal flat F inside it and a point p of
    S off F; the rule closure of F + p lies inside S and is no flat, by the
    maximality of F, so by the minimality of S it is S.  The witness of a
    false verdict is therefore the least non-flat among these closures."""
    return _generated_by(G, False)


def is_generated_by_lines_planes(G) -> GeneratedReport:
    """The same with the plane rule added: a rule-closed set also holds the
    closure of any three of its points off one line."""
    return _generated_by(G, True)


# -- quotients -----------------------------------------------------------------


def quotient(G: FiniteGeometry, E: Flat):
    """The quotient geometry and its projection partial morphism."""
    Q = quotient_geometry(G, E.mask)
    mapping = []
    for i in range(G.n_points):
        if E.mask >> i & 1:
            mapping.append(None)
        else:
            mapping.append(Q.class_of_parent_point(i))
    pi = PartialMorphism(G, Q, Flat(G, E.mask), tuple(mapping))
    return Q, pi


def factor_through_quotient(phi: PartialMorphism) -> GeometryMorphism:
    """The unique morphism on X/E with phi = (that morphism) o projection."""
    G = phi.source
    for line in G.lines():
        if line.bit_count() < 3:
            raise PreconditionLinesTooShort(f"line {sorted(bits_of(line))} has < 3 points")
    Q, pi = quotient(G, phi.exceptional)
    mapping = [None] * Q.n_points
    for i, y in enumerate(phi.map):
        if y is None:
            continue
        c = pi(i)
        if mapping[c] is None:
            mapping[c] = y
        elif mapping[c] != y:
            raise NotConstantOnClasses(f"class {c} receives {mapping[c]} and {y}")
    if any(v is None for v in mapping):
        raise NotConstantOnClasses("some class has no defined value")
    return GeometryMorphism(Q, phi.target, tuple(mapping))


# -- dimension bounds -----------------------------------------------------------


class DimBoundsReport(Report):
    def __init__(self, surjective, dim_source, dim_target, dim_ok, equal_dims, bijective, isomorphism):
        self.surjective = surjective
        self.dim_source = dim_source
        self.dim_target = dim_target
        self.dim_ok = dim_ok
        self.equal_dims = equal_dims
        self.bijective = bijective
        self.isomorphism = isomorphism  # None when dims differ

    def as_dict(self):
        return dict(vars(self))


def check_dim_bounds(f: GeometryMorphism) -> DimBoundsReport:
    """For a surjective morphism: dim source >= dim target, and equality of
    finite dimensions forces an isomorphism.  A bijection of equal
    dimension is an isomorphism when its inverse pulls every flat back to a
    flat (the exact flat-preimage condition)."""
    surj = f.is_surjective()
    ds, dt = f.source.dim(), f.target.dim()
    ok = (not surj) or ds >= dt
    bij = f.is_injective() and surj
    iso = None
    if surj and ds == dt:
        iso = False
        if bij:
            inv = [0] * f.source.n_points
            for i, y in enumerate(f.map):
                inv[y] = i
            iso = flat_preimage_condition(GeometryMorphism(f.target, f.source, tuple(inv)))
    elif bij:
        # bijective with a dimension drop: the bijective-non-isomorphism case
        iso = False
    return DimBoundsReport(surj, ds, dt, ok, surj and ds == dt, bij, iso)

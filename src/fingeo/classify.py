"""Classification predicates for subgeometries of a projective space:
enough points, locally projective, the ambient line condition,
point/line/plane axioms, the bundle condition, affino-projective and
locally affino-projective certificates, Moebius and ovoid recognition, and
minimal-embedding verification.

The local predicates read each quotient X/x off X's own lattice: the flats
of X/x are the flats of X through x, one dimension lower, so no quotient
geometry is built.  On a coordinate geometry X/x = P/x off the tangent
points (_tangent_points), so the local predicates sweep only those.  Every
negative verdict carries a witness that can be re-checked in isolation;
every certificate (hyperplane H, tangent hyperplanes H_x) is reported
explicitly.  Predicates over the ambient space take any CoordGeometry,
quotients included: its ambient space P is the PG(n, q) its coordinates
live in, read off by X.ambient and the ambient view built once beside it
(X.ambient_indices, X.local_of, X.ambient_mask).  They read the lines,
planes and hyperplanes of P, never its incidence index; the tangent lines
at every point, and the tangent points with them, come from one pass over
P's lines (tangent_lines), as do the secant lines (secant_lines), and the
span of each line or plane of X from one pass over P's lines or planes
(_spans), which lp4, the enough-points count and lp4prime read.  Facts read
more than once are kept in the geometry's one memo, X.plan (_memo).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import random

from .errors import DimensionTooLow, InternalContradiction
from .geometry import CoordGeometry, Report, bits_of, containing, dim_formula_violations, mask_of

BUNDLE_LIMIT = 10**8
BUNDLE_SEED = 0xB1D
BUNDLE_SAMPLES = 20000


class Verdict(Report):
    """One predicate outcome with witnesses / certificates."""

    def __init__(self, name, verdict, witnesses=None, certificates=None, method="exhaustive", seed=None):
        self.name = name
        self.verdict = verdict  # True / False / "not applicable"
        self.witnesses = [] if witnesses is None else witnesses
        self.certificates = {} if certificates is None else certificates
        self.method = method
        self.seed = seed

    def __bool__(self):
        return self.verdict is True

    def as_dict(self, include_witnesses=True):
        d = {"verdict": self.verdict, "method": self.method}
        if self.seed is not None:
            d["seed"] = self.seed
        if self.certificates:
            d["certificates"] = self.certificates
        if include_witnesses and self.witnesses:
            d["witnesses"] = self.witnesses
        return d


class ClassificationReport(Report):
    def __init__(self, geometry, verdicts):
        self.geometry = geometry
        self.verdicts = verdicts

    def as_dict(self, include_witnesses=True):
        return {
            "geometry": self.geometry,
            "predicates": {k: v.as_dict(include_witnesses) for k, v in self.verdicts.items()},
        }


def _memo(fn):
    """fn(X) computed once per geometry and kept in its plan, keyed by fn."""
    return functools.wraps(fn)(lambda X: X.plan(fn))


# -- enough points ---------------------------------------------------------------


def _has_quadrilateral(G, plane_mask):
    """Four points of the plane, no three collinear."""
    pts = list(bits_of(plane_mask))
    for quad in itertools.combinations(pts, 4):
        ok = True
        for tri in itertools.combinations(quad, 3):
            line = G.line_through_pair(tri[0], tri[1])
            if line >> tri[2] & 1:
                ok = False
                break
        if ok:
            return quad
    return None


@_memo
def tangent_lines(X: CoordGeometry) -> tuple:
    """For each local point x, its tangent lines (the lines of P through x
    that meet X nowhere else) in P.lines() order; built once, by one pass
    over P's lines.  X/x = P/x exactly when x has no tangent line, and X/x
    is affino-projective in P/x exactly when a hyperplane through x holds
    them all."""
    local_of, xmask = X.local_of, X.ambient_mask
    out = [[] for _ in range(X.n_points)]
    for line in X.ambient.lines():
        hit = line & xmask
        if hit and hit & (hit - 1) == 0:
            out[local_of[hit.bit_length() - 1]].append(line)
    return tuple(map(tuple, out))


@_memo
def tangent_unions(X: CoordGeometry) -> tuple:
    """For each local point, the union of its tangent lines; built once."""
    return tuple(functools.reduce(operator.or_, ts, 0) for ts in tangent_lines(X))


@_memo
def _tangent_points(X: CoordGeometry) -> int:
    """The points of X on a tangent line, as a bitmask; built once."""
    return mask_of(x for x, ts in enumerate(tangent_lines(X)) if ts)


def _spans(X: CoordGeometry, d: int) -> dict:
    """{trace: span} over the d-flats of P, by one pass over them: a d-flat
    of X is the trace of exactly one, its span.  Planned once per d."""
    return {mask_of(map(X.local_of.__getitem__, bits_of(s & X.ambient_mask))): s for s in X.ambient.rank_flats(d)}


@_memo
def plane_spans(X: CoordGeometry) -> tuple:
    """For each plane of X, in X.planes() order, its span: the one plane of P
    whose trace it is; built once.  Through its span a plane knows the
    tangent lines inside it."""
    return tuple(map(X.plan(_spans, 2).__getitem__, X.planes()))


@_memo
def has_enough_points(X) -> Verdict:
    """Every plane of X contains a quadrilateral.

    The certificate quotient_line_form says whether every line of every
    X/x has at least three points.  A line of X/x is a plane of X through
    x, and its points are the lines of X through x inside that plane, so
    one plane scan counts them and searches the plane.  The form implies
    the plane form and can be strictly stronger (ruled quadrics have
    two-point quotient lines).

    On a coordinate geometry a point x of a plane lies on q + 1 of its
    lines less the tangent lines at x inside the plane's span, each of
    which adds q points to the span's meet with x's tangent union; so only
    tangent points are counted, with no incidence index, and only planes
    failing the count are searched: if each point of a plane lies on three
    of its lines, a non-collinear a, b, c of it and no quadrilateral put
    every point on ab, bc or ca; a third line through a has a point d on
    bc, a third line through d a point e on ab, and a, c, d, e is a
    quadrilateral after all.  Tables count on the incidence index, search
    every plane and assert the implication.
    """
    if X.dim() < 2:
        raise DimensionTooLow(f"dim {X.dim()} < 2")
    coord = isinstance(X, CoordGeometry)
    counted = _tangent_points(X) if coord else X.full_mask
    if not coord:
        inc = X.incidence
        lines_at = lambda p, x: (inc.plane_lines[p] & inc.point_lines[x]).bit_count()
    elif counted:  # with no point counted, nothing is asked
        q, spans, unions = X.field.q, plane_spans(X), tangent_unions(X)
        lines_at = lambda p, x: q + 1 - ((spans[p] & unions[x]).bit_count() - 1) // q
    quotient_form = True
    witnesses = []
    for p, pm in enumerate(X.planes()):
        full = all(lines_at(p, x) >= 3 for x in bits_of(pm & counted))
        quotient_form &= full
        if not (coord and full) and _has_quadrilateral(X, pm) is None:
            witnesses.append({"plane": sorted(bits_of(pm))})
    if quotient_form and witnesses:
        raise InternalContradiction("quotient-line form passed but a plane lacks a quadrilateral")
    return Verdict("enough_points", not witnesses, witnesses, {"quotient_line_form": quotient_form})


# -- locally projective ------------------------------------------------------------


def _skew_points(X: CoordGeometry) -> int:
    """The points x in which a plane and a hyperplane of X meet alone, as a
    bitmask.  Their spans meet in a tangent line at x, so only planes with
    a tangent point not yet flagged are swept."""
    tangent = _tangent_points(X)
    hyperplanes = X.hyperplanes()
    bad = 0
    for pm in X.planes():
        for hm in hyperplanes if pm & tangent & ~bad else ():
            meet = pm & hm
            if meet & (meet - 1) == 0:  # empty or one point
                bad |= meet
    return bad


@_memo
def is_locally_projective(X) -> Verdict:
    """X/x is a projective space for every x.  The flats of X/x are the
    flats of X through x, so X/x is projective exactly when the dimension
    formula holds on every pair of flats through x; each failing point is
    reported with the first violating pair.

    On a coordinate geometry the flats through x form an interval of a
    linear matroid's lattice, itself a geometric lattice, and a geometric
    lattice satisfies the formula on every pair exactly when each of its
    lines meets each of its hyperplanes.  (That property passes to every
    interval, so by induction on rank every pair with a common point, or
    with a join below the top, satisfies the formula; for the other pairs
    a, b the join of a and a point p of b meets b in p alone, since a second
    point q would give a line pq missing the hyperplane a of that join.
    Requiring only that two lines in one plane meet is not enough: five
    points in general position in a 3-space pass it.)  The lines of the
    interval are the planes of X through x and its hyperplanes are the
    hyperplanes of X through x, so x passes exactly when no plane and
    hyperplane of X meet in x alone.  That is read off the flats with bit
    operations, and the pair sweep runs only at the failing points, to name
    the witness: the first violating pair, in flat order, of the flats of
    dimension >= 2 through it, gathered for all failing points in one pass
    over X.flats().  (A line through x whose span met a flat's span beyond
    <x> would lie in that flat.)  A failing point with no such pair raises
    InternalContradiction.  Tables sweep every flat at every point.
    """
    coord = isinstance(X, CoordGeometry)
    swept = _skew_points(X) if coord else X.full_mask
    through = {x: [] for x in bits_of(swept)}
    for m in X.flats() if swept else ():
        if m & swept and not (coord and X.flat_dim(m) < 2):
            for x in bits_of(m & swept):
                through[x].append(m)
    witnesses = []
    for x, flats in through.items():
        pair = next(dim_formula_violations(X, flats), None)
        if pair is not None:
            w = {"s1": sorted(bits_of(pair[0])), "s2": sorted(bits_of(pair[1]))}
            witnesses.append({"point": x, "dim_formula_witness": w})
        elif coord:
            raise InternalContradiction(f"point {x} is flagged, yet its flats satisfy the dimension formula")
    return Verdict("locally_projective", not witnesses, witnesses)


def check_line_condition(X: CoordGeometry) -> Verdict:
    """Every ambient line misses X or meets it at least twice: X has no
    tangent line, and each tangent line, at its one point of X, is a witness."""
    # sorted by (size, mask), the tangent lines come in P.lines() order
    tangents = sorted(itertools.chain(*tangent_lines(X)), key=lambda m: (m.bit_count(), m))
    return Verdict("line_condition", not tangents, [{"line": sorted(bits_of(line))} for line in tangents])


# -- point/line/plane axioms --------------------------------------------------------


def check_lp_axioms(X) -> Verdict:
    """Incidence axioms on X's points, lines and planes: unique joining
    line (lp1) and plane (lp2), lines inside planes (lp3), and the
    plane-intersection axiom (lp4); on three-dimensional geometries also
    the two-plane form (lp4prime) and the existence of four non-coplanar
    points (lp5).

    On a coordinate geometry lp1 to lp3 hold with no sweep, as lp5 does: a
    flat is the trace of its span, so two points span one line, a
    non-collinear triple spans rank 3, whose trace is the one plane holding
    it, and the line through two points of a plane lies in that plane.
    Other geometries sweep them on the incidence index (_lp_sweeps).

    A locally projective coordinate geometry passes lp4 and lp4prime with
    no sweep: each failure is two planes meeting in x alone inside a
    3-flat (for lp4, l1 v x and l2 v x inside the plane's join with x),
    which breaks the dimension formula at x, 2 + 2 against 3 + 0.  Other
    coordinate geometries read lp4 and lp4prime off the tangent lines and
    the spans of lines and planes (_lp4_witness, _lp4prime_partners), with no
    incidence index; tables sweep them on theirs."""
    results = dict.fromkeys(("lp1", "lp2", "lp3", "lp4"), True)
    witnesses = []

    def fail(axiom, **witness):
        results[axiom] = False
        witnesses.append({"axiom": axiom, **witness})

    coord = isinstance(X, CoordGeometry)
    sweep = not (coord and is_locally_projective(X))
    if not coord:
        _lp_sweeps(X, X.incidence, fail)
    lp4 = _lp4_witness(X) if sweep else None
    if lp4 is not None:
        fail("lp4", lines=[sorted(bits_of(m)) for m in lp4[:2]], point=lp4[2])
    if X.dim() == 3:
        later = _lp4prime_partners(X) if sweep else []
        results["lp4prime"] = not any(later)
        points = [list(bits_of(m)) for m in X.planes()] if any(later) else []  # one list per plane, shared
        witnesses += ({"axiom": "lp4prime", "planes": [points[i], points[k]]} for i, ks in enumerate(later) for k in ks)
        # a greedy basis of X is four points whose closure, X, has dimension 3
        results["lp5"] = True
    return Verdict("lp_axioms", all(results.values()), witnesses, results)


def _lp4prime_partners(X):
    """For each plane of a 3-dimensional X, the indices of the later planes
    that meet it in one point, ascending: the pairs in combinations order.
    On a coordinate geometry two planes meet in x alone exactly when their
    spans, distinct planes of a 3-space, meet in a tangent line at x; so
    the partners are found through the tangent lines inside each span, read
    at each point x of a plane as the span's meet with x's tangent union.
    Tables sweep every pair."""
    planes = X.planes()
    if not isinstance(X, CoordGeometry):
        return [[k for k in range(i + 1, len(planes)) if m & planes[k] and X.flat_dim(m & planes[k]) != 1]
                for i, m in enumerate(planes)]
    spans, tangent, unions, amb = plane_spans(X), _tangent_points(X), tangent_unions(X), X.ambient_indices
    # at each point x, the tangent line at x through each other point of P
    line_at = [{z: t for t in lines for z in bits_of(t)} for lines in tangent_lines(X)]
    holders, held = {}, [[] for _ in planes]  # the planes holding each tangent line, ascending, and back
    for i, pm in enumerate(planes):
        for x in bits_of(pm & tangent):
            rest = spans[i] & unions[x] & ~(1 << amb[x])
            while rest:
                t = line_at[x][rest.bit_length() - 1]
                held[i].append(holders.setdefault(t, []))
                holders[t].append(i)
                rest &= ~t
    return [sorted(itertools.chain(*(ks[bisect.bisect(ks, i):] for ks in lists))) for i, lists in enumerate(held)]


def _lp_sweeps(X, inc, fail):
    """lp1 to lp3, failures reported in sweep order: a pair of points is
    read with the last line through it, a non-collinear triple of a plane
    fails lp2 when an earlier plane holds it too, and every non-collinear
    triple is closed."""
    lines, planes, pl = inc.lines, inc.planes, inc.point_lines

    def last_line(a, b):
        return (pl[a] & pl[b]).bit_length() - 1  # -1 when no line holds both

    def noncollinear(a, b, c):
        return (la := last_line(a, b)) >= 0 and not lines[la] >> c & 1

    for i, m in enumerate(lines):
        for a, b in itertools.combinations(bits_of(m), 2):
            if pl[a] & pl[b] & ((1 << i) - 1):  # an earlier line holds a and b
                fail("lp1", points=[a, b])
    for a, b in itertools.combinations(range(X.n_points), 2):
        if not pl[a] & pl[b]:
            fail("lp1", points=[a, b])
    for p, m in enumerate(planes):
        shared = [s for s in (m & q for q in planes[:p]) if s.bit_count() >= 3]
        triples = [t for t in itertools.combinations(bits_of(m), 3) if noncollinear(*t)]
        for t in triples:
            if any(mask_of(t) & ~s == 0 for s in shared):
                fail("lp2", points=list(t))
        if not triples:
            fail("lp2", plane=sorted(bits_of(m)))
    for t in itertools.combinations(range(X.n_points), 3):
        if noncollinear(*t) and X.flat_dim(X.closure_mask(mask_of(t))) != 2:
            fail("lp2", points=list(t))
    for p, m in enumerate(planes):
        for a, b in itertools.combinations(bits_of(m), 2):
            if (la := last_line(a, b)) >= 0 and not inc.line_planes[la] >> p & 1:
                fail("lp3", plane=sorted(bits_of(m)), points=[a, b])


def _lp4_witness(X):
    """The first plane, pair of its lines l1, l2 and point x off the plane,
    in that order, with (l1 v x) & (l2 v x) not a line, as (l1, l2, x), or
    None.  On a coordinate geometry the spans of disjoint lines l1 and l2 of
    the plane meet in a point z off X, and l1 v x and l2 v x are the traces
    of two planes of P meeting in the line xz; so x fails exactly when xz is
    a tangent line at x, and lines that meet pass at every x.  Tables close
    both joins."""
    coord = isinstance(X, CoordGeometry)
    if coord:
        span = X.plan(_spans, 1)
        through = containing(tangent_unions(X), X.ambient.n_points)  # at each z, the points whose tangent lines hold it
    else:
        inc, cl = X.incidence, X.closure_mask
    for p, pm in enumerate(X.planes()):
        if coord:
            lines = [(m, span[m]) for m in X.lines() if m & ~pm == 0]
        else:
            lines = [(inc.lines[i], None) for i in bits_of(inc.plane_lines[p])]
        for (l1, s1), (l2, s2) in itertools.combinations(lines, 2):
            if coord:
                bad = 0 if l1 & l2 else through[(s1 & s2).bit_length() - 1] & ~pm
                x = (bad & -bad).bit_length() - 1
            else:
                outside = bits_of(X.full_mask & ~pm)
                x = next((x for x in outside if X.flat_dim(cl(l1 | 1 << x) & cl(l2 | 1 << x)) != 1), -1)
            if x >= 0:
                return l1, l2, x
    return None


# -- bundle condition ----------------------------------------------------------------


def _coplanarity(X):
    """The lines of X, one coplanarity bitset per line, and co(i, k): for
    coplanar lines i and k, the bitset of the lines l coplanar with both
    such that i, k and l lie in one plane, memoised per pair.

    Lines are coplanar when their union closes to dimension <= 2, so every
    pair is closed, and for co(i, k) every i | k | l with l a common
    neighbour of i and k, the same split _build_flats makes.  The closure
    route runs on any geometry; check_bundle_theorem needs it only on
    tables.
    """
    lines = X.lines()
    nl = len(lines)
    adj = [0] * nl

    def coplanar(m):
        return X.flat_dim(X.closure_mask(m)) <= 2

    for i, j in itertools.combinations(range(nl), 2):
        if coplanar(lines[i] | lines[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i

    def in_common_plane(i, k):
        # the closure of cl(i | k) | l is the closure of i | k | l, and
        # the pairs spanning one plane share it in the closure memo
        ik = X.closure_mask(lines[i] | lines[k])
        return mask_of(l for l in bits_of(adj[i] & adj[k]) if coplanar(ik | lines[l]))

    memo = {}

    def co(i, k):
        key = (i, k) if i < k else (k, i)
        got = memo.get(key)
        if got is None:
            got = memo[key] = in_common_plane(i, k) & adj[i] & adj[k]
        return got

    return lines, adj, co


def check_bundle_theorem(X, limit=BUNDLE_LIMIT, seed=BUNDLE_SEED) -> Verdict:
    """Among four lines with no three in a common plane, five coplanar pairs
    force the sixth.

    On a coordinate geometry, quotients included, the condition holds with
    no sweep; it is the bundle theorem of the ambient space, inherited by
    traces:
    - Two lines are coplanar exactly when their spans meet.
    - Take four lines where a and b are the only non-coplanar pair, and no
      three lie in one plane.  The spans C and D of the other two meet in
      one point p.
    - A meets both C and D.  If it met them in two different points, a
      would lie in the plane of c and d.  So A passes through p, and so
      does B.
    - So a and b are coplanar, and no violation exists.

    Table geometries are swept, and the violation check is exact.  A
    violation is four lines whose one non-coplanar pair a, b lies in
    S(c, d) = adj[c] & adj[d] & ~co(c, d) of the other two, so one sweep
    over the coplanar pairs (_first_violation) decides the condition, and a
    verdict that holds is exact whatever its method.  Only when a violation
    exists are witnesses searched for: exhaustively when line_count^4 <=
    limit, over the 4-tuples with exactly one non-coplanar pair in
    lexicographic order, else over BUNDLE_SAMPLES seeded rng.sample draws
    (the seed is recorded).  Both stop at the fifth violation.  So the seed
    decides only which witnesses a failing verdict reports; if every draw
    misses, the pair sweep's violation is reported.  A coordinate geometry
    reports the method and seed that search would use.
    """
    if X.dim() < 3:
        raise DimensionTooLow(f"dim {X.dim()} < 3")
    nl = len(X.lines())
    if nl**4 <= limit:
        method, used_seed = "exhaustive", None
    else:
        method, used_seed = "sampled", seed
    witnesses = [] if isinstance(X, CoordGeometry) else _bundle_witnesses(X, method, seed)
    out = Verdict("bundle_theorem", not witnesses, witnesses, method=method, seed=used_seed)
    out.certificates["violations"] = len(witnesses)
    return out


def _bundle_witnesses(X, method, seed):
    """Up to five violating 4-tuples of lines of X, as point lists, found by
    the search check_bundle_theorem describes."""
    lines, adj, co = _coplanarity(X)
    first = _first_violation(adj, co)
    if first is None:
        return []
    if method == "exhaustive":
        tuples = _one_gap_tuples(adj)
    else:
        rng = random.Random(seed)
        tuples = (tuple(sorted(rng.sample(range(len(lines)), 4))) for _ in range(BUNDLE_SAMPLES))
    found = list(itertools.islice((t for t in tuples if _violates(adj, co, t)), 5)) or [first]
    return [[sorted(bits_of(lines[i])) for i in tup] for tup in found]


def _first_violation(adj, co):
    """The first violating 4-tuple (sorted) met by the sweep over coplanar
    pairs c < d and the lines a of S(c, d) with a non-neighbour in S(c, d),
    or None.  Many pairs share one S (in PG(n, q), all pairs of a pencil),
    so each S found to be a clique is checked once."""
    seen = set()
    for c, ac in enumerate(adj):
        for d in bits_of(ac >> (c + 1) << (c + 1)):
            s = ac & adj[d] & ~co(c, d)
            if s in seen:
                continue
            seen.add(s)
            for a in bits_of(s):
                gap = s & ~adj[a] & ~(1 << a)
                if gap:
                    b = (gap & -gap).bit_length() - 1
                    return tuple(sorted((a, b, c, d)))
    return None


def _violates(adj, co, tup):
    """Exactly one pair of tup is not coplanar, and neither triple of
    pairwise coplanar lines lies in a plane.  With one gap the degrees
    inside tup are 2, 2, 3, 3 (sum 10), and the two lines of degree 2 are
    the gap."""
    t = 0
    for i in tup:
        t |= 1 << i
    degrees = [(adj[i] & t).bit_count() for i in tup]
    if sum(degrees) != 10:
        return False
    a, b = (i for i, deg in zip(tup, degrees) if deg == 2)
    c, d = (i for i, deg in zip(tup, degrees) if deg == 3)
    return not co(c, d) & (1 << a | 1 << b)


def _one_gap_tuples(adj):
    """4-tuples i < j < k < l, in lexicographic order, with exactly one pair
    missing from the graph given by the neighbour bitsets adj."""
    nl = len(adj)
    for i, ai in enumerate(adj):
        for j in range(i + 1, nl):
            aj = adj[j]
            ij = ai >> j & 1
            # k may miss one of i, j, and neither when i, j already miss
            ks = (ai | aj) if ij else (ai & aj)
            for k in bits_of(ks >> (j + 1) << (j + 1)):
                ak = adj[k]
                if ij and ai >> k & 1 and aj >> k & 1:
                    # no gap so far: l misses exactly one of i, j, k
                    ls = ((ai & aj) | (ai & ak) | (aj & ak)) & ~(ai & aj & ak)
                else:
                    ls = ai & aj & ak
                for l in bits_of(ls >> (k + 1) << (k + 1)):
                    yield i, j, k, l


# -- affino-projective family ----------------------------------------------------------


@_memo
def is_affino_projective(X: CoordGeometry) -> Verdict:
    """Some ambient hyperplane H with X u H = P; hyperplanes scanned in
    canonical order, first certificate returned, count reported."""
    P, xmask = X.ambient, X.ambient_mask
    certs = [hm for hm in P.hyperplanes() if xmask | hm == P.full_mask]
    out = Verdict("affino_projective", bool(certs))
    out.certificates["certificate_count"] = len(certs)
    if certs:
        out.certificates["hyperplane"] = sorted(bits_of(certs[0]))
        out.certificates["hyperplane_mask"] = certs[0]
    return out


@_memo
def secant_lines(X: CoordGeometry) -> tuple:
    """(p, lines) for each point p of P off an affino-projective X: each line
    through p not inside X's first certifying hyperplane H (p lies in H, as
    X u H = P) as the q local points it holds, in P.lines() order."""
    H = is_affino_projective(X).certificates["hyperplane_mask"]
    out = {p: [] for p in range(X.ambient.n_points) if p not in X.local_of}
    for line in X.ambient.lines():
        if line & ~H and (p := (line & H).bit_length() - 1) in out:
            out[p].append(tuple(map(X.local_of.__getitem__, bits_of(line & ~H))))
    return tuple((p, tuple(lines)) for p, lines in out.items())


@_memo
def lap_certificates(X: CoordGeometry) -> tuple:
    """For each local point x, the first hyperplane of P through x, in
    P.hyperplanes() order, that holds every tangent line at x, or None;
    built once."""
    hyperplanes = X.ambient.hyperplanes()
    covers = (union | 1 << a for union, a in zip(tangent_unions(X), X.ambient_indices))
    return tuple(next((hm for hm in hyperplanes if cover & ~hm == 0), None) for cover in covers)


def is_locally_affino_projective(X: CoordGeometry) -> Verdict:
    """For each point x a hyperplane H_x of P through x absorbing all
    tangent lines at x.  The tangent lines at x are the points of P/x that
    X/x misses, so H_x exists exactly when X/x is affino-projective inside
    P/x; the first H_x in P.hyperplanes() order is the certificate."""
    certs = lap_certificates(X)
    witnesses = [{"point": x} for x, hm in enumerate(certs) if hm is None]
    out = Verdict("locally_affino_projective", not witnesses, witnesses)
    if not witnesses:
        points = {hm: sorted(bits_of(hm)) for hm in set(certs)}
        out.certificates["tangent_hyperplanes"] = {x: points[hm] for x, hm in enumerate(certs)}
    return out


@_memo
def is_mobius(X: CoordGeometry) -> Verdict:
    """At each point the union of the ambient tangent lines is exactly a
    hyperplane."""
    P = X.ambient
    if P.dim() < 3:
        raise DimensionTooLow("ambient dimension < 3")
    if X.n_points <= 2:
        return Verdict("mobius", "not applicable")
    hyper = set(P.hyperplanes())
    witnesses = []
    tangent_planes = {}
    verdict = True
    for local_x, union in enumerate(tangent_unions(X)):
        if union in hyper:
            tangent_planes[local_x] = sorted(bits_of(union))
        else:
            verdict = False
            witnesses.append({"point": local_x, "tangent_union_size": union.bit_count()})
    out = Verdict("mobius", verdict, witnesses)
    if verdict:
        out.certificates["tangent_hyperplanes"] = tangent_planes
    return out


def is_ovoid(X: CoordGeometry) -> Verdict:
    """Moebius, with every ambient line meeting X in at most two points."""
    mob = is_mobius(X)
    if mob.verdict == "not applicable":
        return Verdict("ovoid", "not applicable")
    witnesses = list(mob.witnesses)
    verdict = bool(mob)
    for line in X.ambient.lines():
        if (line & X.ambient_mask).bit_count() > 2:
            verdict = False
            witnesses.append({"long_secant": sorted(bits_of(line))})
            break
    return Verdict("ovoid", verdict, witnesses)


def check_minimal_embedding(X: CoordGeometry) -> Verdict:
    """X/x = P/x for every x: each ambient line through x meets X again."""
    witnesses = [
        {"point": x, "tangent_line": sorted(bits_of(lines[0]))}
        for x, lines in enumerate(tangent_lines(X))
        if lines
    ]
    return Verdict("minimal_embedding", not witnesses, witnesses)


def full_quotient_points(X: CoordGeometry):
    """Local indices x with X/x = P/x (every ambient line through x is a
    secant); the admissible base points of the locally projective driver."""
    return tuple(bits_of(X.full_mask & ~_tangent_points(X)))


def affino_admissible_points(X: CoordGeometry):
    """Local indices x with X/x affino-projective inside P/x (x has a lap
    certificate); the admissible base points of the locally
    affino-projective driver."""
    return tuple(x for x, hm in enumerate(lap_certificates(X)) if hm is not None)


# -- aggregate -----------------------------------------------------------------------


ALL_PREDICATES = (
    "enough_points",
    "locally_projective",
    "line_condition",
    "lp_axioms",
    "bundle_theorem",
    "affino_projective",
    "locally_affino_projective",
    "mobius",
    "ovoid",
    "minimal_embedding",
)


def classify(X: CoordGeometry, predicates=None) -> ClassificationReport:
    """Run the requested predicates (all by default) and assemble a report."""
    wanted = tuple(predicates) if predicates else ALL_PREDICATES
    fns = {
        "enough_points": lambda: has_enough_points(X),
        "locally_projective": lambda: is_locally_projective(X),
        "line_condition": lambda: check_line_condition(X),
        "lp_axioms": lambda: check_lp_axioms(X),
        "bundle_theorem": lambda: check_bundle_theorem(X),
        "affino_projective": lambda: is_affino_projective(X),
        "locally_affino_projective": lambda: is_locally_affino_projective(X),
        "mobius": lambda: is_mobius(X),
        "ovoid": lambda: is_ovoid(X),
        "minimal_embedding": lambda: check_minimal_embedding(X),
    }
    verdicts = {}
    for name in wanted:
        try:
            verdicts[name] = fns[name]()
        except DimensionTooLow as exc:
            verdicts[name] = Verdict(name, "not applicable", [{"reason": str(exc)}])
    return ClassificationReport(X.label(), verdicts)

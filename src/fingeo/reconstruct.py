"""Recovering semilinear maps from geometry morphisms.

The base engine turns a partial morphism between full projective spaces into
the unique-up-to-scalar semilinear map inducing it: fix a frame on a
complement of the exceptional flat, rescale the frame images to one common
factor through the sums of frame pairs, read the field homomorphism off a
coordinate line, extend semilinearly on frame coordinates read off the flat's
RREF, and verify against every point (each frame equation solved in closed
form, every point's image in one sweep); the frame's points and the flat's
projection are planned once per source and flat.  Embedded geometries go
through one two-point driver: pick a base pair, recover a leg (the
semilinear map V/<v_x> -> V'/<v_x'>, with the coordinates of both
quotients) at each base point, build the legs' global matrices once, read
the common scalar off their reductions modulo the base pair (and the pair's
own quotient V/<v1, v2> once per geometry), and lift along the fibred
product.  Both legs run on X's own point quotient X/x, whose coordinates of
V/<v_x> are built once per geometry, and project all of X into V'/<v_x'> in
one sweep.
The locally projective and locally affino-projective cases differ only in how
a leg is recovered: directly from the quotient map, or through the fiber of
the base image and an extension over the completing hyperplane, which meets
the image spans of each point's secant lines by forward elimination and which
the base engine alone accepts or rejects.  One final sweep per map replaces
any case analysis: the induced map agrees at every point or it fails loudly.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple

from . import linalg
from .classify import (
    affino_admissible_points,
    full_quotient_points,
    has_enough_points,
    is_affino_projective,
    secant_lines,
    tangent_unions,
)
from .errors import (
    CapExceeded,
    ExceptionalNotFlat,
    FieldClauseViolated,
    ImageInLine,
    ImageInPlane,
    InconsistentExtension,
    InternalContradiction,
    InvalidArgument,
    InvalidArgumentType,
    LiftInconsistent,
    NoBasePair,
    NotAffinoProjective,
    NotConstantOnClasses,
    NotEnoughPoints,
    NotProportional,
    ReadOnlyField,
    ReductionsDisagree,
    SigmaNotHomomorphism,
    VerificationFailed,
    ZeroMap,
)
from .geometry import (
    CoordGeometry,
    Flat,
    GeometryMorphism,
    PartialMorphism,
    Report,
    bits_of,
    class_clash,
    flat_preimage_condition,
    mask_of,
    quotient_geometry,
)
from .gf import GF, FieldHom, list_homomorphisms
from .projective import (
    LinearSubspace,
    SemilinearMap,
    build_pg,
    quotient_coords,
)


# -- instances ------------------------------------------------------------------


class PartialPointMap:
    """A point map on a full projective space with coordinate images; None
    marks the undefined (exceptional) locus.  Immutable, equal and hashed by
    its four fields; not a tuple, so that it never passes for one."""

    def __init__(self, source: CoordGeometry, target_field: GF, target_dim: int, images: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target_field", target_field)
        object.__setattr__(self, "target_dim", target_dim)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise ReadOnlyField(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise ReadOnlyField(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PartialPointMap:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash((self.source, self.target_field, self.target_dim, self.images))

    def undefined_mask(self):
        return mask_of(i for i, v in enumerate(self.images) if v is None)


class MorphismInstance(
    namedtuple(
        "MorphismInstance",
        "geometry target_field target_dim images declared_kind",
        defaults=("locally-projective",),
    )
):
    """A total morphism from an embedded geometry X into PG(m, q')."""

    __slots__ = ()

    @property
    def source_field(self):
        return self.geometry.field

    def image_rank(self):
        return linalg.rank(self.target_field, self.images)

    @staticmethod
    def restrict_semilinear(phi: SemilinearMap, X: CoordGeometry, kind="locally-projective"):
        """The fixture builder: restrict the induced map of phi to X."""
        images = linalg.twisted_images(phi.target_field, phi.matrix, phi.sigma.table, X.vectors)
        if None in images:
            raise ZeroMap("kernel of the generator meets X")
        return MorphismInstance(X, phi.target_field, phi.n_out - 1, tuple(images), kind)


class ReconstructionResult(Report):
    def __init__(self, phi: SemilinearMap, exceptional: LinearSubspace, base_points: tuple, certificate=None):
        self.phi = phi
        self.exceptional = exceptional
        self.base_points = base_points
        self.certificate = {} if certificate is None else certificate

    @staticmethod
    def of(phi_raw: SemilinearMap, X: CoordGeometry, pair) -> "ReconstructionResult":
        """The canonical form of a map verified on all of X, with its
        kernel and certificate: the base points, the verified point count,
        the power of sigma and the scalar that made phi_raw canonical."""
        phi = phi_raw.canonical()
        cert = {
            "base_points": [list(X.vectors[x]) for x in pair],
            "verified_points": X.n_points,
            "sigma_power": phi.sigma.frobenius_power,
            "scalar_normalization": next(c for row in phi_raw.matrix for c in row if c),
        }
        return ReconstructionResult(phi, phi.kernel(), pair, cert)


# -- base engine ------------------------------------------------------------------


def _as_point_map(psi) -> PartialPointMap:
    if not isinstance(psi, (PartialPointMap, PartialMorphism)):
        raise InvalidArgumentType(f"cannot interpret {type(psi).__name__} as a partial point map")
    src = psi.source
    if not (isinstance(src, CoordGeometry) and src.is_full_pg):
        raise InvalidArgument("source must be a full projective space")
    if isinstance(psi, PartialPointMap):
        if len(psi.images) != src.n_points:
            raise InvalidArgument(f"{len(psi.images)} images for {src.n_points} source points")
        q = psi.target_field.q
        bad = {c for v in psi.images if v is not None for c in v if type(c) is not int or not 0 <= c < q}
        if bad:
            raise InvalidArgument(f"image entry {min(map(repr, bad))} outside {psi.target_field.name}")
        return psi
    tgt = psi.target
    if not isinstance(tgt, CoordGeometry):
        raise InvalidArgument("target must carry coordinates")
    return PartialPointMap(src, tgt.field, tgt.dim(), tuple(None if y is None else tgt.vectors[y] for y in psi.map))


def _frame_plan(src: CoordGeometry, undef: int) -> tuple:
    """What the frame procedure reads off the source and its exceptional flat
    E alone, built once per (source, E) by src.plan: the point index of each
    unit vector on the free columns of E's RREF and of each frame-line point
    e_i + lam.e_j (i < j, by lam), and V -> V/span(E) (None for E empty)."""
    K, n1 = src.field, src.ncoords
    e_rows, e_piv = src.span_rows(undef)
    frame = [linalg.unit_vec(n1, j) for j in range(n1) if j not in e_piv]
    sums = {(i, j): tuple(src.point_index(linalg.vec_add(K, u, linalg.vec_scale(K, lam, v))) for lam in range(K.q))
            for i, u in enumerate(frame) for j, v in enumerate(frame) if i < j}
    R = linalg.quotient_projection(K, e_rows, e_piv, n1) if undef else None
    return tuple(map(src.point_index, frame)), sums, R


def reconstruct_ftpg(psi) -> SemilinearMap:
    """The semilinear map (canonically scaled) inducing a partial morphism
    between full projective spaces whose image is not contained in a line.

    Frame procedure: the undefined set must be a flat E and the map constant
    on its join classes; the coordinate complement of E carries a frame of
    unit vectors, whose images are rescaled to one common factor through
    the sums of frame pairs; the homomorphism is read off the first frame
    line and verified exhaustively; the semilinear extension is compared
    against every point of the source.  Each frame pair gets one closed-form
    solver (None for proportional images), the sigma table one more, and the
    frame coordinates modulo E are the quotient projection read off E's RREF.
    The frame's points and that projection come from the source's frame plan.
    """
    pm = _as_point_map(psi)
    src = pm.source
    K, K2 = src.field, pm.target_field

    undef = pm.undefined_mask()
    if src.closure_mask(undef) != undef:
        raise ExceptionalNotFlat("the undefined set is not a flat")

    img_rank = linalg.rank(K2, [v for v in pm.images if v is not None])
    if img_rank < 3:
        raise ImageInLine(f"image spans a rank-{img_rank} subspace")

    if undef:
        clash = class_clash(src, undef, pm.images)
        if clash is not None:
            raise VerificationFailed(f"map is not constant on the class of point {clash}")

    frame_idx, sums, R = src.plan(_frame_plan, undef)
    d1 = len(frame_idx)
    if d1 < 3:
        raise VerificationFailed("exceptional flat too large for the image span")
    w = [pm.images[i] for i in frame_idx]
    if any(v is None for v in w):
        raise InternalContradiction("frame point maps into the exceptional flat")

    def image_of_sum(i, j, lam=1):
        y = pm.images[sums[i, j][lam]]
        if y is None:
            raise VerificationFailed("a frame line meets the exceptional flat")
        return y

    solvers = {(i, j): linalg.pair_solver(K2, w[i], w[j]) for i, j in sums}

    # rescale the frame images to one common factor by chaining relative
    # scales through pairwise sum points: with true images u_i and normalised
    # images w_i = lambda_i u_i, the chain gives gamma_j w_j = lambda_0 u_j,
    # a factor canonical() removes.  Proportional images (possible only for a
    # non-surjective sigma, when the full kernel has no rational point) form
    # classes and every cross-class pair is usable, so the chain connects
    gamma = [None] * d1
    gamma[0] = 1
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(d1):
                if gamma[j] is not None:
                    continue
                pair = (i, j) if i < j else (j, i)
                if solvers[pair] is None:
                    continue
                ab = solvers[pair](image_of_sum(*pair))
                if ab is None or 0 in ab:
                    raise VerificationFailed("image of a frame-line point left the frame plane")
                a, b = ab if i < j else ab[::-1]
                gamma[j] = K2.mul(gamma[i], K2.div(b, a))
                nxt.append(j)
        frontier = nxt
    if any(g is None for g in gamma):
        raise ImageInLine("frame images are proportional; image lies in a line")
    vpp = [linalg.vec_scale(K2, g, wi) for g, wi in zip(gamma, w)]

    # sigma from the first frame line with independent endpoint images
    si, sj = next(pair for pair, solver in solvers.items() if solver)
    solver = linalg.pair_solver(K2, vpp[si], vpp[sj])
    table = [0] * K.q
    for lam in range(1, K.q):
        ab = solver(image_of_sum(si, sj, lam))
        if ab is None or ab[0] == 0:
            raise VerificationFailed("image of a frame-line point left the frame plane")
        table[lam] = K2.div(ab[1], ab[0])
    sigma = FieldHom(K, K2, tuple(table))
    if not sigma.preserves_structure():
        raise SigmaNotHomomorphism(f"extracted table {table} is not a ring homomorphism")

    # matrix: frame coordinates (the projection V -> V/span(E), read off E's
    # RREF), sigma-twisted, then the rescaled frame images
    M = linalg.transpose(vpp)
    phi = SemilinearMap(sigma, M if R is None else linalg.mat_mul(K2, M, sigma.map_matrix(R)))
    _verify(phi, src.vectors, pm.images)
    return phi.canonical()


def _verify(phi: SemilinearMap, vectors, images):
    """The final sweep: phi must induce images[i] (None inside its kernel)
    at every point vectors[i], all computed at once; the first miss is reported."""
    got = linalg.twisted_images(phi.target_field, phi.matrix, phi.sigma.table, vectors)
    for i, (g, want) in enumerate(zip(got, images)):
        if g != want:
            raise VerificationFailed(f"reconstruction disagrees at point {i}: {g} vs {want}")


# -- quotient transport -------------------------------------------------------------


def _field_clause(K: GF, K2: GF):
    if not (K.q >= 4 or (K.q == 3 and K2.p == 3)):
        raise FieldClauseViolated(
            f"|K| = {K.q} needs |K| >= 4 or |K| = 3 = char K' (char K' = {K2.p})"
        )


def _require_image_not_in_plane(inst: MorphismInstance):
    r = inst.image_rank()
    if r < 4:
        raise ImageInPlane(f"image spans a rank-{r} subspace")


def _require_enough_points(inst: MorphismInstance):
    if not has_enough_points(inst.geometry):
        raise NotEnoughPoints("a plane of X has no quadrilateral")


def _quotient(K: GF, *vs):
    return quotient_coords(LinearSubspace.from_vectors(K, len(vs[0]), vs))


def _pair_quotient(X: CoordGeometry, x1: int, x2: int):
    """V/<v1, v2> for a base pair of X, built once per pair by X.plan."""
    return _quotient(X.field, X.vectors[x1], X.vectors[x2])


def _class_images(inst: MorphismInstance, Q, xi: int, qcp) -> tuple:
    """The image in V'/<v_xi'> (coordinates qcp, all points projected in one
    sweep) of each class of a quotient Q of X, in class order, normalised, or
    None for a class sent onto the base image.  Two images in a class fail."""
    K2 = inst.target_field
    imgs = linalg.twisted_images(K2, qcp.proj_matrix, range(K2.q), inst.images)
    out = []
    for c, members in enumerate(Q.classes):
        xs = list(bits_of(members))
        for x in xs:
            if imgs[x] != imgs[xs[0]]:
                a, b = inst.images[xs[0]], inst.images[x]
                raise NotConstantOnClasses(f"class {c} of the quotient at {xi} maps to {a} and to {b}")
        out.append(imgs[xs[0]])
    return tuple(out)


def _lp_leg(inst: MorphismInstance, xi: int) -> tuple:
    """The leg V/<v_xi> -> V'/<v_xi'>, with both quotients' coordinates, when
    X/xi fills P/xi: X/xi is then PG(n-1, q) on the coordinates of V/<v_xi>,
    and the base engine runs on the induced map X/xi -> P'/phi(xi)."""
    Q = inst.geometry.point_quotient(xi)
    if not Q.is_full_pg:
        raise NoBasePair(f"X/{xi} does not fill the ambient quotient")
    qcp = _quotient(inst.target_field, inst.images[xi])
    images = _class_images(inst, Q, xi, qcp)
    psi = reconstruct_ftpg(PartialPointMap(Q, inst.target_field, inst.target_dim - 1, images))
    return psi, Q.coords, qcp


def induced_quotient_map(inst: MorphismInstance, x0: int) -> PartialMorphism:
    """The geometry-level partial morphism X/x0 -> P'/phi(x0) on X's point
    quotient, with exceptional flat F/x0, F the fiber of phi(x0), validated
    as a partial morphism."""
    K2 = inst.target_field
    tgt = build_pg(inst.target_dim, K2.q)
    Qs = inst.geometry.point_quotient(x0)
    Qt = tgt.point_quotient(tgt.point_index(inst.images[x0]))
    # Qt's points are normalised projections modulo phi(x0), as the class images are
    images = _class_images(inst, Qs, x0, _quotient(K2, inst.images[x0]))
    e_mask = mask_of(c for c, u in enumerate(images) if u is None)
    mapping = tuple(None if u is None else Qt.point_index(u) for u in images)
    pm = PartialMorphism(Qs, Qt, Flat(Qs, Qs.closure_mask(e_mask)), mapping)
    if pm.exceptional.mask != e_mask:
        raise ExceptionalNotFlat("fiber classes do not form a flat of the quotient")
    pm.validate()
    # image of the quotient map spans at least a plane whenever the original
    # image is not inside a plane
    if inst.image_rank() >= 4 and linalg.rank(K2, [u for u in images if u is not None]) < 3:
        raise InternalContradiction("quotient image collapsed into a line")
    return pm


# -- pair normalization and gluing ----------------------------------------------------


def _pair_matrices(legs, q12, v1p, v2p):
    """For each leg (phi_i, qc_i, qc'_i), phi_i: V/<v_i> -> V'/<v_i'> with
    the coordinates of both quotients, the pair (G_i, B_i) of its global
    matrix G_i = L'_i . A_i . sigma(Q_i), a V -> V' map computing a
    representative of the quotient-level image, and its reduction
    B_i = Q'_12 . G_i . L_12 modulo the base pair, q12 = V/<v1, v2>."""
    K2 = legs[0][0].target_field
    q12p = _quotient(K2, v1p, v2p)
    out = []
    for phi, qc, qcp in legs:
        inner = linalg.mat_mul(K2, phi.matrix, phi.sigma.map_matrix(qc.proj_matrix))
        G = linalg.mat_mul(K2, qcp.lift_matrix, inner)
        out.append((G, linalg.mat_mul(K2, q12p.proj_matrix, linalg.mat_mul(K2, G, q12.lift_matrix))))
    return out


def _public_legs(phi1: SemilinearMap, phi2: SemilinearMap, v1, v2, v1p, v2p):
    """The legs of the public pair steps, with their quotient coordinates, and V/<v1, v2>."""
    K, K2 = phi1.source_field, phi1.target_field
    legs = [(phi, _quotient(K, v), _quotient(K2, vp)) for phi, v, vp in ((phi1, v1, v1p), (phi2, v2, v2p))]
    return legs, _quotient(K, v1, v2)


def _normalized_pair(legs, q12, v1p, v2p):
    """(lam, G1, G2): the legs' global matrices and the scalar with
    lam . B1 = B2, read at the first nonzero entry of B1, then verified."""
    if legs[0][0].sigma != legs[1][0].sigma:
        raise NotProportional("the two legs carry different field homomorphisms")
    K2 = legs[0][0].target_field
    (G1, B1), (G2, B2) = _pair_matrices(legs, q12, v1p, v2p)
    if all(not any(r) for r in B1) or all(not any(r) for r in B2):
        raise NotProportional("a reduction modulo the base pair vanished")
    lam = next(K2.div(b, a) for r1, r2 in zip(B1, B2) for a, b in zip(r1, r2) if a)
    if lam == 0 or linalg.mat_scale(K2, lam, B1) != B2:
        raise NotProportional("reductions are not proportional")
    return lam, G1, G2


def _require_independent(K: GF, K2: GF, v1, v2, v1p, v2p):
    if linalg.rank(K, (v1, v2)) != 2 or linalg.rank(K2, (v1p, v2p)) != 2:
        raise LiftInconsistent("base vectors must be independent on both sides")


def _lift(sigma, G1, G2, v1, v2, v1p, v2p) -> SemilinearMap:
    """The V -> V' map reducing to both legs, from global matrices with equal
    reductions, lifted column by column: the two representatives of the
    image of a basis vector differ by an element of <v1'> + <v2'>."""
    K2 = sigma.target
    solver = linalg.pair_solver(K2, v1p, v2p)
    cols = []
    for j, (w1, w2) in enumerate(zip(linalg.transpose(G1), linalg.transpose(G2))):
        c = solver(linalg.vec_sub(K2, w1, w2))
        if c is None:
            raise LiftInconsistent(f"column {j} lift leaves <v1'> + <v2'>")
        cols.append(linalg.vec_sub(K2, w1, linalg.vec_scale(K2, c[0], v1p)))
    phi = SemilinearMap(sigma, linalg.transpose(cols))
    # kernel correspondence: the base directions map into each other's spans
    if linalg.rank(K2, (phi.apply_vec(v1), v1p)) > 1 or linalg.rank(K2, (phi.apply_vec(v2), v2p)) > 1:
        raise LiftInconsistent("base directions do not map into the base image lines")
    return phi


def normalize_pair(phi1: SemilinearMap, phi2: SemilinearMap, v1, v2, v1p, v2p) -> SemilinearMap:
    """Scale phi1 so the two reductions modulo the base pair coincide: the
    public form of the two-point driver's first step."""
    lam, _, _ = _normalized_pair(*_public_legs(phi1, phi2, v1, v2, v1p, v2p), v1p, v2p)
    return phi1.scaled(lam)


def glue_fibred_product(phi1: SemilinearMap, phi2: SemilinearMap, v1, v2, v1p, v2p) -> SemilinearMap:
    """The unique V -> V' map reducing to phi_i on both single-point
    quotients: the public form of the two-point driver's lift, for legs
    whose reductions modulo the base pair already coincide."""
    if phi1.sigma != phi2.sigma:
        raise ReductionsDisagree("the two legs carry different field homomorphisms")
    _require_independent(phi1.source_field, phi1.target_field, v1, v2, v1p, v2p)
    (G1, B1), (G2, B2) = _pair_matrices(*_public_legs(phi1, phi2, v1, v2, v1p, v2p), v1p, v2p)
    if B1 != B2:
        raise ReductionsDisagree("reductions modulo the base pair differ; normalize first")
    return _lift(phi1.sigma, G1, G2, v1, v2, v1p, v2p)


# -- drivers -----------------------------------------------------------------------


def _admissible_pairs(inst, admissible):
    """Ordered pairs of admissible points with distinct images, in the
    order of the admissible tuple (increasing at every caller)."""
    for i in admissible:
        for j in admissible:
            if j != i and inst.images[i] != inst.images[j]:
                yield (i, j)


def _pick_pair(inst, admissible, pair_rank):
    for rank_seen, pair in enumerate(_admissible_pairs(inst, admissible)):
        if rank_seen == pair_rank:
            return pair
    raise NoBasePair(f"no admissible base pair at rank {pair_rank}")


def _two_point(inst: MorphismInstance, admissible, leg, pair_rank) -> ReconstructionResult:
    """Pick a base pair among the admissible points, recover the leg at each
    base point, normalize the pair to a common scalar and glue along the
    fibred product, then verify against all of X.  The global matrices are
    built once, from the quotients each leg hands over, as
    G(lam . psi1) = lam . G(psi1).  V/<v1, v2> comes from X's plan of the pair."""
    pair = _pick_pair(inst, admissible, pair_rank)
    legs = [leg(inst, x) for x in pair]
    v1, v2 = (inst.geometry.vectors[x] for x in pair)
    v1p, v2p = (inst.images[x] for x in pair)
    lam, G1, G2 = _normalized_pair(legs, inst.geometry.plan(_pair_quotient, *pair), v1p, v2p)
    _require_independent(inst.source_field, inst.target_field, v1, v2, v1p, v2p)
    phi = _lift(legs[0][0].sigma, linalg.mat_scale(inst.target_field, lam, G1), G2, v1, v2, v1p, v2p)
    _verify(phi, inst.geometry.vectors, inst.images)
    return ReconstructionResult.of(phi, inst.geometry, pair)


def reconstruct_locally_projective(inst: MorphismInstance, pair_rank=0) -> ReconstructionResult:
    """Two-point reconstruction for X embedded with X/x = P/x at the base
    points: each leg is the base engine run on the quotient map."""
    _require_enough_points(inst)
    _require_image_not_in_plane(inst)
    return _two_point(inst, full_quotient_points(inst.geometry), _lp_leg, pair_rank)


def extend_affino(inst: MorphismInstance) -> PartialPointMap:
    """Extend a morphism on an affino-projective X to a partial map on all
    of P: off X, the image is the common point of the closures of the images
    of the secant lines through the point (classify.secant_lines); points
    with empty intersection are left undefined.  The first line's images
    are eliminated forward (linalg.echelon), and each further line's images
    meet the span so far (linalg.span_meet): a membership test once it is
    one point.  The base engine then decides whether the extension is a
    partial morphism."""
    X = inst.geometry
    P, K, K2 = X.ambient, X.field, inst.target_field
    _field_clause(K, K2)
    if linalg.rank(K2, inst.images) < 3:
        raise ImageInLine("image of the affino-projective geometry lies in a line")
    if not is_affino_projective(X):
        raise NotAffinoProjective(f"{X.label()} has no completing hyperplane")
    amb_images = [None] * P.n_points
    for x, amb in enumerate(X.ambient_indices):
        amb_images[amb] = inst.images[x]
    for p, lines in secant_lines(X):
        common = None
        for line in lines:
            images = [inst.images[x] for x in line]
            common = linalg.echelon(K2, images) if common is None else linalg.span_meet(K2, images, common)
            if not common:
                break
        if not common:
            continue  # exceptional candidate
        if len(common) > 1:
            raise InconsistentExtension(f"ambient point {p} has a multi-dimensional image trace")
        amb_images[p] = linalg.normalize_vec(K2, common[0])
    return PartialPointMap(P, K2, inst.target_dim, tuple(amb_images))


def reconstruct_affino_projective(inst: MorphismInstance) -> ReconstructionResult:
    """Reconstruction for a total morphism on an affino-projective geometry:
    extend through the hyperplane, then run the base engine."""
    phi = reconstruct_ftpg(extend_affino(inst))
    # the base engine verified phi on all of P, X included; extend_affino
    # rejects an image inside a line, so the pair is (0, j) for the first j
    # whose image differs from that of 0
    return ReconstructionResult.of(phi, inst.geometry, _pick_pair(inst, range(inst.geometry.n_points), 0))


def _affino_leg(inst: MorphismInstance, xi: int) -> tuple:
    """The leg V/<v_xi> -> V'/<v_xi'>, with both quotients' coordinates,
    factoring through the fiber F of the base image: X/F (X/xi when F = {xi})
    is affino-projective, so the induced map on it extends over P/span(F) and
    is reconstructed, then precomposed with V/<v_xi> -> V/span(F)."""
    X, K2 = inst.geometry, inst.target_field
    fiber = mask_of(x for x in range(X.n_points) if inst.images[x] == inst.images[xi])
    if X.ncoords - 1 - X.flat_dim(fiber) < 3:
        raise NoBasePair("fiber quotient too small to carry the reconstruction")
    Q = X.point_quotient(xi) if fiber == 1 << xi else X.plan(quotient_geometry, fiber)
    qcp = _quotient(K2, inst.images[xi])
    images = _class_images(inst, Q, xi, qcp)
    if None in images:
        raise NotConstantOnClasses(f"a point outside the fiber of {xi} maps onto its image")
    inner = MorphismInstance(Q, K2, inst.target_dim - 1, images, "affino-projective")
    psiF = reconstruct_ftpg(extend_affino(inner))

    # precompose with the projection V/<v_xi> -> V/span(F), in X/xi's
    # coordinates: the identity when F = {xi}, X's plan of (xi, F) otherwise
    qc = X.point_quotient(xi).coords
    if fiber == 1 << xi:
        return psiF, qc, qcp
    C = X.plan(_fiber_projection, xi, fiber)
    return SemilinearMap(psiF.sigma, linalg.mat_mul(K2, psiF.matrix, psiF.sigma.map_matrix(C))), qc, qcp


def _fiber_projection(X: CoordGeometry, xi: int, fiber: int):
    """V/<v_xi> -> V/span(F) in X/xi's coordinates, F a flat through xi,
    read off X's planned quotient X/F."""
    return linalg.mat_mul(X.field, X.plan(quotient_geometry, fiber).coords.proj_matrix,
                          X.point_quotient(xi).coords.lift_matrix)


def reconstruct_locally_affino(inst: MorphismInstance, pair_rank=0) -> ReconstructionResult:
    """Two-point reconstruction where the quotients at the base points are
    affino-projective: each leg factors through the fiber of the base image,
    is extended over the completing hyperplane, and reconstructed; the legs
    are then normalized and glued exactly as in the locally projective case."""
    _field_clause(inst.source_field, inst.target_field)
    _require_enough_points(inst)
    _require_image_not_in_plane(inst)
    return _two_point(inst, affino_admissible_points(inst.geometry), _affino_leg, pair_rank)


# -- certification -----------------------------------------------------------------


def certify_side_conditions(result: ReconstructionResult, inst: MorphismInstance) -> dict:
    """Globally-defined and embedding certificates for a finished
    reconstruction: injective input forces trivial kernel (for the
    affino family only once no ambient point is tangent to all of X), and an
    embedding input forces the induced map on P to embed."""
    X = inst.geometry
    P, K2 = X.ambient, inst.target_field
    report = {"injective": len(set(inst.images)) == len(inst.images)}

    if inst.declared_kind in ("affino-projective", "locally-affino-projective"):
        # p off X is tangent to all of X when each line px is a tangent line
        # at x, that is when p lies on every union of tangent lines
        outside = P.full_mask & ~X.ambient_mask
        tangent_points = functools.reduce(operator.and_, tangent_unions(X), outside)
        report["tangent_point_hypothesis"] = tangent_points == 0
        if tangent_points:
            report["tangent_point"] = (tangent_points & -tangent_points).bit_length() - 1
    else:
        report["tangent_point_hypothesis"] = True

    if report["injective"] and report["tangent_point_hypothesis"]:
        report["kernel_zero"] = result.exceptional.rank == 0
    elif report["injective"]:
        report["kernel_zero"] = "not applicable"

    embedding = report["injective"] and _inverse_is_morphism(K2, inst.images, X)
    report["embedding_input"] = embedding

    if embedding:
        ext_ok = result.exceptional.rank == 0
        if ext_ok:
            phi = result.phi
            ext_images = linalg.twisted_images(K2, phi.matrix, phi.sigma.table, P.vectors)
            ext_ok = None not in ext_images and len(set(ext_images)) == len(ext_images)
            ext_ok = ext_ok and _inverse_is_morphism(K2, ext_images, P)
        report["extension_embedding"] = bool(ext_ok)
    return report


def _inverse_is_morphism(K2, images, source) -> bool:
    """For distinct coordinate images over K2 of the points of source: the
    inverse map, from the geometry on the images back onto source, pulls
    flats back to flats.  The images are read at the pivots of their
    span's RREF, an isomorphism onto K2^rank that keeps every closure, so
    the image geometry has rank coordinates, not the target's."""
    _, pivots = linalg.rref(K2, images)
    im_geo = CoordGeometry(K2, [tuple(v[p] for p in pivots) for v in images])
    return flat_preimage_condition(GeometryMorphism(im_geo, source, tuple(range(len(images)))))


# -- exhaustive oracle -------------------------------------------------------------


def brute_force_oracle(inst: MorphismInstance, cap=1 << 24) -> tuple:
    """All semilinear maps (canonical forms, one per scalar class) whose
    induced map agrees with the instance on X and whose kernel misses X,
    for every field homomorphism.  The cap counts every candidate matrix.

    A depth-first search picks row j of the matrix after rows 0..j-1.  At
    each point x_t with image y_t led by coordinate l_t, row j must give 0
    when j < l_t or y_t[j] = 0, nonzero when j = l_t (that value is the
    point's scalar lam_t) and lam_t * y_t[j] otherwise.  Rows are tried in
    increasing order, so the matches come in the order of an enumeration
    of every matrix."""
    X = inst.geometry
    K, K2 = X.field, inst.target_field
    n1, m1 = X.ncoords, inst.target_dim + 1
    homs = list_homomorphisms(K, K2)
    total = (K2.q ** (n1 * m1)) * max(len(homs), 1)
    if total > cap:
        raise CapExceeded(f"{total} candidate maps exceed the cap {cap}")
    found = {}
    expected = inst.images
    leads = [next(i for i, c in enumerate(y) if c) for y in expected]
    rows_list = list(linalg.all_vectors(K2, n1))
    mul = K2._mul
    rows = range(len(rows_list))
    for sigma in homs:
        # At[r]: coordinate j of the image of x_t when row j is rows_list[r]
        tables = [[linalg.dot(K2, row, tv) for row in rows_list] for tv in map(sigma.map_vec, X.vectors)]
        per_point = list(zip(tables, expected, leads))
        # the tests that need no scalar sift each row of the matrix once
        allowed, scaled = [], []
        for j in range(m1):
            zero = [At for At, y, l in per_point if j < l or (j > l and not y[j])]
            nonzero = [At for At, y, l in per_point if j == l]
            allowed.append([r for r in rows if not any(At[r] for At in zero) and all(At[r] for At in nonzero)])
            scaled.append([(At, l, y[j]) for At, y, l in per_point if j > l and y[j]])

        def extend(mat):
            if len(mat) == m1:
                phi = SemilinearMap(sigma, tuple(rows_list[r] for r in mat)).canonical()
                found[(sigma.table, phi.matrix)] = phi
                return
            want = [(At, mul[At[mat[lead]]][yj]) for At, lead, yj in scaled[len(mat)]]
            for r in allowed[len(mat)]:
                if all(At[r] == w for At, w in want):
                    extend(mat + (r,))

        extend(())
    return tuple(found.values())

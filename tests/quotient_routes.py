"""Second routes kept as test references.

The local predicates: the library reads X/x off the flats of X through x.
Each ref_quotient_* function builds the quotient geometry instead and asks
the same question there, so that the tests can compare the two routes.

The dimension formula: the library decides each point of a coordinate
geometry from its planes and hyperplanes and sweeps flat pairs only at failing
points, skipping pairs that cannot violate the formula.
ref_dim_formula_violations and ref_local_dim_formula_at sweep every pair
at every point instead.

The reconstruction legs: the library runs them on X's point quotient (or
its quotient by a fiber).  ref_lp_leg and ref_affino_leg project every
point of X by hand into a freshly built PG(V/W) instead.
"""

from fingeo import linalg
from fingeo.classify import Verdict, ambient_view
from fingeo.errors import InternalContradiction, NoBasePair, NotConstantOnClasses
from fingeo.geometry import bits_of, subgeometry
from fingeo.projective import (
    LinearSubspace,
    SemilinearMap,
    build_pg,
    check_projective_axioms,
    quotient_coords,
)
from fingeo.reconstruct import MorphismInstance, PartialPointMap, extend_affino, reconstruct_ftpg


def ref_quotient_projective(X, x):
    """X/x is a projective space: the projective axiom suite on the
    quotient geometry."""
    Q = X.point_quotient(x)
    return Q.n_points == 0 or check_projective_axioms(Q).is_projective


def ref_dim_formula_violations(G, flats):
    """Every pair of the given flats, m1 listed no later than m2, that
    violates the dimension formula, as (m1, m2, lhs, rhs) in list order."""
    dims = [G.flat_dim(m) for m in flats]
    for i, m1 in enumerate(flats):
        for j in range(i, len(flats)):
            m2 = flats[j]
            rhs = G.join_dim(m1, m2) + G.flat_dim(m1 & m2)
            if dims[i] + dims[j] != rhs:
                yield m1, m2, dims[i] + dims[j], rhs


def ref_local_dim_formula_at(X, x):
    """The first violating pair of all flats through x, or None."""
    through = [m for m in X.flats() if m >> x & 1]
    for m1, m2, _, _ in ref_dim_formula_violations(X, through):
        return {"s1": sorted(bits_of(m1)), "s2": sorted(bits_of(m2))}
    return None


def ref_locally_projective(X):
    """The is_locally_projective verdict from the sweep at every point."""
    witnesses = []
    for x in range(X.n_points):
        w = ref_local_dim_formula_at(X, x)
        if w is not None:
            witnesses.append({"point": x, "dim_formula_witness": w})
    return Verdict("locally_projective", not witnesses, witnesses)


def ref_quotient_line_form(X):
    """Every line of every X/x has at least three points."""
    return all(
        line.bit_count() >= 3 for x in range(X.n_points) for line in X.point_quotient(x).lines()
    )


def ref_quotient_affino(view, local_x):
    """X/x affino-projective inside P/x: some hyperplane class-set of P/x
    covers the classes without an X representative."""
    P, amb_x = view.P, view.idx[local_x]
    Q = P.point_quotient(amb_x)
    missing = [c for c, cmask in enumerate(Q.classes) if not cmask & view.xmask]
    if not missing:
        return True
    for hm in P.hyperplanes():
        if not hm >> amb_x & 1:
            continue
        hclasses = {Q.class_of_parent_point(y) for y in bits_of(hm & ~(1 << amb_x))}
        if all(c in hclasses for c in missing):
            return True
    return False


def ref_lp_leg(inst, xi):
    """The locally projective leg by hand: project X into PG(V/<v_xi>),
    read each class image in V'/<v_xi'>, and run the base engine."""
    view = ambient_view(inst.geometry)
    P, idx = view.P, view.idx
    K, K2 = P.field, inst.target_field
    qc = quotient_coords(LinearSubspace.from_vectors(K, P.ncoords, [P.vectors[idx[xi]]]))
    qcp = quotient_coords(LinearSubspace.from_vectors(K2, inst.target_dim + 1, [inst.images[xi]]))
    src_q = build_pg(qc.dim_q - 1, K.q)
    images = [None] * src_q.n_points
    touched = [False] * src_q.n_points
    for x, amb in enumerate(idx):
        u = linalg.normalize_vec(K, qc.project(P.vectors[amb]))
        if u is None:
            continue  # x is the base point itself
        t = src_q.point_index(u)
        img = linalg.normalize_vec(K2, qcp.project(inst.images[x]))
        if touched[t]:
            if images[t] != img:
                raise NotConstantOnClasses(f"class {t} of X/{xi} maps to {images[t]} and to {img}")
        else:
            touched[t] = True
            images[t] = img
    if not all(touched):
        raise NoBasePair(f"X/{xi} does not fill the ambient quotient")
    return reconstruct_ftpg(PartialPointMap(src_q, K2, qcp.dim_q - 1, tuple(images)))


def ref_affino_leg(inst, xi):
    """The locally affino-projective leg by hand: project X into
    PG(V/span(F)) for the fiber F of the base image, take the subgeometry of
    the projections, extend, reconstruct and precompose."""
    X, view = inst.geometry, ambient_view(inst.geometry)
    P, idx = view.P, view.idx
    K, K2 = P.field, inst.target_field
    n1, m1 = P.ncoords, inst.target_dim + 1
    v_i = P.vectors[idx[xi]]
    v_i_img = inst.images[xi]

    fiber = [x for x in range(X.n_points) if inst.images[x] == v_i_img]
    W = LinearSubspace.from_vectors(K, n1, [P.vectors[idx[x]] for x in fiber])
    qcF = quotient_coords(W)
    if qcF.dim_q < 3:
        raise NoBasePair("fiber quotient too small to carry the reconstruction")
    src_q = build_pg(qcF.dim_q - 1, K.q)
    qcp = quotient_coords(LinearSubspace.from_vectors(K2, m1, [v_i_img]))

    fiber_set = set(fiber)
    images = {}
    for x, amb in enumerate(idx):
        if x in fiber_set:
            continue
        u = linalg.normalize_vec(K, qcF.project(P.vectors[amb]))
        if u is None:
            raise InternalContradiction("a point outside the fiber projects to zero")
        t = src_q.point_index(u)
        img = linalg.normalize_vec(K2, qcp.project(inst.images[x]))
        if img is None:
            raise InternalContradiction("a point outside the fiber maps onto the base image")
        prev = images.setdefault(t, img)
        if prev != img:
            raise NotConstantOnClasses(f"class {t} of X/F maps to {prev} and to {img}")

    sub_points = sorted(images)
    Y = subgeometry(src_q, sub_points)
    inner = MorphismInstance(
        Y,
        K2,
        qcp.dim_q - 1,
        tuple(images[t] for t in sub_points),
        "affino-projective",
    )
    psiF = reconstruct_ftpg(extend_affino(inner))

    # precompose with the projection V/<v_i> -> V/span(F)
    qc1 = quotient_coords(LinearSubspace.from_vectors(K, n1, [v_i]))
    C = linalg.mat_mul(K, qcF.proj_matrix, qc1.lift_matrix)
    A = linalg.mat_mul(K2, psiF.matrix, psiF.sigma.map_matrix(C))
    return SemilinearMap(psiF.sigma, A)

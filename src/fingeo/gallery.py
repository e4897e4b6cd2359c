"""Deterministic constructors for the shared test gallery: complements of
flat unions, two-hyperplane geometries, subfield complements, and the three
quadric families (elliptic ovoid, hyperbolic ruled, cone minus vertex).

Every constructor is a pure function of its parameters, and each one checks
the classification property it is built to exhibit, raising
InternalContradiction when it fails (the checks hold under python -O too).
The checks import classify only when they run, so building a projective
space or a quadric never loads it.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import EqualHyperplanes, InternalContradiction, InvalidArgument, NoEmbedding, NoIrreducibleForm, SizeLimit
from .geometry import CoordGeometry, bits_of, subgeometry
from .gf import GF, gf, list_homomorphisms
from .projective import LinearSubspace, build_pg


def make_complement(P: CoordGeometry, flats) -> CoordGeometry:
    """The subgeometry on P minus a union of subspaces.  When fewer flats
    than |K| are removed, the ambient line condition is checked."""
    flats = list(flats)
    removed = 0
    for W in flats:
        removed |= P.trace_mask(W.rows, W.pivots)
    keep = sorted(bits_of(P.full_mask & ~removed))
    X = subgeometry(P, keep)
    X._name = f"complement({P.label()}, {len(flats)} flats)"
    if len(flats) < P.field.q:
        from .classify import check_line_condition

        if not check_line_condition(X):
            raise InternalContradiction("removed fewer flats than |K| yet a tangent line exists")
    return X


def make_affine(n: int, K: GF) -> CoordGeometry:
    """AG(n, q): the complement of the first coordinate hyperplane."""
    P = build_pg(n, K.q)
    H = LinearSubspace.from_vectors(K, n + 1, [linalg.unit_vec(n + 1, j) for j in range(1, n + 1)])
    X = make_complement(P, [H])
    X._name = f"ag({n},{K.q})"
    return X


def make_two_hyperplanes(P: CoordGeometry, H1: LinearSubspace, H2: LinearSubspace) -> CoordGeometry:
    """(H1 u H2) - (H1 n H2); locally projective, which is checked."""
    from .classify import is_locally_projective

    if H1.rows == H2.rows:
        raise EqualHyperplanes("the two hyperplanes coincide")
    keep = P.trace_mask(H1.rows, H1.pivots) ^ P.trace_mask(H2.rows, H2.pivots)
    X = subgeometry(P, bits_of(keep))
    X._name = f"two-hyperplanes({P.label()})"
    if not is_locally_projective(X):
        raise InternalContradiction("two-hyperplane geometry must be locally projective")
    return X


def coordinate_hyperplanes(P: CoordGeometry) -> tuple:
    """The n+1 coordinate hyperplanes x_i = 0 of PG(n, q)."""
    n1 = P.ncoords
    out = []
    for i in range(n1):
        vecs = [linalg.unit_vec(n1, j) for j in range(n1) if j != i]
        out.append(LinearSubspace.from_vectors(P.field, n1, vecs))
    return tuple(out)


def make_hyperplane_union(P: CoordGeometry) -> CoordGeometry:
    """Union of all coordinate hyperplanes (their common meet is empty)."""
    keep = [i for i, v in enumerate(P.vectors) if any(c == 0 for c in v)]
    X = subgeometry(P, keep)
    X._name = f"coordinate-hyperplanes({P.label()})"
    return X


def make_subfield_complement(n: int, K: GF, L: GF) -> CoordGeometry:
    """PG(n, L) minus the canonical image of PG(n, K)."""
    from .classify import check_line_condition

    if K.q == L.q:
        raise NoEmbedding("fields coincide; the complement would be empty")
    homs = list_homomorphisms(K, L)
    if not homs:
        raise NoEmbedding(f"no embedding {K.name} -> {L.name}")
    embed = homs[0]
    P = build_pg(n, L.q)
    small = build_pg(n, K.q)
    image = set()
    for v in small.vectors:
        w = linalg.normalize_vec(L, embed.map_vec(v))
        image.add(w)
    keep = [i for i, v in enumerate(P.vectors) if v not in image]
    X = subgeometry(P, keep)
    X._name = f"subfield-complement({L.name} minus {K.name}, dim {n})"
    if not check_line_condition(X):
        raise InternalContradiction("subfield complement must satisfy the line condition")
    return X


# -- quadrics -------------------------------------------------------------------


def _anisotropic_binary_form(K: GF):
    """Canonically smallest (a, b, c) with a x^2 + b xy + c y^2 only trivially
    zero over K; starts from the fixed form x^2 + y^2."""
    candidates = itertools.chain([(1, 0, 1)], itertools.product(K.elements, repeat=3))
    for a, b, c in candidates:
        if a == 0 or c == 0:
            continue
        ok = True
        for x, y in itertools.product(K.elements, repeat=2):
            if (x, y) == (0, 0):
                continue
            val = K.add(
                K.add(K.mul(a, K.mul(x, x)), K.mul(b, K.mul(x, y))), K.mul(c, K.mul(y, y))
            )
            if val == 0:
                ok = False
                break
        if ok:
            return a, b, c
    raise NoIrreducibleForm(f"no anisotropic binary quadratic over {K.name}")


def make_quadric(P: CoordGeometry, form: str) -> CoordGeometry:
    """Point set of a canonical quadric of PG(3, q).

    elliptic    x0 x1 + f(x2, x3) with f the canonical anisotropic form,
                q^2 + 1 points (an ovoid);
    hyperbolic  x0 x3 - x1 x2, (q+1)^2 points (ruled);
    cone        x0 x1 - x2^2 joined from the vertex (0,0,0,1), vertex
                removed, q(q+1) points.
    """
    if P.ncoords != 4 or not P.is_full_pg:
        raise SizeLimit("quadric constructors require an ambient PG(3, q)")
    K = P.field
    q = K.q

    if form == "elliptic":
        a, b, c = _anisotropic_binary_form(K)

        def val(v):
            x0, x1, x2, x3 = v
            f = K.add(
                K.add(K.mul(a, K.mul(x2, x2)), K.mul(b, K.mul(x2, x3))),
                K.mul(c, K.mul(x3, x3)),
            )
            return K.add(K.mul(x0, x1), f)

        expected = q * q + 1
    elif form == "hyperbolic":

        def val(v):
            x0, x1, x2, x3 = v
            return K.sub(K.mul(x0, x3), K.mul(x1, x2))

        expected = (q + 1) ** 2
    elif form == "cone":

        def val(v):
            x0, x1, x2, _ = v
            return K.sub(K.mul(x0, x1), K.mul(x2, x2))

        expected = q * (q + 1)
    else:
        raise InvalidArgument(f"unknown quadric form {form!r}")

    keep = [i for i, v in enumerate(P.vectors) if val(v) == 0]
    if form == "cone":
        vertex = P.point_index((0, 0, 0, 1))
        keep = [i for i in keep if i != vertex]
    if len(keep) != expected:
        raise SizeLimit(f"{form} quadric over {K.name}: {len(keep)} points, expected {expected}")
    X = subgeometry(P, keep)
    X._name = f"{form}-quadric({P.label()})"
    return X


# -- registry for the CLI ---------------------------------------------------------


def build_example(name: str, K: GF, dim=None) -> CoordGeometry:
    """Construct a gallery geometry by name."""
    if name == "affine":
        return make_affine(dim if dim is not None else 3, K)
    if name == "projective":
        return build_pg(dim if dim is not None else 3, K.q)
    if name in ("elliptic-quadric", "hyperbolic-quadric", "cone"):
        P = build_pg(dim if dim is not None else 3, K.q)
        return make_quadric(P, name.split("-")[0])
    if name == "two-hyperplanes":
        P = build_pg(dim if dim is not None else 3, K.q)
        hs = coordinate_hyperplanes(P)
        return make_two_hyperplanes(P, hs[0], hs[1])
    if name == "coordinate-hyperplanes":
        P = build_pg(dim if dim is not None else 3, K.q)
        return make_hyperplane_union(P)
    if name == "two-plane-complement":
        P = build_pg(dim if dim is not None else 3, K.q)
        hs = coordinate_hyperplanes(P)
        return make_complement(P, [hs[0], hs[1]])
    if name == "subfield-complement":
        homs = [L for L in (2, 3, 4) if L != K.q and list_homomorphisms(gf(L), K)]
        if not homs:
            raise NoEmbedding(f"no proper subfield of {K.name} at desk scale")
        return make_subfield_complement(dim if dim is not None else 3, gf(homs[0]), K)
    raise InvalidArgument(f"unknown example {name!r}")


EXAMPLE_NAMES = (
    "affine",
    "projective",
    "elliptic-quadric",
    "hyperbolic-quadric",
    "cone",
    "two-hyperplanes",
    "coordinate-hyperplanes",
    "two-plane-complement",
    "subfield-complement",
)

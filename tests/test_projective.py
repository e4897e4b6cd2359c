"""Projective spaces, semilinear maps, induced partial morphisms, quotient
coordinates, proportionality."""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from fingeo import linalg
from fingeo.errors import InvalidArgument, InvalidArgumentType, NotProjective, SizeLimit, ZeroMap
from fingeo.gallery import build_example
from fingeo.geometry import Flat, TableGeometry, bits_of, mask_of, quotient, subgeometry
from fingeo.gf import gf, hom_from_power, identity_hom, list_homomorphisms
from fingeo.projective import (
    LinearSubspace,
    ProjPoint,
    SemilinearMap,
    apply_semilinear,
    build_pg,
    check_projective_axioms,
    decompose_irreducible,
    induced_partial,
    proportional,
    quotient_coords,
)
from quotient_routes import identity_matrix

PG_SIZES = [(1, 2, 3), (2, 2, 7), (2, 3, 13), (3, 2, 15), (3, 3, 40), (3, 4, 85), (4, 2, 31)]


@pytest.mark.parametrize("n,q,count", PG_SIZES)
def test_pg_point_counts(n, q, count):
    P = build_pg(n, q)
    assert P.n_points == count == (q ** (n + 1) - 1) // (q - 1)


def test_pg_point_counts_all_supported():
    from fingeo.projective import PG_MAX_POINTS

    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in range(1, 6):
            expected = (q ** (n + 1) - 1) // (q - 1)
            if expected > PG_MAX_POINTS:
                with pytest.raises(SizeLimit):
                    build_pg(n, q)
                continue
            assert build_pg(n, q).n_points == expected


def test_pg32_line_and_plane_counts_vs_xor_oracle(pg32):
    # independent oracle: lines of PG(3,2) are the XOR-closed triples of
    # nonzero 4-bit integers; planes the XOR-closed 7-sets
    ints = [c[0] * 8 + c[1] * 4 + c[2] * 2 + c[3] for c in pg32.vectors]
    lines = {frozenset((a, b, a ^ b)) for a, b in itertools.combinations(ints, 2)}
    assert len(lines) == 35 == len(pg32.lines())
    planes = set()
    for a, b, c in itertools.combinations(ints, 3):
        if c != a ^ b:
            planes.add(frozenset((a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c)))
    assert len(planes) == 15 == len(pg32.planes())


def test_pg23_line_sizes(pg23):
    assert pg23.n_points == 13
    assert all(line.bit_count() == 4 for line in pg23.lines())


def test_pg_size_limit():
    with pytest.raises(SizeLimit):
        build_pg(0, 2)
    with pytest.raises(SizeLimit):
        build_pg(5, 16)


def test_pg_arguments_are_checked():
    """Non-int arguments are typed failures, also once PG(3,4) and PG(3,2)
    are interned; an order that is no prime power is InvalidArgument."""
    assert build_pg(3, 4) is build_pg(3, 4) and build_pg(3, 2).n_points == 15
    for n, q in ((3, 4.0), (3.0, 2), (3, "4"), ("3", 2)):
        with pytest.raises(InvalidArgumentType):
            build_pg(n, q)
    with pytest.raises(InvalidArgument):
        build_pg(3, 6)


def test_unhashable_pg_arguments_are_typed_failures():
    """The check runs in front of the cache, which could not hash a list."""
    for n, q, what in ((3, [2], "field order"), ([3], 2, "projective dimension"), (3, {2}, "field order")):
        with pytest.raises(InvalidArgumentType, match=what):
            build_pg(n, q)


def test_pg_cache_is_cleared_through_wrappers():
    """perfbench's cache_clear walks __wrapped__ to the cache: it empties
    build_pg's cache directly and through a tracing wrapper.  Run in a
    fresh process, so that this session's interned spaces stay."""
    script = """
import functools, sys
sys.path.insert(0, sys.argv[1])
from common import cache_clear
from fingeo.projective import build_pg

P = build_pg(2, 3)
assert build_pg(2, 3) is P and build_pg.__wrapped__(2, 3) is not P
cache_clear(build_pg)
Q = build_pg(2, 3)
assert Q is not P
traced = functools.wraps(build_pg)(lambda *args: build_pg(*args))
cache_clear(traced)
assert build_pg(2, 3) is not Q
"""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, str(root / "perfbench")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_proj_point_normalization():
    K = gf(5)
    p = ProjPoint.make(K, (0, 2, 4))
    assert p.coords == (0, 1, 2)
    with pytest.raises(ValueError):
        ProjPoint.make(K, (0, 0, 0))


# -- projective axioms ------------------------------------------------------------


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_projective_axioms_pass(n, q):
    rep = check_projective_axioms(build_pg(n, q))
    assert rep.is_projective and rep.irreducible


def test_ag23_dimension_formula_fails():
    P = build_pg(2, 3)
    line = P.lines()[0]
    A = subgeometry(P, sorted(bits_of(P.full_mask & ~line)))
    rep = check_projective_axioms(A)
    assert rep.p1 and rep.p2
    assert not rep.dim_formula
    assert rep.note == "not projective, locally projective candidate"
    w = rep.witnesses["dim_formula"]
    assert not set(w["s1"]) & set(w["s2"])  # the violating pair is disjoint


def test_ag33_dimension_formula_note(ag33):
    rep = check_projective_axioms(ag33)
    assert rep.p1 and rep.p2
    assert not rep.dim_formula
    assert rep.note == "not projective, locally projective candidate"


def two_component_geometry():
    """Disjoint union of two 3-point lines, joined by 2-point cross lines."""
    flats = [0]
    for i in range(6):
        flats.append(1 << i)
    flats.append(0b000111)
    flats.append(0b111000)
    for i in range(3):
        for j in range(3, 6):
            flats.append((1 << i) | (1 << j))
    flats.append(0b111111)
    return TableGeometry(6, flats)


def test_reducible_projective_space():
    G = two_component_geometry()
    rep = check_projective_axioms(G)
    assert rep.p1 and rep.p2 and rep.p3
    assert not rep.irreducible


def test_decompose_irreducible_components():
    G = two_component_geometry()
    parts = decompose_irreducible(G)
    assert sorted(map(sorted, parts)) == [[0, 1, 2], [3, 4, 5]]


def test_decompose_irreducible_pg(pg32):
    assert decompose_irreducible(pg32) == (tuple(range(15)),)
    # beyond the flat-pair limit of check_projective_axioms
    for n, q in ((4, 3), (5, 2)):
        P = build_pg(n, q)
        assert decompose_irreducible(P) == (tuple(range(P.n_points)),)


def test_decompose_single_point():
    G = TableGeometry(1, [0, 1])
    assert decompose_irreducible(G) == ((0,),)


def test_decompose_requires_projective(ag33):
    with pytest.raises(NotProjective):
        # an affine plane fails the triangle axiom
        P = build_pg(2, 3)
        line = P.lines()[0]
        A = subgeometry(P, sorted(bits_of(P.full_mask & ~line)))
        decompose_irreducible(A)


def cone_quotient():
    """The point quotient of cone(3,2) at 0, five points in a plane."""
    return build_example("cone", gf(2)).point_quotient(0)


def test_cone_quotient_fails_veblen_young_off_the_middle_vertex():
    """The line {2, 4} meets both sides through 0 of the triangle 0, 1, 3
    and misses the side {1, 3}; at the middle vertex 1 nothing fails."""
    rep = check_projective_axioms(cone_quotient())
    assert rep.p1 and rep.p2 and not rep.p3
    assert rep.witnesses["p3"] == {"triangle": [1, 0, 3], "line": [2, 4]}


def random42_1():
    """Seeded random subgeometry 1 of PG(4,2), as test_local_routes builds
    it: P3 fails at the vertex 4 of the triangle 0, 1, 4."""
    P = build_pg(4, 2)
    rng = random.Random(1)
    return subgeometry(P, rng.sample(range(P.n_points), rng.randrange(4, 17)))


@pytest.mark.parametrize("build", [cone_quotient, random42_1])
def test_decompose_refuses_veblen_young_failures_off_the_middle_vertex(build):
    G = build()
    assert check_projective_axioms(G).p1 and check_projective_axioms(G).p2
    with pytest.raises(NotProjective):
        decompose_irreducible(G)


# -- semilinear maps ---------------------------------------------------------------


def test_apply_semilinear_identity():
    K = gf(3)
    phi = SemilinearMap(identity_hom(K), identity_matrix(4))
    P = build_pg(3, 3)
    for v in P.vectors[:10]:
        assert apply_semilinear(phi, v).coords == v


def test_apply_semilinear_frobenius_point():
    K = gf(4)
    phi = SemilinearMap(hom_from_power(K, K, 1), identity_matrix(4))
    img = apply_semilinear(phi, (1, 2, 0, 0))
    assert img.coords == (1, 3, 0, 0)  # x squares to x + 1


def test_apply_semilinear_kernel_gives_none():
    K = gf(2)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    phi = SemilinearMap(identity_hom(K), M)
    assert apply_semilinear(phi, (0, 0, 0, 1)) is None
    assert apply_semilinear(phi, (1, 0, 0, 1)).coords == (1, 0, 0, 0)


def test_kernel_same_field():
    K = gf(3)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    ker = SemilinearMap(identity_hom(K), M).kernel()
    assert ker.rows == ((0, 0, 0, 1),)


def test_kernel_cross_field_rational_and_irrational():
    K, L = gf(2), gf(4)
    h = list_homomorphisms(K, L)[0]
    # kernel direction (0,0,0,1) is rational
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    assert SemilinearMap(h, M).kernel().rows == ((0, 0, 0, 1),)
    # kernel direction (1, w, 0, 0) has no GF(2)-rational point
    M2 = ((2, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    assert SemilinearMap(h, M2).kernel().rank == 0


def test_induced_partial_invertible_collineation(pg32):
    K = gf(2)
    M = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    pm = induced_partial(SemilinearMap(identity_hom(K), M))
    assert pm.exceptional.mask == 0
    assert sorted(pm.map) == list(range(15))


def test_induced_partial_projection_kernel_point():
    K = gf(3)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    pm = induced_partial(SemilinearMap(identity_hom(K), M))
    src = pm.source
    assert pm.exceptional.mask.bit_count() == 1
    assert src.vectors[next(bits_of(pm.exceptional.mask))] == (0, 0, 0, 1)
    pm.validate()


def test_induced_partial_zero_map_raises():
    K = gf(2)
    with pytest.raises(ZeroMap):
        induced_partial(SemilinearMap(identity_hom(K), ((0,) * 4,) * 4))


def test_quotient_linear_map_matches_geometry_quotient(pg32):
    # the map dropping the last coordinate induces the quotient by its kernel
    K = gf(2)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    phi = SemilinearMap(identity_hom(K), M)
    Q, pi, tgt = quotient_as_pg(pg32, phi.kernel())
    pm = induced_partial(phi)
    for i in range(15):
        if pi(i) is None:
            assert pm(i) is None
        else:
            assert pm(i) == tgt.point_index(Q.vectors[pi(i)])


def test_composition_of_induced_maps():
    K = gf(3)
    rng = random.Random(2)
    for _ in range(10):
        A = tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4))
        B = tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4))
        pa = SemilinearMap(identity_hom(K), A)
        pb = SemilinearMap(identity_hom(K), B)
        comp = pb.compose(pa)
        for v in build_pg(3, 3).vectors:
            step = pa.apply_vec(v)
            two = linalg.normalize_vec(K, pb.apply_vec(step)) if any(step) else None
            direct = linalg.normalize_vec(K, comp.apply_vec(v))
            if two is None or direct is None:
                # composite kernel point: direct map must vanish wherever the
                # two-step computation does
                assert (not any(step)) or linalg.normalize_vec(K, pb.apply_vec(step)) == direct
            else:
                assert two == direct


def test_composition_with_sigma():
    K = gf(4)
    frob = hom_from_power(K, K, 1)
    rng = random.Random(3)
    A = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
    pa = SemilinearMap(frob, A)
    comp = pa.compose(pa)
    assert comp.sigma.is_identity  # frobenius squared on gf(4)
    for v in build_pg(3, 4).vectors[:20]:
        assert comp.apply_vec(v) == pa.apply_vec(pa.apply_vec(v))


# -- quotient coordinates ------------------------------------------------------------


def quotient_as_pg(P, W):
    """The quotient PG(V)/P(W) with its projection, and PG(V/W) built
    directly: the quotient is a full space on the same points, and looking
    its points up in PG(V/W) carries its flats onto that space's flats."""
    E = Flat(P, mask_of(i for i, v in enumerate(P.vectors) if W.contains(v)))
    Q, pi = quotient(P, E)
    tgt = build_pg(P.ncoords - W.rank - 1, P.field.q)
    assert Q.is_full_pg
    assert sorted(Q.vectors) == sorted(tgt.vectors)
    to_tgt = [tgt.point_index(v) for v in Q.vectors]
    assert {mask_of(to_tgt[c] for c in bits_of(m)) for m in Q.flats()} == set(tgt.flats())
    return Q, pi, tgt


def test_quotient_iso_trivial(pg32):
    Q, pi, tgt = quotient_as_pg(pg32, LinearSubspace.zero(gf(2), 4))
    assert tgt is pg32
    assert Q.vectors == pg32.vectors
    assert [pi(i) for i in range(15)] == list(range(15))


def test_quotient_iso_point(pg32):
    W = LinearSubspace.from_vectors(gf(2), 4, [(0, 0, 0, 1)])
    Q, _, tgt = quotient_as_pg(pg32, W)
    assert Q.n_points == tgt.n_points == 7


def test_quotient_iso_two_dim(pg33):
    W = LinearSubspace.from_vectors(gf(3), 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    Q, _, tgt = quotient_as_pg(pg33, W)
    assert Q.n_points == tgt.n_points == 4


def test_quotient_coords_projection_identities():
    K = gf(3)
    rng = random.Random(8)
    for _ in range(20):
        vecs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randrange(1, 3))]
        rows, _ = linalg.rref(K, vecs)
        if not rows:
            continue
        W = LinearSubspace(K, 4, rows)
        qc = quotient_coords(W)
        # project . lift = identity
        n_q = qc.dim_q
        for j in range(n_q):
            unit = linalg.unit_vec(n_q, j)
            assert qc.project(qc.lift(unit)) == unit
        # projection kills exactly W
        for v in linalg.all_vectors(K, 4):
            killed = not any(qc.project(v))
            assert killed == W.contains(v)


# -- proportionality -----------------------------------------------------------------


def test_proportional_identity_case():
    K = gf(5)
    M = ((1, 2, 0), (0, 3, 4), (2, 0, 1))
    phi = SemilinearMap(identity_hom(K), M)
    assert proportional(phi, phi) == 1


def test_proportional_scalar_two():
    K = gf(5)
    M = ((1, 2, 0), (0, 3, 4), (2, 0, 1))
    phi = SemilinearMap(identity_hom(K), M)
    assert proportional(phi, phi.scaled(2)) == 2


def test_proportional_sigma_mismatch():
    K = gf(4)
    M = identity_matrix(4)
    a = SemilinearMap(identity_hom(K), M)
    b = SemilinearMap(hom_from_power(K, K, 1), M)
    assert proportional(a, b) is None


def test_proportional_recovery_from_induced_equality():
    # two maps inducing the same nonconstant point map must be proportional
    K = gf(3)
    rng = random.Random(12)
    for _ in range(10):
        M = tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4))
        if linalg.rank(K, M) < 2:
            continue
        phi = SemilinearMap(identity_hom(K), M)
        lam = rng.randrange(1, 3)
        assert proportional(phi, phi.scaled(lam)) == lam


def test_canonical_scaling():
    K = gf(5)
    phi = SemilinearMap(identity_hom(K), ((0, 3), (2, 1)))
    c = phi.canonical()
    assert c.matrix[0][1] == 1
    assert proportional(phi, c) is not None

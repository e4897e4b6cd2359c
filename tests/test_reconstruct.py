"""Reconstruction engine: base procedure, quotient transport, gluing,
drivers, certification, and the exhaustive oracle."""

import random
import re
import sys
from collections import Counter

import pytest

from fingeo import geometry, linalg, projective, reconstruct
from fingeo.classify import affino_admissible_points, full_quotient_points, secant_lines
from fingeo.errors import (
    ExceptionalNotFlat,
    FieldClauseViolated,
    FingeoError,
    ImageInLine,
    ImageInPlane,
    InternalContradiction,
    LiftInconsistent,
    NoBasePair,
    NotConstantOnClasses,
    NotEnoughPoints,
    NotProportional,
    ReductionsDisagree,
    VerificationFailed,
)
from fingeo.geometry import CoordGeometry, bits_of, subgeometry
from fingeo.gf import gf, hom_from_power, identity_hom, list_homomorphisms
from fingeo.projective import (
    QuotientCoords,
    SemilinearMap,
    build_pg,
    induced_partial,
    proportional,
    quotient_coords,
    LinearSubspace,
)
from fingeo.reconstruct import (
    MorphismInstance,
    PartialPointMap,
    ReconstructionResult,
    _affino_leg,
    _lp_leg,
    brute_force_oracle,
    certify_side_conditions,
    extend_affino,
    glue_fibred_product,
    induced_quotient_map,
    normalize_pair,
    reconstruct_affino_projective,
    reconstruct_ftpg,
    reconstruct_locally_affino,
    reconstruct_locally_projective,
)
from quotient_routes import fibred_product_identity, identity_matrix, ref_flat_preimage_witness, ref_verify


def random_semilinear(rng, K, K2=None, n1=4, m1=4, min_rank=4, homs=None):
    K2 = K2 or K
    homs = homs or list_homomorphisms(K, K2)
    while True:
        M = tuple(tuple(rng.randrange(K2.q) for _ in range(n1)) for _ in range(m1))
        if linalg.rank(K2, M) >= min_rank:
            return SemilinearMap(homs[rng.randrange(len(homs))], M)


def induced_point_map(phi, src):
    images = tuple(
        linalg.normalize_vec(phi.target_field, phi.apply_vec(v)) for v in src.vectors
    )
    return PartialPointMap(src, phi.target_field, phi.n_out - 1, images)


# -- base engine -----------------------------------------------------------------


def test_ftpg_identity(pg32):
    phi = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
    pm = induced_partial(phi)
    got = reconstruct_ftpg(pm)
    assert got.matrix == identity_matrix(4)
    assert got.sigma.is_identity


def test_ftpg_coordinatewise_squaring_recovers_frobenius(pg34):
    K = gf(4)
    gen = SemilinearMap(hom_from_power(K, K, 1), identity_matrix(4))
    got = reconstruct_ftpg(induced_point_map(gen, pg34))
    assert got.sigma.frobenius_power == 1
    assert got.matrix == identity_matrix(4)


def test_ftpg_projection_from_point(pg33):
    # quotient projection onto PG(2,3): rank-3 matrix, center recovered
    K = gf(3)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    gen = SemilinearMap(identity_hom(K), M)
    got = reconstruct_ftpg(induced_point_map(gen, pg33))
    assert proportional(got, gen.canonical()) == 1
    assert got.kernel().rows == ((0, 0, 0, 1),)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ftpg_round_trip_same_field(q):
    rng = random.Random(100 + q)
    K = gf(q)
    src = build_pg(3, q)
    for _ in range(15):
        gen = random_semilinear(rng, K, min_rank=3)
        got = reconstruct_ftpg(induced_point_map(gen, src))
        assert proportional(got, gen.canonical()) == 1


@pytest.mark.parametrize("qa,qb", [(2, 4), (4, 16), (3, 9)])
def test_ftpg_round_trip_cross_field(qa, qb):
    rng = random.Random(200 + qb)
    src = build_pg(3, qa)
    for _ in range(15):
        gen = random_semilinear(rng, gf(qa), gf(qb), min_rank=3)
        got = reconstruct_ftpg(induced_point_map(gen, src))
        assert proportional(got, gen.canonical()) == 1


def test_ftpg_frame_conjugation_independence(pg33):
    # conjugating the input by a coordinate permutation conjugates the output
    K = gf(3)
    rng = random.Random(31)
    perm = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    pmat = SemilinearMap(identity_hom(K), perm)
    gen = random_semilinear(rng, K, min_rank=4)
    got_direct = reconstruct_ftpg(induced_point_map(gen, pg33))
    conj = gen.compose(pmat)
    got_conj = reconstruct_ftpg(induced_point_map(conj, pg33))
    assert proportional(got_conj, got_direct.compose(pmat).canonical()) is not None


def test_ftpg_exceptional_not_flat(pg32):
    phi = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
    pm = induced_point_map(phi, pg32)
    images = list(pm.images)
    images[3] = None  # a single deleted value off any flat pattern
    images[5] = None
    with pytest.raises(ExceptionalNotFlat):
        reconstruct_ftpg(PartialPointMap(pg32, gf(2), 3, tuple(images)))


def test_ftpg_image_in_line(pg32):
    K = gf(2)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    images = tuple(
        linalg.normalize_vec(K, SemilinearMap(identity_hom(K), M).apply_vec(v))
        for v in pg32.vectors
    )
    with pytest.raises(ImageInLine):
        reconstruct_ftpg(PartialPointMap(pg32, K, 3, images))


def test_ftpg_verification_failure_on_corrupted_map(pg33):
    K = gf(3)
    gen = SemilinearMap(identity_hom(K), identity_matrix(4))
    pm = induced_point_map(gen, pg33)
    images = list(pm.images)
    # swap two images not fixed by any semilinear map extension
    images[7], images[8] = images[8], images[7]
    with pytest.raises(VerificationFailed):
        reconstruct_ftpg(PartialPointMap(pg33, K, 3, tuple(images)))


@pytest.mark.parametrize("n, q, q2", [(3, 2, 2), (3, 3, 3), (3, 4, 4), (2, 2, 4), (2, 3, 9), (2, 4, 16)])
def test_verify_reports_what_the_point_sweep_reports(n, q, q2):
    """Seeded maps at full and deficient rank, over every homomorphism
    gf(q) -> gf(q2): the row-wise sweep accepts the true images and, with
    one to three images moved (to another point or to None), raises the
    message of the per-point sweep it replaced."""
    K, K2 = gf(q), gf(q2)
    P = build_pg(n, q)
    targets = linalg.all_proj_points(K2, n + 1) + [None]
    rng = random.Random(f"verify {n} {q} {q2}")
    for sigma in list_homomorphisms(K, K2):
        for r in (n + 1, n, n - 1):
            phi = random_semilinear(rng, K, K2, n + 1, n + 1, r, homs=[sigma])
            images = induced_point_map(phi, P).images
            reconstruct._verify(phi, P.vectors, images)
            for _ in range(5):
                moved = list(images)
                for x in rng.sample(range(P.n_points), rng.randrange(1, 4)):
                    moved[x] = rng.choice([y for y in targets if y != moved[x]])
                with pytest.raises(VerificationFailed) as want:
                    ref_verify(phi, P.vectors, moved)
                with pytest.raises(VerificationFailed, match=re.escape(str(want.value)) + "$"):
                    reconstruct._verify(phi, P.vectors, moved)


# -- quotient transport --------------------------------------------------------------


def test_induced_quotient_map_identity(pg32):
    inst = MorphismInstance.restrict_semilinear(
        SemilinearMap(identity_hom(gf(2)), identity_matrix(4)), pg32
    )
    pm = induced_quotient_map(inst, 0)
    assert pm.exceptional.mask == 0
    assert sorted(pm.map) == list(range(7))


def test_induced_quotient_map_frobenius_fixed_point(pg34):
    K = gf(4)
    gen = SemilinearMap(hom_from_power(K, K, 1), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(gen, pg34)
    # the first point (0,0,0,1) is fixed by frobenius
    x0 = pg34.point_index((0, 0, 0, 1))
    pm = induced_quotient_map(inst, x0)
    assert pm.exceptional.mask.bit_count() == 0
    # compare to the quotient of the known map via the coordinate projection
    qc = quotient_coords(LinearSubspace.from_vectors(K, 4, [(0, 0, 0, 1)]))
    Qs, Qt = pm.source, pm.target
    for c in range(Qs.n_points):
        rep = Qs.reps[c]
        want = linalg.normalize_vec(K, qc.project(gen.apply_vec(pg34.vectors[rep])))
        got_cls = pm(c)
        rep_t = Qt.reps[got_cls]
        assert linalg.normalize_vec(K, qc.project(pg34.vectors[rep_t])) == want


def test_induced_quotient_map_fiber_exceptional(pg33):
    # rank-3 map constant along the kernel direction through x0
    K = gf(3)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    gen = SemilinearMap(identity_hom(K), M)
    X = subgeometry(pg33, [i for i, v in enumerate(pg33.vectors) if v != (0, 0, 0, 1)])
    inst = MorphismInstance.restrict_semilinear(gen, X)
    x0 = 0
    pm = induced_quotient_map(inst, x0)
    # the fiber of phi(x0) is the line through x0 and the center, minus the
    # center: its class is exceptional
    assert pm.exceptional.mask.bit_count() == 1
    pm.validate()


def test_induced_quotient_map_rejects_a_non_morphism(pg32):
    """A class of X/x0 sent both to the base image and elsewhere, or into
    two classes of P'/phi(x0), is not constant on classes."""
    K = gf(2)
    identity = SemilinearMap(identity_hom(K), identity_matrix(4))
    images = MorphismInstance.restrict_semilinear(identity, pg32).images
    y, z = bits_of(pg32.line_through_pair(0, 1) & ~1)  # one class of X/0
    w = next(i for i in range(15) if not pg32.line_through_pair(0, z) >> i & 1)
    for moved in (images[0], images[w]):
        bad = list(images)
        bad[y] = moved
        with pytest.raises(NotConstantOnClasses, match=f"class .* {re.escape(str(moved))}"):
            induced_quotient_map(MorphismInstance(pg32, K, 3, tuple(bad)), 0)


# -- normalization and gluing ----------------------------------------------------------


def leg_maps(gen, P, x1, x2):
    """Quotient-level maps of a generator at two base points."""
    K, K2 = gen.source_field, gen.target_field
    v1, v2 = P.vectors[x1], P.vectors[x2]
    v1p = linalg.normalize_vec(K2, gen.apply_vec(v1))
    v2p = linalg.normalize_vec(K2, gen.apply_vec(v2))
    out = []
    for v, vp in ((v1, v1p), (v2, v2p)):
        qc = quotient_coords(LinearSubspace.from_vectors(K, 4, [v]))
        qcp = quotient_coords(LinearSubspace.from_vectors(K2, len(v1p), [vp]))
        # A = Q' . M . sigma(L): the map induced on quotient coordinates
        inner = linalg.mat_mul(K2, gen.matrix, gen.sigma.map_matrix(qc.lift_matrix))
        A = linalg.mat_mul(K2, qcp.proj_matrix, inner)
        out.append(SemilinearMap(gen.sigma, A))
    return out[0], out[1], v1, v2, v1p, v2p


def test_normalize_pair_identity_and_scalar():
    K = gf(5)
    rng = random.Random(55)
    P = build_pg(3, 5)
    gen = random_semilinear(rng, K, min_rank=4)
    phi1, phi2, v1, v2, v1p, v2p = leg_maps(gen, P, 0, 1)
    same = normalize_pair(phi1, phi1.scaled(1), v1, v2, v1p, v2p)
    assert same.matrix == phi1.matrix
    scaled = normalize_pair(phi1.scaled(2), phi1, v1, v2, v1p, v2p)
    assert scaled.matrix == phi1.matrix  # the factor 3 = inv(2) mod 5 restores it


def test_normalize_pair_sigma_mismatch():
    K = gf(4)
    P = build_pg(3, 4)
    rng = random.Random(7)
    gen = random_semilinear(rng, K, min_rank=4, homs=[identity_hom(K)])
    phi1, phi2, v1, v2, v1p, v2p = leg_maps(gen, P, 0, 1)
    twisted = SemilinearMap(hom_from_power(K, K, 1), phi2.matrix)
    with pytest.raises(NotProportional):
        normalize_pair(phi1, twisted, v1, v2, v1p, v2p)


def test_glue_recovers_generator():
    K = gf(3)
    P = build_pg(3, 3)
    rng = random.Random(41)
    for _ in range(10):
        gen = random_semilinear(rng, K, min_rank=4)
        phi1, phi2, v1, v2, v1p, v2p = leg_maps(gen, P, 0, 2)
        glued = glue_fibred_product(phi1, phi2, v1, v2, v1p, v2p)
        assert proportional(glued, gen) is not None


def test_glue_zero_maps():
    K = gf(3)
    z = SemilinearMap(identity_hom(K), ((0,) * 4,) * 3)
    v1, v2 = (1, 0, 0, 0), (0, 1, 0, 0)
    v1p, v2p = (1, 0, 0, 0), (0, 1, 0, 0)
    glued = glue_fibred_product(z, z, v1, v2, v1p, v2p)
    assert glued.is_zero()


def test_glue_scaled_leg_detected():
    K = gf(3)
    P = build_pg(3, 3)
    rng = random.Random(43)
    gen = random_semilinear(rng, K, min_rank=4)
    phi1, phi2, v1, v2, v1p, v2p = leg_maps(gen, P, 0, 2)
    with pytest.raises(ReductionsDisagree):
        glue_fibred_product(phi1.scaled(2), phi2, v1, v2, v1p, v2p)


def gf4_legs():
    """The legs of a seeded linear map of PG(3,4) at points 0 and 1, and the
    legs of a second, unrelated one."""
    K = gf(4)
    P = build_pg(3, 4)
    rng = random.Random(7)
    gen, other = (random_semilinear(rng, K, min_rank=4, homs=[identity_hom(K)]) for _ in range(2))
    return leg_maps(gen, P, 0, 1), leg_maps(other, P, 0, 1)


def test_normalize_pair_rejects_unrelated_and_vanishing_legs():
    (phi1, phi2, v1, v2, v1p, v2p), (_, unrelated, *_) = gf4_legs()
    with pytest.raises(NotProportional, match="reductions are not proportional"):
        normalize_pair(phi1, unrelated, v1, v2, v1p, v2p)
    zero = SemilinearMap(phi2.sigma, ((0,) * 3,) * 3)
    with pytest.raises(NotProportional, match="a reduction modulo the base pair vanished"):
        normalize_pair(phi1, zero, v1, v2, v1p, v2p)


def test_glue_rejects_mixed_sigma_and_dependent_base():
    (phi1, phi2, v1, v2, v1p, v2p), _ = gf4_legs()
    K = phi1.source_field
    twisted = SemilinearMap(hom_from_power(K, K, 1), phi2.matrix)
    with pytest.raises(ReductionsDisagree, match="different field homomorphisms"):
        glue_fibred_product(phi1, twisted, v1, v2, v1p, v2p)
    with pytest.raises(LiftInconsistent, match="base vectors must be independent on both sides"):
        glue_fibred_product(phi1, phi2, v1, linalg.vec_scale(K, 2, v1), v1p, v2p)


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("fixture, driver", [
    ("ag33", reconstruct_locally_projective),
    ("elliptic_34", reconstruct_locally_affino),
])
def test_two_point_builds_pair_matrices_once(fixture, driver, request, monkeypatch):
    X = request.getfixturevalue(fixture)
    gen = SemilinearMap(identity_hom(X.field), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, X)
    calls = Counter()
    for name in ("_pair_matrices", "_two_point"):
        monkeypatch.setattr(reconstruct, name, counting(calls, name, getattr(reconstruct, name)))
    assert driver(inst).phi == gen
    assert calls["_pair_matrices"] == calls["_two_point"] == 1


@pytest.mark.parametrize("fixture, driver", [
    ("ag33", reconstruct_locally_projective),
    ("elliptic_34", reconstruct_locally_affino),
])
def test_drivers_solve_in_closed_form_and_sweep_row_wise(fixture, driver, request, monkeypatch):
    """No frame equation, sigma table or lift goes through linalg.solve, and
    no sweep maps one point at a time: apply_vec serves only the lift's two
    base-direction checks."""
    X = request.getfixturevalue(fixture)
    gen = SemilinearMap(identity_hom(X.field), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, X)
    calls, callers = Counter(), []
    monkeypatch.setattr(linalg, "solve", counting(calls, "solve", linalg.solve))
    apply_vec = SemilinearMap.apply_vec

    def traced(phi, v):
        callers.append(sys._getframe(1).f_code.co_name)
        return apply_vec(phi, v)

    monkeypatch.setattr(SemilinearMap, "apply_vec", traced)
    assert driver(inst).phi == gen
    assert calls["solve"] == 0
    assert callers == ["_lift", "_lift"]


def test_extension_intersects_once_per_point(ag34, monkeypatch):
    """The first secant line through a point is eliminated forward and each
    further line is one span_meet with the span so far: no line is taken
    in RREF, and neither intersect_spans nor in_span is called."""
    K = ag34.field
    gen = SemilinearMap(identity_hom(K), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, ag34, kind="affino-projective")
    extend_affino(inst)  # warms the memoised verdicts of ag34
    calls = Counter()
    for name in ("span_meet", "rref", "intersect_spans", "in_span"):
        monkeypatch.setattr(linalg, name, counting(calls, name, getattr(linalg, name)))
    pm = extend_affino(inst)
    P = ag34.ambient
    assert pm.images == tuple(linalg.normalize_vec(K, gen.apply_vec(v)) for v in P.vectors)
    assert calls["span_meet"] == sum(len(lines) - 1 for _, lines in secant_lines(ag34)) > 0
    assert calls["rref"] == calls["intersect_spans"] == calls["in_span"] == 0


@pytest.mark.parametrize("fixture, driver", [
    ("ag33", reconstruct_locally_projective),
    ("elliptic_34", reconstruct_locally_affino),
])
def test_class_images_project_in_one_sweep(fixture, driver, request, monkeypatch):
    """No point goes through QuotientCoords.project on its own: the class
    images of the legs and of induced_quotient_map come from one sweep."""
    X = request.getfixturevalue(fixture)
    gen = SemilinearMap(identity_hom(X.field), ((1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 0, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, X)
    calls = Counter()
    monkeypatch.setattr(QuotientCoords, "project", counting(calls, "project", QuotientCoords.project))
    assert driver(inst).phi == gen
    induced_quotient_map(inst, driver(inst).base_points[0])
    assert calls["project"] == 0


def test_frame_coordinates_need_no_inverse(pg33, monkeypatch):
    """reconstruct_ftpg reads the frame coordinates off the exceptional
    flat's RREF, with and without an exceptional flat."""
    calls = Counter()
    monkeypatch.setattr(linalg, "inverse", counting(calls, "inverse", linalg.inverse))
    for matrix in (identity_matrix(4), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))):
        phi = SemilinearMap(identity_hom(gf(3)), matrix)
        assert reconstruct_ftpg(induced_point_map(phi, pg33)) == phi
    assert calls["inverse"] == 0


@pytest.mark.parametrize("fixture, driver", [
    ("ag33", reconstruct_locally_projective),
    ("elliptic_34", reconstruct_locally_affino),
])
def test_source_quotients_are_built_once_per_point(fixture, driver, request, monkeypatch):
    """A leg's coordinates of V/<v_x> are those of X's cached point quotient
    X/x: a second reconstruction on the same geometry builds none of them."""
    X = request.getfixturevalue(fixture)
    gen = SemilinearMap(identity_hom(X.field), ((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)))
    inst = MorphismInstance.restrict_semilinear(gen, X)
    pair = driver(inst).base_points
    source = {(X.vectors[x],) for x in pair}
    assert not source & {(inst.images[x],) for x in pair}
    built = []

    def recording(W):
        built.append(W.rows)
        return quotient_coords(W)

    monkeypatch.setattr(reconstruct, "quotient_coords", recording)
    monkeypatch.setattr(projective, "quotient_coords", recording)
    assert driver(inst).phi == gen
    assert built and not source & set(built)


# -- locally projective driver -----------------------------------------------------------


def test_lp_identity_on_full_space(pg32):
    inst = MorphismInstance.restrict_semilinear(
        SemilinearMap(identity_hom(gf(2)), identity_matrix(4)), pg32
    )
    res = reconstruct_locally_projective(inst)
    assert res.phi.matrix == identity_matrix(4)


def test_lp_affine_round_trip(ag33):
    rng = random.Random(61)
    for _ in range(8):
        gen = random_semilinear(rng, gf(3), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(gen, ag33)
        res = reconstruct_locally_projective(inst)
        assert proportional(res.phi, gen.canonical()) == 1
        again = reconstruct_locally_projective(inst, pair_rank=1)
        assert proportional(again.phi, res.phi) is not None


def test_lp_two_hyperplanes_base_points_in_distinct_parts(two_hyperplanes_33):
    rng = random.Random(67)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(gen, two_hyperplanes_33)
    res = reconstruct_locally_projective(inst)
    assert proportional(res.phi, gen.canonical()) == 1


def test_lp_image_in_plane_rejected(ag33):
    K = gf(3)
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    # the kernel point (0,0,0,1) lies in the removed hyperplane x0 = 0, so
    # the restriction to the affine part is total; pad rank down to 3
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0))
    gen = SemilinearMap(identity_hom(K), M)
    inst = MorphismInstance.restrict_semilinear(gen, ag33)
    with pytest.raises(ImageInPlane):
        reconstruct_locally_projective(inst)


@pytest.mark.parametrize("driver", [reconstruct_locally_projective, reconstruct_locally_affino])
def test_driver_needs_a_quadrilateral_in_every_plane(pg33, driver):
    # a frame of PG(3,3): every plane of X holds just three of its points
    frame = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    X = subgeometry(pg33, [pg33.point_index(v) for v in frame])
    inst = MorphismInstance(X, gf(3), 3, tuple(X.vectors))
    with pytest.raises(NotEnoughPoints, match="^a plane of X has no quadrilateral$"):
        driver(inst)


def test_lp_no_base_pair_on_ovoid(elliptic_33):
    # no point of an ovoid has a full quotient, so the locally projective
    # driver must refuse rather than attempt a weaker reconstruction
    rng = random.Random(71)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(gen, elliptic_33)
    with pytest.raises(NoBasePair):
        reconstruct_locally_projective(inst)


# -- affino-projective extension ------------------------------------------------------------


def test_extend_affino_round_trip(ag34):
    rng = random.Random(73)
    for _ in range(5):
        gen = random_semilinear(rng, gf(4), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(gen, ag34, kind="affino-projective")
        ext = extend_affino(inst)
        P = build_pg(3, 4)
        for i, v in enumerate(P.vectors):
            want = linalg.normalize_vec(gf(4), gen.apply_vec(v))
            assert ext.images[i] == want


def test_extend_affino_field_clause(ag32):
    gen = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(gen, ag32, kind="affino-projective")
    with pytest.raises(FieldClauseViolated):
        extend_affino(inst)


def test_extend_affino_gf3_target_gf3(ag33):
    rng = random.Random(79)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(gen, ag33, kind="affino-projective")
    ext = extend_affino(inst)
    res = reconstruct_affino_projective(inst)
    assert proportional(res.phi, gen.canonical()) == 1


def test_extend_affino_partial_generator(ag33):
    # a rank-3 generator whose kernel point avoids the affine part induces a
    # genuine partial extension
    K = gf(3)
    M = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    gen = SemilinearMap(identity_hom(K), M)  # kernel (1,0,0,0)... in the affine part
    # kernel (1,0,0,0) has x0 = 1: inside AG -> invalid fixture; use a kernel
    # inside the hyperplane x0 = 0 instead
    M = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    gen = SemilinearMap(identity_hom(K), M)  # kernel (0,1,0,0)
    assert gen.kernel().rows == ((0, 1, 0, 0),)
    inst = MorphismInstance.restrict_semilinear(gen, ag33, kind="affino-projective")
    ext = extend_affino(inst)
    assert ext.undefined_mask().bit_count() == 1
    res = reconstruct_affino_projective(inst)
    assert proportional(res.phi, gen.canonical()) == 1


# -- locally affino-projective driver ----------------------------------------------------------


QUADRIC_CASES = [
    ("elliptic_33", 3, 3),
    ("elliptic_34", 4, 4),
    ("hyperbolic_34", 4, 4),
    ("cone_33", 3, 3),
    ("cone_34", 4, 4),
]


@pytest.mark.parametrize("fixture,q,q2", QUADRIC_CASES)
def test_lap_round_trip(fixture, q, q2, request):
    X = request.getfixturevalue(fixture)
    rng = random.Random(1000 + q * 10 + q2)
    for _ in range(4):
        gen = random_semilinear(rng, gf(q), gf(q2), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(gen, X, kind="locally-affino-projective")
        res = reconstruct_locally_affino(inst)
        assert proportional(res.phi, gen.canonical()) == 1
        again = reconstruct_locally_affino(inst, pair_rank=1)
        assert proportional(again.phi, res.phi) is not None


def test_lap_gf3_to_gf9(elliptic_33):
    rng = random.Random(83)
    for _ in range(3):
        gen = random_semilinear(rng, gf(3), gf(9), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(
            gen, elliptic_33, kind="locally-affino-projective"
        )
        res = reconstruct_locally_affino(inst)
        assert proportional(res.phi, gen.canonical()) == 1


def test_lap_field_clause_gf2(hyperbolic_32):
    gen = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(
        gen, hyperbolic_32, kind="locally-affino-projective"
    )
    with pytest.raises(FieldClauseViolated):
        reconstruct_locally_affino(inst)


def test_lap_frobenius_on_hyperbolic(hyperbolic_34):
    K = gf(4)
    rng = random.Random(89)
    gen = random_semilinear(rng, K, min_rank=4, homs=[hom_from_power(K, K, 1)])
    inst = MorphismInstance.restrict_semilinear(
        gen, hyperbolic_34, kind="locally-affino-projective"
    )
    res = reconstruct_locally_affino(inst)
    assert res.phi.sigma.frobenius_power == 1
    assert proportional(res.phi, gen.canonical()) == 1


# -- legs and perturbed inputs ---------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, leg, admissible",
    [
        ("ag33", _lp_leg, lambda inst: full_quotient_points(inst.geometry)),
        ("elliptic_33", _affino_leg, lambda inst: affino_admissible_points(inst.geometry)),
    ],
    ids=["lp-ag33", "lap-elliptic33"],
)
def test_leg_is_the_induced_quotient_map(fixture, leg, admissible, request):
    X = request.getfixturevalue(fixture)
    P = build_pg(3, 3)
    rng = random.Random(97)
    for _ in range(3):
        gen = random_semilinear(rng, gf(3), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(gen, X)
        for x in admissible(inst)[:6]:
            amb = X.ambient_indices[x]
            want = leg_maps(gen, P, amb, amb)[0]
            assert proportional(leg(inst, x)[0], want) is not None


@pytest.mark.parametrize(
    "fixture, driver",
    [
        ("ag33", reconstruct_locally_projective),
        ("two_hyperplanes_33", reconstruct_locally_projective),
        ("elliptic_33", reconstruct_locally_affino),
        ("cone_33", reconstruct_locally_affino),
        ("ag33", reconstruct_affino_projective),
    ],
)
def test_perturbed_input_never_returns_a_map(fixture, driver, request):
    """Moving one image of an induced map to another point is always
    rejected, and always with a typed error that says the input is not a
    morphism, never that the library contradicted itself."""
    X = request.getfixturevalue(fixture)
    K = gf(3)
    targets = linalg.all_proj_points(K, 4)
    rng = random.Random(f"perturb-{fixture}")
    for _ in range(30):
        images = list(MorphismInstance.restrict_semilinear(random_semilinear(rng, K), X).images)
        x = rng.randrange(X.n_points)
        images[x] = rng.choice([v for v in targets if v != images[x]])
        with pytest.raises(FingeoError) as info:
            driver(MorphismInstance(X, K, 3, tuple(images)))
        assert not isinstance(info.value, InternalContradiction), info.value


def test_fiber_that_is_not_a_flat_is_not_a_morphism(ag43):
    """Two points of an affine line sent to one image and the third point
    elsewhere: the fiber of the base image is not a flat of X, which the
    affino leg reports as an input that is not a morphism."""
    K = gf(3)
    gen = random_semilinear(random.Random("fiber-ag43"), K, n1=5, m1=5, min_rank=5)
    images = list(MorphismInstance.restrict_semilinear(gen, ag43).images)
    images[1] = images[0]
    with pytest.raises(ExceptionalNotFlat):
        reconstruct_locally_affino(MorphismInstance(ag43, K, 4, tuple(images)))


def test_unnormalised_image_in_a_class_is_not_a_morphism(elliptic_33):
    """A point whose image is the base image with other coordinates falls
    outside the fiber yet projects onto the base image: a typed rejection,
    not a contradiction of the library."""
    K = gf(3)
    gen = random_semilinear(random.Random("unnormalised"), K)
    images = list(MorphismInstance.restrict_semilinear(gen, elliptic_33).images)
    images[2] = linalg.vec_scale(K, 2, images[0])
    with pytest.raises(NotConstantOnClasses):
        reconstruct_locally_affino(MorphismInstance(elliptic_33, K, 3, tuple(images)))


# -- certification ------------------------------------------------------------------------------


def test_certify_injective_kernel_zero(ag33):
    rng = random.Random(91)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(gen, ag33)
    res = reconstruct_locally_projective(inst)
    rep = certify_side_conditions(res, inst)
    assert rep["injective"] and rep["kernel_zero"] is True
    assert rep["embedding_input"] and rep["extension_embedding"]


def test_certify_non_injective():
    # in PG(4,2) a rank-4 generator can avoid the affine part with its kernel
    # while still spanning more than a plane: the restriction is then a
    # non-injective morphism and the reconstruction keeps a nonzero kernel
    K = gf(2)
    P = build_pg(4, 2)
    hyper = P.hyperplanes()[0]  # x0 = 0
    X = subgeometry(P, sorted(bits_of(P.full_mask & ~hyper)))
    M = (
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
    )
    gen = SemilinearMap(identity_hom(K), M)  # kernel (0,1,0,0,0) inside x0 = 0
    assert gen.kernel().rows == ((0, 1, 0, 0, 0),)
    inst = MorphismInstance.restrict_semilinear(gen, X)
    assert len(set(inst.images)) < X.n_points  # genuinely non-injective
    res = reconstruct_locally_projective(inst)
    assert proportional(res.phi, gen.canonical()) == 1
    rep = certify_side_conditions(res, inst)
    assert rep["injective"] is False
    assert "kernel_zero" not in rep
    assert res.exceptional.rank == 1


def test_certify_tangent_point_blocks_kernel_claim(elliptic_33):
    # a cone's vertex-style external point exists for the ovoid? no: for the
    # elliptic quadric no ambient point is tangent to all of X, so the
    # hypothesis holds and the kernel claim applies
    rng = random.Random(97)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(
        gen, elliptic_33, kind="locally-affino-projective"
    )
    res = reconstruct_locally_affino(inst)
    rep = certify_side_conditions(res, inst)
    assert rep["tangent_point_hypothesis"] is True
    assert rep["kernel_zero"] is True


def test_certify_cone_vertex_is_not_tangent(cone_33):
    # the rulings are secants, so even the removed vertex is no tangent point
    # and the kernel claim applies on the cone too
    rng = random.Random(101)
    gen = random_semilinear(rng, gf(3), min_rank=4)
    inst = MorphismInstance.restrict_semilinear(
        gen, cone_33, kind="locally-affino-projective"
    )
    res = reconstruct_locally_affino(inst)
    rep = certify_side_conditions(res, inst)
    assert rep["tangent_point_hypothesis"] is True
    assert rep["kernel_zero"] is True


def test_certify_tangent_point_waives_kernel_claim(pg33):
    # a planar conic viewed from outside its plane: every joining line is
    # tangent, the hypothesis fails, and the kernel claim is waived
    from fingeo.reconstruct import ReconstructionResult

    K = gf(3)
    plane = [i for i, v in enumerate(pg33.vectors) if v[3] == 0]
    conic = [
        i
        for i in plane
        if (pg33.vectors[i][0] * pg33.vectors[i][1] + 2 * pg33.vectors[i][2] ** 2) % 3 == 0
    ]
    X = subgeometry(pg33, conic)
    assert X.n_points == 4  # conic of PG(2,3)
    ident = SemilinearMap(identity_hom(K), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(ident, X, kind="locally-affino-projective")
    result = ReconstructionResult(ident, ident.kernel(), (0, 1), {})
    rep = certify_side_conditions(result, inst)
    assert rep["tangent_point_hypothesis"] is False
    assert rep["kernel_zero"] == "not applicable"


def certify_corpus(X):
    """Seeded (result, instance) pairs: round trips on X, an embedded
    AG(3,3), of injective semilinear maps over GF(3) and into GF(9); round
    trips on AG(4,2) of rank-4 maps, not injective, whose kernel lies in the
    hyperplane at infinity; and random injective point maps of X into
    PG(3,3), most of them no embedding, with the identity standing in for
    the reconstruction."""
    rng = random.Random(28)
    K = gf(3)
    out = []
    for K2 in (K, K, gf(9), gf(9)):
        inst = MorphismInstance.restrict_semilinear(random_semilinear(rng, K, K2), X)
        out.append((reconstruct_locally_projective(inst), inst))
    P = build_pg(4, 2)
    affine = subgeometry(P, [i for i, v in enumerate(P.vectors) if v[0] == 1])
    while len(out) < 6:
        gen = random_semilinear(rng, gf(2), n1=5, m1=5)
        if linalg.rank(gf(2), gen.matrix) == 4 and gen.kernel().rows[0][0] == 0:
            inst = MorphismInstance.restrict_semilinear(gen, affine)
            out.append((reconstruct_locally_projective(inst), inst))
    ident = SemilinearMap(identity_hom(K), identity_matrix(4))
    for _ in range(4):
        images = tuple(rng.sample(X.ambient.vectors, X.n_points))
        out.append((ReconstructionResult(ident, ident.kernel(), (0, 1), {}), MorphismInstance(X, K, 3, images)))
    return out


def test_certify_by_closure_matches_flat_set_route(ag33):
    """certify_side_conditions reports the same when flat preimages are
    tested by closure alone as when each is looked up in the flat set of
    the image geometry first, as it was before."""
    reports = []
    for result, inst in certify_corpus(ag33):
        got = certify_side_conditions(result, inst)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_flat_preimage_witness", ref_flat_preimage_witness)
            assert certify_side_conditions(result, inst) == got
        reports.append(got)
    assert {r["injective"] for r in reports} == {r["embedding_input"] for r in reports} == {True, False}


def test_certify_builds_no_flats_of_the_images(ag33, monkeypatch):
    """Only X and its ambient PG(3,3) are asked for their flats, as the
    targets of the two inverse maps; no geometry on the images is."""
    result, inst = certify_corpus(ag33)[2]
    assert inst.target_field.q == 9
    for G in (ag33, ag33.ambient):
        G.flats()
    built = []
    build = CoordGeometry._build_flats
    monkeypatch.setattr(CoordGeometry, "_build_flats", lambda G: (built.append(G), build(G)))
    assert certify_side_conditions(result, inst)["extension_embedding"]
    assert built == []


# -- oracle ------------------------------------------------------------------------------------


def test_oracle_identity_unique(pg32):
    inst = MorphismInstance.restrict_semilinear(
        SemilinearMap(identity_hom(gf(2)), identity_matrix(4)), pg32
    )
    maps = brute_force_oracle(inst)
    assert len(maps) == 1
    assert maps[0].matrix == identity_matrix(4)


def test_oracle_matches_reconstruction(pg32):
    rng = random.Random(103)
    for _ in range(3):
        gen = random_semilinear(rng, gf(2), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(gen, pg32)
        maps = brute_force_oracle(inst)
        res = reconstruct_locally_projective(inst)
        assert len(maps) == 1
        assert maps[0].matrix == res.phi.matrix


def test_oracle_non_morphism_empty(pg32):
    gen = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(gen, pg32)
    images = list(inst.images)
    images[0], images[1] = images[1], images[0]
    # swapping two images of a collineation breaks the morphism property
    broken = MorphismInstance(pg32, gf(2), 3, tuple(images))
    assert brute_force_oracle(broken) == ()


def test_oracle_cap():
    from fingeo.errors import CapExceeded

    P = build_pg(3, 4)
    gen = SemilinearMap(identity_hom(gf(4)), identity_matrix(4))
    inst = MorphismInstance.restrict_semilinear(gen, P)
    with pytest.raises(CapExceeded):
        brute_force_oracle(inst, cap=1 << 20)


# -- fibred product identity --------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_fibred_product_identity(q):
    K = gf(q)
    rng = random.Random(500 + q)
    done = 0
    while done < 5:
        v1 = tuple(rng.randrange(q) for _ in range(4))
        v2 = tuple(rng.randrange(q) for _ in range(4))
        if linalg.rank(K, (v1, v2)) != 2:
            continue
        assert fibred_product_identity(K, v1, v2)
        done += 1

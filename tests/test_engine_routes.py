"""The base engine and the table quotient against the routes they replace.

reconstruct_ftpg rescales its frame images through one chain of pairwise
sum points, where ref_reconstruct_ftpg in quotient_routes rescaled
independent images through the unit point.  On seeded semilinear maps
between projective spaces, surjective and not, both must return the same
map, and on perturbed copies of them both must fail; neither may raise
InternalContradiction.

A quotient of a table geometry is a table geometry on the parent flats
through E, where RefQuotientGeometry closes through the parent.  Over the
quotients by each of the 1064 flats of at most three points of 28 tables,
geometries and not, the flats, their dimensions, closures, both axiom
reports, the label and the lines through each point must be the same.

extend_affino leaves the acceptance of its extension to the base engine,
where ref_extend_affino also tested the undefined set and ran a pre-check of
necessary partial-morphism conditions.  On seeded semilinear maps restricted
to affine spaces and quadrics, and on perturbed copies of them, the ap and
lap drivers must return the same map and certificate on either extension
and fail on the same inputs; neither may raise InternalContradiction.

extend_affino meets each secant line's raw images with the span so far by
one forward elimination (linalg.span_meet), where ref_extend_unchecked
takes every line in RREF and intersects by the stacked kernel that came
before.  On every extension the
ap and lap drivers ask for on those inputs, both must return the same
partial point map or raise the same class with the same message, which
names the ambient point.

_class_images projects every point of X into V'/<v_x'> in one sweep, where
ref_class_images projects each class's points one at a time.  At every
point quotient of seeded maps and their perturbed copies both must return
the same class images or raise NotConstantOnClasses with the same message.

reconstruct_ftpg reads the frame coordinates off the RREF of the
exceptional flat's span, where ref_reconstruct_ftpg inverts the frame plus
that span's basis.  On seeded maps whose exceptional flats have every rank
from 0 to 3, both must return the same map.

reconstruct_ftpg takes its frame points and the projection modulo the
exceptional flat E from a plan kept on the source geometry per E, where
ref_per_call_frame_ftpg builds them on every call.  On seeded maps of rank
4, 3 and 2, interleaved on the same PG(3,3) and PG(3,4) objects, on copies
with the same kernel, on perturbed copies and on maps folded onto the
planes through a kernel line, both must return the same map or raise the
same class with the same message; the plans' keys are flats, no more of
them than the source has.

The two-point drivers build the global matrices of their legs once, read
the common scalar off the reductions and lift the scaled first matrix,
where ref_two_point runs the public normalize_pair and glue_fibred_product,
each building the matrices.  On seeded maps restricted to the lp and lap
settings, and on perturbed copies of them, both must return an equal
ReconstructionResult or raise the same class with the same message.  On the
lp settings, a returned map must induce the input image at every point of
X, and a failure must not be an InternalContradiction.
"""

import json
import random
from collections import Counter

import pytest

from fingeo import linalg, reconstruct
from fingeo.errors import (
    FingeoError,
    InconsistentExtension,
    InternalContradiction,
    NotConstantOnClasses,
    VerificationFailed,
    ZeroMap,
)
from fingeo.geometry import QuotientGeometry, TableGeometry, check_geometry_axioms, subgeometry
from fingeo.gf import gf, list_homomorphisms
from fingeo.projective import LinearSubspace, SemilinearMap, build_pg, check_projective_axioms, quotient_coords
from fingeo.reconstruct import (
    MorphismInstance,
    PartialPointMap,
    ReconstructionResult,
    reconstruct_affino_projective,
    reconstruct_ftpg,
    reconstruct_locally_affino,
    reconstruct_locally_projective,
)
from quotient_routes import (
    RefQuotientGeometry,
    ref_class_images,
    ref_extend_affino,
    ref_extend_unchecked,
    ref_per_call_frame_ftpg,
    ref_reconstruct_ftpg,
    ref_two_point,
)

# (n, q, q'): maps PG(n, q) -> PG(n, q'), four settings with a non-surjective sigma
FTPG_SETTINGS = (
    (3, 2, 2),
    (3, 3, 3),
    (3, 4, 4),
    (3, 2, 4),
    (3, 3, 9),
    (2, 4, 16),
    (2, 5, 5),
    (2, 2, 2),
    (2, 3, 3),
    (2, 2, 8),
)
MAPS_PER_SETTING = 40


def outcome(fn, psi):
    """The canonical map as (sigma table, matrix), or the error class."""
    try:
        phi = fn(psi)
    except FingeoError as exc:
        return type(exc)
    return phi.sigma.table, phi.matrix


def seeded_maps(n, q, q2):
    """Point maps of seeded semilinear maps K^(n+1) -> K'^(n+1) of rank at
    least 2, each followed by six perturbed copies: two with two images
    swapped, two with one image replaced and two with one knocked out."""
    K, K2 = gf(q), gf(q2)
    P = build_pg(n, q)
    homs = list_homomorphisms(K, K2)
    rng = random.Random(f"ftpg {n} {q} {q2}")
    for _ in range(MAPS_PER_SETTING):
        while True:
            M = [[rng.randrange(q2) for _ in range(n + 1)] for _ in range(n + 1)]
            if linalg.rank(K2, M) >= 2:
                break
        phi = SemilinearMap(rng.choice(homs), M)
        images = [linalg.normalize_vec(K2, phi.apply_vec(v)) for v in P.vectors]
        yield False, PartialPointMap(P, K2, n, tuple(images))
        for kind in ("swap", "swap", "replace", "replace", "knock", "knock"):
            while True:
                bad = list(images)
                i, j = rng.sample(range(P.n_points), 2)
                if kind == "swap":
                    bad[i], bad[j] = bad[j], bad[i]
                elif kind == "replace":
                    bad[i] = linalg.normalize_vec(K2, [rng.randrange(q2) for _ in range(n + 1)])
                else:
                    bad[i] = None
                if bad != images:
                    break
            yield True, PartialPointMap(P, K2, n, tuple(bad))


@pytest.mark.parametrize("setting", FTPG_SETTINGS, ids=lambda s: "pg(%d,%d)->%d" % s)
def test_frame_chain_matches_unit_point_route(setting):
    maps = 0
    for perturbed, psi in seeded_maps(*setting):
        got, ref = outcome(reconstruct_ftpg, psi), outcome(ref_reconstruct_ftpg, psi)
        assert InternalContradiction not in (got, ref)
        assert isinstance(got, tuple) == isinstance(ref, tuple)
        if isinstance(got, tuple):
            assert not perturbed
            assert got == ref
            maps += 1
    assert maps > 0


def pg32_table():
    return TableGeometry(15, build_pg(3, 2).flats())


def quotient_tables():
    """The 28 parent tables: seven small ones, PG(3,2) without each of its
    15 planes, and six random 9-point subgeometries of PG(3,2)'s table."""
    pg32 = build_pg(3, 2)
    tables = {
        "triangle": TableGeometry(3, [0, 1, 2, 4, 3, 5, 6, 7]),
        "shared-pair": TableGeometry(4, [0, 0b0011, 0b0111, 0b1011, 0b1111]),
        "pair-off-plane": TableGeometry(5, [0, 0b00011, 0b00111, 0b01011, 0b10111, 0b11111]),
        "broken-exchange": TableGeometry(4, [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1111]),
        "pg32": pg32_table(),
        "pg23": TableGeometry(13, build_pg(2, 3).flats()),
        "paired": TableGeometry(6, [0, 0b111111] + [a | b for a in (3, 12, 48) for b in (3, 12, 48)]),
    }
    for index, plane in enumerate(pg32.planes()):
        tables[f"pg32-minus-{index}"] = TableGeometry(15, [m for m in pg32.flats() if m != plane])
    rng = random.Random(9)
    for seed in range(6):
        tables[f"sub-{seed}"] = subgeometry(pg32_table(), rng.sample(range(15), 9))
    return tables


def report(G):
    """Everything the two quotient routes must agree on."""
    rng = random.Random(G.n_points)
    masks = [0, G.full_mask] + [rng.getrandbits(G.n_points) for _ in range(40)]
    try:
        projective = check_projective_axioms(G).as_dict()
    except FingeoError as exc:
        projective = type(exc).__name__
    return json.dumps(
        {
            "flats": G.flats(),
            "dims": [G.flat_dim(m) for m in G.flats()],
            "closures": [G.closure_mask(m) for m in masks],
            "axioms": check_geometry_axioms(G).as_dict(),
            "projective": projective,
            "label": G.label(),
            "lines_through": [G.lines_through(x) for x in range(G.n_points)],
        }
    )


def test_table_quotients_match_parent_closure_route():
    quotients = 0
    for name, T in quotient_tables().items():
        for e_mask in T.flats():
            if e_mask.bit_count() > 3:
                continue
            Q, ref = QuotientGeometry(T, e_mask), RefQuotientGeometry(T, e_mask)
            assert isinstance(Q, TableGeometry)
            assert (Q.classes, Q.reps) == (ref.classes, ref.reps)
            assert report(Q) == report(ref), (name, e_mask)
            quotients += 1
    assert quotients == 1064


# (fixture, target field order, driver, seeded maps)
EXTENSION_SETTINGS = (
    ("ag33", 3, reconstruct_affino_projective, 6),
    ("ag33", 9, reconstruct_affino_projective, 4),
    ("ag34", 4, reconstruct_affino_projective, 3),
    ("elliptic_33", 3, reconstruct_locally_affino, 10),
    ("cone_33", 3, reconstruct_locally_affino, 10),
    ("elliptic_34", 4, reconstruct_locally_affino, 8),
    ("hyperbolic_34", 4, reconstruct_locally_affino, 8),
)


def seeded_instances(X, q2, count):
    """Restrictions to X of seeded semilinear maps K^4 -> K'^4 of rank 3
    or 4 whose kernel misses X, each followed by six perturbed copies:
    three with two images swapped and three with one image replaced."""
    K2 = gf(q2)
    homs = list_homomorphisms(X.field, K2)
    targets = linalg.all_proj_points(K2, 4)
    rng = random.Random(f"extension {X.label()} {q2}")
    made = 0
    while made < count:
        M = [[rng.randrange(q2) for _ in range(4)] for _ in range(4)]
        if linalg.rank(K2, M) < 3:
            continue
        try:
            inst = MorphismInstance.restrict_semilinear(SemilinearMap(rng.choice(homs), M), X)
        except ZeroMap:
            continue
        made += 1
        yield inst
        for kind in ("swap",) * 3 + ("replace",) * 3:
            while True:
                bad = list(inst.images)
                i, j = rng.sample(range(X.n_points), 2)
                if kind == "swap":
                    bad[i], bad[j] = bad[j], bad[i]
                else:
                    bad[i] = rng.choice(targets)
                if bad != list(inst.images):
                    break
            yield MorphismInstance(X, K2, 3, tuple(bad))


def driver_outcome(driver, inst):
    """The map, sigma and certificate of a reconstruction, or the error class."""
    try:
        result = driver(inst)
    except FingeoError as exc:
        return type(exc)
    return result.phi.sigma.table, result.phi.matrix, json.dumps(result.certificate)


@pytest.mark.parametrize("fixture, q2, driver, count", EXTENSION_SETTINGS,
                         ids=lambda v: str(getattr(v, "__name__", v)))
def test_extension_decided_by_the_base_engine(fixture, q2, driver, count, request, monkeypatch):
    X = request.getfixturevalue(fixture)
    maps = 0
    for inst in seeded_instances(X, q2, count):
        got = driver_outcome(driver, inst)
        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "extend_affino", ref_extend_affino)
            ref = driver_outcome(driver, inst)
        assert InternalContradiction not in (got, ref)
        assert isinstance(got, tuple) == isinstance(ref, tuple), (got, ref)
        if isinstance(got, tuple):
            assert got == ref
            maps += 1
    assert maps > 0


# (fixture, target field order, driver, seeded maps)
RESIDUE_SETTINGS = (
    ("ag33", 3, reconstruct_affino_projective, 6),
    ("ag34", 4, reconstruct_affino_projective, 3),
    ("elliptic_33", 3, reconstruct_locally_affino, 4),
    ("cone_33", 3, reconstruct_locally_affino, 4),
    ("elliptic_34", 4, reconstruct_locally_affino, 3),
    ("cone_34", 4, reconstruct_locally_affino, 3),
)


def extension_outcome(extend, inst):
    """The extended partial point map, or the error class and message."""
    try:
        return extend(inst)
    except FingeoError as exc:
        return type(exc), str(exc)


def test_extension_matches_stacked_kernel_route(request, monkeypatch):
    library = reconstruct.extend_affino
    seen = Counter()

    def compared(inst):
        got = extension_outcome(library, inst)
        assert got == extension_outcome(ref_extend_unchecked, inst)
        seen[got[0] if isinstance(got, tuple) else PartialPointMap] += 1
        return library(inst)

    monkeypatch.setattr(reconstruct, "extend_affino", compared)
    ranks = Counter()
    for fixture, q2, driver, count in RESIDUE_SETTINGS:
        X = request.getfixturevalue(fixture)
        for inst in seeded_instances(X, q2, count):
            ranks[linalg.rank(inst.target_field, inst.images)] += 1
            driver_outcome(driver, inst)
    assert ranks[3] and ranks[4]
    assert seen[PartialPointMap] and seen[InconsistentExtension], seen


@pytest.mark.parametrize("fixture", ["ag33", "ag34"])
def test_one_point_membership_matches_stacked_kernel_route(fixture, request, monkeypatch):
    """Full-rank maps with one to eight images replaced: once a point's span
    is one point, a further line whose images span two or three dimensions
    must reject it exactly where the stacked kernel route's intersection
    comes out empty.  The rejections are counted at span_meet on a one-row
    basis, by the rank of the line's images."""
    X = request.getfixturevalue(fixture)
    K = X.field
    homs = list_homomorphisms(K, K)
    targets = linalg.all_proj_points(K, 4)
    rng = random.Random(f"membership {X.label()}")
    rejected = Counter()
    library_span_meet = linalg.span_meet

    def span_meet(field, rows, basis):
        found = library_span_meet(field, rows, basis)
        if len(basis) == 1 and not found:
            rejected[linalg.rank(field, rows)] += 1
        return found

    monkeypatch.setattr(linalg, "span_meet", span_meet)
    for t in range(48):
        M = [[rng.randrange(K.q) for _ in range(4)] for _ in range(4)]
        if linalg.rank(K, M) < 4:
            continue
        images = list(MorphismInstance.restrict_semilinear(SemilinearMap(rng.choice(homs), M), X).images)
        for _ in range(1 + t % 8):
            images[rng.randrange(X.n_points)] = rng.choice(targets)
        inst = MorphismInstance(X, K, 3, tuple(images))
        assert extension_outcome(reconstruct.extend_affino, inst) == extension_outcome(ref_extend_unchecked, inst)
    assert rejected[2] + rejected[3], rejected


# (fixture, target field order, driver, seeded maps)
TWO_POINT_SETTINGS = (
    ("ag33", 3, reconstruct_locally_projective, 4),
    ("two_hyperplanes_33", 3, reconstruct_locally_projective, 4),
    ("ag32", 4, reconstruct_locally_projective, 4),
    ("elliptic_33", 3, reconstruct_locally_affino, 4),
    ("elliptic_34", 4, reconstruct_locally_affino, 3),
    ("cone_34", 4, reconstruct_locally_affino, 3),
)


def reconstruction_outcome(driver, inst):
    """The ReconstructionResult, or the error class and message."""
    try:
        return driver(inst)
    except FingeoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fixture, q2, driver, count", TWO_POINT_SETTINGS,
                         ids=lambda v: str(getattr(v, "__name__", v)))
def test_two_point_glue_matches_normalize_then_glue(fixture, q2, driver, count, request, monkeypatch):
    X = request.getfixturevalue(fixture)
    seen = Counter()
    for inst in seeded_instances(X, q2, count):
        got = reconstruction_outcome(driver, inst)
        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "_two_point", ref_two_point)
            ref = reconstruction_outcome(driver, inst)
        assert got == ref
        seen[got[0] if isinstance(got, tuple) else ReconstructionResult] += 1
    assert seen[ReconstructionResult] and len(seen) > 1, seen


LP_SETTINGS = [s for s in TWO_POINT_SETTINGS if s[2] is reconstruct_locally_projective]


@pytest.mark.parametrize("fixture, q2, driver, count", LP_SETTINGS,
                         ids=lambda v: str(getattr(v, "__name__", v)))
def test_lp_driver_on_perturbed_inputs(fixture, q2, driver, count, request):
    X = request.getfixturevalue(fixture)
    K2 = gf(q2)
    outcomes = Counter()
    for inst in seeded_instances(X, q2, 2 * count):
        try:
            result = driver(inst)
        except FingeoError as exc:
            assert not isinstance(exc, InternalContradiction), exc
            outcomes[type(exc)] += 1
            continue
        induced = tuple(linalg.normalize_vec(K2, result.phi.apply_vec(v)) for v in X.vectors)
        assert induced == inst.images
        outcomes[ReconstructionResult] += 1
    assert outcomes[ReconstructionResult] and len(outcomes) > 1, outcomes


# (fixture, target field order, seeded maps)
CLASS_IMAGE_SETTINGS = (
    ("ag33", 3, 2),
    ("ag33", 9, 1),
    ("two_hyperplanes_33", 3, 2),
    ("elliptic_34", 4, 2),
    ("cone_34", 4, 2),
)


def class_images_outcome(fn, inst, Q, xi, qcp):
    """The class images, or the error class and message."""
    try:
        return fn(inst, Q, xi, qcp)
    except FingeoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fixture, q2, count", CLASS_IMAGE_SETTINGS, ids=lambda v: str(v))
def test_class_images_match_the_point_route(fixture, q2, count, request):
    """_class_images projects every point in one sweep, where
    ref_class_images projects each class's points one at a time: at every
    point quotient of seeded maps and their perturbed copies both return the
    same images or raise NotConstantOnClasses with the same message, which
    a perturbed copy meets wherever a class has two points."""
    X = request.getfixturevalue(fixture)
    K2 = gf(q2)
    seen = Counter()
    pairs = any(m & (m - 1) for xi in range(X.n_points) for m in X.point_quotient(xi).classes)
    for inst in seeded_instances(X, q2, count):
        for xi in range(X.n_points):
            Q = X.point_quotient(xi)
            qcp = quotient_coords(LinearSubspace.from_vectors(K2, 4, [inst.images[xi]]))
            got = class_images_outcome(reconstruct._class_images, inst, Q, xi, qcp)
            assert got == class_images_outcome(ref_class_images, inst, Q, xi, qcp)
            seen[got[0] if isinstance(got[0], type) else "images"] += 1
    assert set(seen) == ({"images", NotConstantOnClasses} if pairs else {"images"}), seen


# (n1, q, q', rank): maps K^n1 -> K'^4 of the given rank; the kernel meets
# K^n1 in the exceptional flat
EXCEPTIONAL_SETTINGS = (
    (4, 2, 2, 4),
    (4, 3, 3, 3),
    (4, 2, 4, 3),
    (5, 2, 2, 4),
    (5, 3, 3, 3),
    (5, 4, 4, 4),
    (6, 2, 2, 3),
    (6, 2, 4, 4),
)


def test_frame_coordinates_match_the_inverse_route():
    """reconstruct_ftpg reads the frame coordinates off the RREF of the
    exceptional flat's span, where ref_reconstruct_ftpg inverts the frame
    plus that span's basis: on seeded maps with an exceptional flat of
    every rank from 0 to 3 both return the same map."""
    ranks = Counter()
    for n1, q, q2, r in EXCEPTIONAL_SETTINGS:
        K, K2 = gf(q), gf(q2)
        P = build_pg(n1 - 1, q)
        homs = list_homomorphisms(K, K2)
        rng = random.Random(f"exceptional {n1} {q} {q2} {r}")
        for _ in range(4):
            while True:
                left = [[rng.randrange(q2) for _ in range(r)] for _ in range(4)]
                right = [[rng.randrange(q2) for _ in range(n1)] for _ in range(r)]
                M = linalg.mat_mul(K2, left, right)
                if linalg.rank(K2, M) == r:
                    break
            phi = SemilinearMap(rng.choice(homs), M)
            psi = PartialPointMap(P, K2, 3, tuple(linalg.normalize_vec(K2, phi.apply_vec(v)) for v in P.vectors))
            got = outcome(reconstruct_ftpg, psi)
            assert isinstance(got, tuple) and got == outcome(ref_reconstruct_ftpg, psi)
            ranks[len(P.span_rows(psi.undefined_mask())[0])] += 1
    assert set(ranks) == {0, 1, 2, 3}, ranks


def ranked_generator(rng, K, K2, r):
    """A seeded semilinear map K^4 -> K2^4 of rank exactly r."""
    while True:
        A = [[rng.randrange(K2.q) for _ in range(r)] for _ in range(4)]
        B = [[rng.randrange(K2.q) for _ in range(4)] for _ in range(r)]
        M = linalg.mat_mul(K2, A, B)
        if linalg.rank(K2, M) == r:
            return SemilinearMap(rng.choice(list_homomorphisms(K, K2)), M)


def frame_plan_inputs(P, K2, rng):
    """For a seeded generator of rank 4, then 3, then 2: its point map on P,
    one with the same kernel (the generator after a random invertible map),
    one with two images swapped, one with an image replaced, and for rank 2
    the map folded onto the planes through its kernel line: each class goes
    to its own point of the conic (1, t, t^2, 0), plus (0, 0, 1, 0)."""
    conic = [(1, t, K2.mul(t, t), 0) for t in range(K2.q)] + [(0, 0, 1, 0)]
    points = linalg.all_proj_points(K2, 4)
    for r in (4, 3, 2):
        gen = ranked_generator(rng, P.field, K2, r)
        images = [linalg.normalize_vec(K2, gen.apply_vec(v)) for v in P.vectors]
        yield images
        A = ranked_generator(rng, K2, K2, 4)
        yield [linalg.normalize_vec(K2, A.apply_vec(y)) if y else None for y in images]
        i, j = rng.sample([x for x, y in enumerate(images) if y], 2)
        swapped = list(images)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield swapped
        replaced = list(images)
        replaced[i] = rng.choice(points)
        yield replaced
        if r == 2:
            fold = {}
            yield [y and conic[fold.setdefault(y, len(fold))] for y in images]


def test_frame_plans_match_the_per_call_frame():
    rng = random.Random("frame plans")
    settings = [(build_pg(3, 3), gf(3)), (build_pg(3, 4), gf(4)), (build_pg(3, 3), gf(9)), (build_pg(3, 4), gf(16))]
    outcomes = Counter()
    for _ in range(4):
        for P, K2 in settings:
            for images in frame_plan_inputs(P, K2, rng):
                psi = PartialPointMap(P, K2, 3, tuple(images))
                got, ref = [outcome_with_message(fn, psi) for fn in (reconstruct_ftpg, ref_per_call_frame_ftpg)]
                assert got == ref
                outcomes["map" if isinstance(got, SemilinearMap) else got] += 1
    assert outcomes["map"] > 0
    assert (VerificationFailed, "exceptional flat too large for the image span") in outcomes
    assert {type(k) for k in outcomes} == {str, tuple} and len(outcomes) > 3
    for P in (build_pg(3, 3), build_pg(3, 4)):
        keys = [key[1] for key in P._plans if key[0] is reconstruct._frame_plan]
        assert all(P.closure_mask(E) == E for E in keys)
        assert {E.bit_count() for E in keys} >= {0, 1, P.field.q + 1}
        assert len(keys) <= len(P.flats())


def outcome_with_message(fn, psi):
    """The canonical map, or the error class and message."""
    try:
        return fn(psi)
    except FingeoError as exc:
        return type(exc), str(exc)

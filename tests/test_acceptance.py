"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from fingeo import linalg
from fingeo.classify import (
    check_line_condition,
    is_locally_affino_projective,
    is_locally_projective,
    is_mobius,
    is_ovoid,
)
from fingeo.errors import FieldClauseViolated
from fingeo.geometry import bits_of, check_geometry_axioms, subgeometry
from fingeo.gf import gf, identity_hom, list_homomorphisms
from fingeo.projective import (
    SemilinearMap,
    build_pg,
    check_projective_axioms,
    proportional,
)
from fingeo.reconstruct import (
    MorphismInstance,
    PartialPointMap,
    brute_force_oracle,
    certify_side_conditions,
    reconstruct_ftpg,
    reconstruct_locally_affino,
    reconstruct_locally_projective,
)
from fingeo.serialize import save_map_pairs
from quotient_routes import (
    fibred_product_identity,
    identity_matrix,
    ref_quotient_affino,
    ref_quotient_projective,
)


def _announce(k, detail, t0):
    print(f"criterion {k}: PASS - {detail} [{time.time() - t0:.2f}s]")


def random_semilinear(rng, K, K2, min_rank, homs=None):
    homs = homs or list_homomorphisms(K, K2)
    while True:
        M = tuple(tuple(rng.randrange(K2.q) for _ in range(4)) for _ in range(4))
        if linalg.rank(K2, M) >= min_rank:
            return SemilinearMap(homs[rng.randrange(len(homs))], M)


def induced_point_map(phi, src):
    images = tuple(
        linalg.normalize_vec(phi.target_field, phi.apply_vec(v)) for v in src.vectors
    )
    return PartialPointMap(src, phi.target_field, phi.n_out - 1, images)


def test_criterion_1_axiom_suite():
    t0 = time.time()
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]:
        P = build_pg(n, q)
        assert P.n_points == (q ** (n + 1) - 1) // (q - 1)
        g = check_geometry_axioms(P)
        assert g.g1 and g.g2 and g.g3, (n, q, g.witnesses)
        p = check_projective_axioms(P)
        assert p.p1 and p.p2 and p.p3 and p.dim_formula, (n, q, p.witnesses)
    # independent oracle for PG(3,2): XOR arithmetic on nonzero 4-bit ints
    P = build_pg(3, 2)
    ints = [v[0] * 8 + v[1] * 4 + v[2] * 2 + v[3] for v in P.vectors]
    lines = {frozenset((a, b, a ^ b)) for a, b in itertools.combinations(ints, 2)}
    planes = {
        frozenset((a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c))
        for a, b, c in itertools.combinations(ints, 3)
        if c != a ^ b
    }
    assert len(lines) == 35 == len(P.lines())
    assert len(planes) == 15 == len(P.planes())
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    _announce(1, "5 spaces, counts and 35/15 oracle", t0)


FTPG_CONFIGS = [
    (3, 2, 2),
    (3, 3, 3),
    (3, 4, 4),
    (3, 2, 4),
    (3, 4, 16),  # both embeddings of gf(4) into gf(16)
]


def test_criterion_2_ftpg_round_trip():
    t0 = time.time()
    total = 0
    for n, qa, qb in FTPG_CONFIGS:
        rng = random.Random(9000 + qa * 100 + qb)
        K, K2 = gf(qa), gf(qb)
        homs = list_homomorphisms(K, K2)
        src = build_pg(n, qa)
        sigmas_seen = set()
        for trial in range(100):
            gen = random_semilinear(rng, K, K2, min_rank=3, homs=homs)
            sigmas_seen.add(gen.sigma.table)
            got = reconstruct_ftpg(induced_point_map(gen, src))
            assert proportional(got, gen.canonical()) == 1, (n, qa, qb, trial)
            total += 1
        assert len(sigmas_seen) == len(homs), "not every homomorphism exercised"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"round trips took {elapsed:.1f}s"
    _announce(2, f"{total} reconstructions across {len(FTPG_CONFIGS)} configurations", t0)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(333)
    K = gf(2)
    P = build_pg(3, 2)
    for trial in range(20):
        gen = random_semilinear(rng, K, K, min_rank=3)
        ker = gen.kernel()
        dom = [i for i, v in enumerate(P.vectors) if not ker.contains(v)]
        X = P if len(dom) == P.n_points else subgeometry(P, dom)
        inst = MorphismInstance.restrict_semilinear(gen, X)
        got = reconstruct_ftpg(induced_point_map(gen, P))
        maps = brute_force_oracle(inst)  # 65536 matrices
        assert len(maps) == 1, trial
        assert maps[0].matrix == got.matrix and maps[0].sigma.table == got.sigma.table
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _announce(3, "20 instances, 65536 matrices each, unique scalar class", t0)


def test_criterion_4_locally_projective_round_trip(
    ag33, ag34, two_plane_complement_34, two_hyperplanes_33, subfield_complement_34
):
    t0 = time.time()
    cases = [
        (ag33, 3),
        (ag34, 4),
        (two_plane_complement_34, 4),
        (two_hyperplanes_33, 3),
        (subfield_complement_34, 4),
    ]
    runs = 0
    for X, q in cases:
        rng = random.Random(4000 + q * 7 + X.n_points)
        K = gf(q)
        for trial in range(25):
            gen = random_semilinear(rng, K, K, min_rank=4)
            inst = MorphismInstance.restrict_semilinear(gen, X)
            res = reconstruct_locally_projective(inst)
            assert proportional(res.phi, gen.canonical()) == 1, (X.label(), trial)
            again = reconstruct_locally_projective(inst, pair_rank=1)
            assert again.base_points != res.base_points
            assert proportional(again.phi, res.phi) is not None, (X.label(), trial)
            runs += 1
    _announce(4, f"{runs} generators over 5 geometries, uniqueness re-run included", t0)


def test_criterion_5_locally_affino_round_trip(
    elliptic_33, elliptic_34, hyperbolic_34, cone_33, cone_34, pg32
):
    t0 = time.time()
    cases = [
        (elliptic_33, 3, 3),
        (elliptic_34, 4, 4),
        (hyperbolic_34, 4, 4),
        (cone_33, 3, 3),
        (cone_34, 4, 4),
    ]
    runs = 0
    for X, q, q2 in cases:
        rng = random.Random(5000 + q * 13 + X.n_points)
        K, K2 = gf(q), gf(q2)
        for trial in range(25):
            gen = random_semilinear(rng, K, K2, min_rank=4)
            inst = MorphismInstance.restrict_semilinear(
                gen, X, kind="locally-affino-projective"
            )
            res = reconstruct_locally_affino(inst)
            assert proportional(res.phi, gen.canonical()) == 1, (X.label(), trial)
            runs += 1
    # gf(3) -> gf(9) is admissible through the characteristic clause
    rng = random.Random(5900)
    for trial in range(25):
        gen = random_semilinear(rng, gf(3), gf(9), min_rank=4)
        inst = MorphismInstance.restrict_semilinear(
            gen, elliptic_33, kind="locally-affino-projective"
        )
        res = reconstruct_locally_affino(inst)
        assert proportional(res.phi, gen.canonical()) == 1, trial
        runs += 1
    # gf(2) quadrics must refuse with the field clause
    from fingeo.gallery import make_quadric

    refused = 0
    for form in ("elliptic", "hyperbolic", "cone"):
        X = make_quadric(pg32, form)
        gen = SemilinearMap(identity_hom(gf(2)), identity_matrix(4))
        inst = MorphismInstance.restrict_semilinear(
            gen, X, kind="locally-affino-projective"
        )
        with pytest.raises(FieldClauseViolated):
            reconstruct_locally_affino(inst)
        refused += 1
    _announce(5, f"{runs} admissible recoveries, {refused} gf(2) refusals", t0)


def test_criterion_6_classifier_coherence(
    ag33,
    ag34,
    two_hyperplanes_33,
    two_plane_complement_34,
    subfield_complement_34,
    elliptic_33,
    elliptic_34,
    hyperbolic_32,
    hyperbolic_34,
    cone_33,
    cone_34,
    pg33,
):
    t0 = time.time()
    complement_plane_33 = subgeometry(
        pg33, sorted(bits_of(pg33.full_mask & ~pg33.planes()[0]))
    )
    gallery = [
        ag33,
        ag34,
        two_hyperplanes_33,
        two_plane_complement_34,
        subfield_complement_34,
        elliptic_33,
        elliptic_34,
        hyperbolic_32,
        hyperbolic_34,
        cone_33,
        cone_34,
        complement_plane_33,
    ]
    checked = 0
    for X in gallery:
        # the local dimension formula fails at exactly the points whose
        # quotient geometry fails the projective axioms
        lp = is_locally_projective(X)
        bad = [x for x in range(X.n_points) if not ref_quotient_projective(X, x)]
        assert [w["point"] for w in lp.witnesses] == bad, X.label()
        if check_line_condition(X):
            assert lp, X.label()
        checked += 1
    for X in (elliptic_33, elliptic_34, hyperbolic_32, hyperbolic_34, cone_33, cone_34):
        assert is_locally_affino_projective(X), X.label()
        assert all(ref_quotient_affino(X, x) for x in range(X.n_points)), X.label()
    for X in (elliptic_33, elliptic_34):
        assert is_mobius(X) and is_ovoid(X), X.label()
    for X in (hyperbolic_32, hyperbolic_34):
        assert is_mobius(X).verdict is False
        assert is_ovoid(X).verdict is False
        assert is_locally_affino_projective(X)
    _announce(6, f"{checked} gallery geometries coherent", t0)


def test_criterion_7_fibred_product_identity():
    t0 = time.time()
    for q in (2, 3):
        K = gf(q)
        rng = random.Random(700 + q)
        done = 0
        while done < 10:
            v1 = tuple(rng.randrange(q) for _ in range(4))
            v2 = tuple(rng.randrange(q) for _ in range(4))
            if linalg.rank(K, (v1, v2)) != 2:
                continue
            assert fibred_product_identity(K, v1, v2)
            done += 1
    _announce(7, "full enumeration over gf(2)^4 and gf(3)^4, 10 pairs each", t0)


def test_criterion_8_side_condition_certification(
    ag33, two_hyperplanes_33, elliptic_33
):
    t0 = time.time()
    rng = random.Random(888)
    # injective round-trip fixtures across both drivers
    for X, kind, driver in [
        (ag33, "locally-projective", reconstruct_locally_projective),
        (two_hyperplanes_33, "locally-projective", reconstruct_locally_projective),
        (elliptic_33, "locally-affino-projective", reconstruct_locally_affino),
    ]:
        for _ in range(5):
            gen = random_semilinear(rng, gf(3), gf(3), min_rank=4)
            inst = MorphismInstance.restrict_semilinear(gen, X, kind=kind)
            res = driver(inst)
            rep = certify_side_conditions(res, inst)
            assert rep["injective"] and rep["kernel_zero"] is True
            assert rep["embedding_input"] and rep["extension_embedding"]
    # a non-injective fixture: rank-4 generator on the affine part of PG(4,2)
    P = build_pg(4, 2)
    hyper = P.hyperplanes()[0]
    X = subgeometry(P, sorted(bits_of(P.full_mask & ~hyper)))
    M = (
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
    )
    gen = SemilinearMap(identity_hom(gf(2)), M)
    inst = MorphismInstance.restrict_semilinear(gen, X)
    assert len(set(inst.images)) < X.n_points
    res = reconstruct_locally_projective(inst)
    rep = certify_side_conditions(res, inst)
    assert rep["injective"] is False and "kernel_zero" not in rep
    assert res.exceptional.rank == 1
    _announce(8, "kernel and embedding certificates on 16 fixtures", t0)


def _strip_timing(text):
    data = json.loads(text)
    data.pop("elapsed_s", None)
    return json.dumps(data, sort_keys=True)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "fingeo", *args], capture_output=True, text=True
        )
        return proc

    geo = tmp_path / "eq.json"
    cli("make-example", "--name", "elliptic-quadric", "--field", "gf(3)", "--out", str(geo))
    # classification and check reports
    for argv in (
        ["classify", "--geometry", str(geo), "--witnesses"],
        ["check", "--axioms", "g", "--geometry", str(geo), "--witnesses"],
    ):
        a, b = cli(*argv), cli(*argv)
        assert a.returncode == b.returncode
        assert _strip_timing(a.stdout) == _strip_timing(b.stdout)
    # reconstruction report
    K = gf(3)
    gen = SemilinearMap(
        identity_hom(K), ((1, 0, 2, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1))
    )
    ag = tmp_path / "ag.json"
    cli("make-example", "--name", "affine", "--field", "gf(3)", "--dim", "3", "--out", str(ag))
    from fingeo.serialize import load_geometry

    G = load_geometry(ag)
    pairs = [(v, linalg.normalize_vec(K, gen.apply_vec(v))) for v in G.vectors]
    mapfile = tmp_path / "phi.json"
    save_map_pairs(pairs, mapfile)
    argv = ["reconstruct", "--geometry", str(ag), "--map", str(mapfile), "--kind", "lp"]
    a, b = cli(*argv), cli(*argv)
    assert _strip_timing(a.stdout) == _strip_timing(b.stdout)
    # library-level determinism of a full driver run
    inst = MorphismInstance.restrict_semilinear(gen, load_geometry(ag))
    r1 = reconstruct_locally_projective(inst)
    r2 = reconstruct_locally_projective(inst)
    assert r1.phi.matrix == r2.phi.matrix and r1.certificate == r2.certificate
    _announce(9, "byte-identical reports modulo timing", t0)

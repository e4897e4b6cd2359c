"""The exhaustive oracle against the route it replaces, and the base engine
against the oracle.

brute_force_oracle searches the matrices row by row, where
ref_brute_force_oracle in quotient_routes tries every matrix in turn.  On
seeded instances (maps of full and of deficient rank, Frobenius twists over
GF(4), maps from GF(2) into GF(4), perturbed copies of them and one point
of PG(2,2) with its 64 matches) both must return the same maps in the same
order, and both must refuse the same candidate count with the same message.

By the fundamental theorem a semilinear map of full rank from PG(n, q) into
a space over q' is the one scalar class of maps inducing its point map, so
the oracle finds exactly it and reconstruct_ftpg must return it.  When a
perturbed image leaves the oracle with no match, the engine must fail with
a typed error other than InternalContradiction.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingeo import linalg
from fingeo.errors import CapExceeded, FingeoError, InternalContradiction
from fingeo.geometry import subgeometry
from fingeo.gf import gf, list_homomorphisms
from fingeo.projective import SemilinearMap, build_pg
from fingeo.reconstruct import MorphismInstance, PartialPointMap, brute_force_oracle, reconstruct_ftpg
from quotient_routes import ref_brute_force_oracle

# name -> (n, q, q', target rows, rank, Frobenius power of sigma or None for
# any): a seeded map K^(n+1) -> K'^rows restricted to the points of PG(n, q)
# off its kernel
MAPS = {
    "pg22-full": (2, 2, 2, 3, 3, None),
    "pg22-rank2": (2, 2, 2, 3, 2, None),
    "pg23-full": (2, 3, 3, 3, 3, None),
    "pg23-rank2": (2, 3, 3, 3, 2, None),
    "pg32-full": (3, 2, 2, 4, 4, None),
    "pg32-rank3": (3, 2, 2, 4, 3, None),
    "pg14-twist": (1, 4, 4, 2, 2, 1),
    "pg14-twist-3rows": (1, 4, 4, 3, 2, 1),
    "pg22-into-gf4": (2, 2, 4, 3, 3, None),
    "pg12-into-gf4": (1, 2, 4, 3, 2, None),
}


def seeded_map(rng, K, K2, n1, m1, rank, power):
    homs = [s for s in list_homomorphisms(K, K2) if power in (None, s.frobenius_power)]
    while True:
        M = tuple(tuple(rng.randrange(K2.q) for _ in range(n1)) for _ in range(m1))
        if linalg.rank(K2, M) == rank:
            return SemilinearMap(homs[rng.randrange(len(homs))], M)


def restricted(phi, P):
    """The induced map of phi on the points of P off its kernel."""
    ker = phi.kernel()
    dom = [i for i, v in enumerate(P.vectors) if not ker.contains(v)]
    X = P if len(dom) == P.n_points else subgeometry(P, dom)
    return MorphismInstance.restrict_semilinear(phi, X)


def perturbed(rng, inst):
    """The instance with one image moved to another point."""
    K2, m1 = inst.target_field, inst.target_dim + 1
    images = list(inst.images)
    t = rng.randrange(len(images))
    others = [v for v in linalg.all_proj_points(K2, m1) if v != images[t]]
    images[t] = others[rng.randrange(len(others))]
    return MorphismInstance(inst.geometry, K2, inst.target_dim, tuple(images))


def instance(case):
    name, _, kind = case.partition("/")
    n, q, q2, m1, rank, power = MAPS[name]
    rng = random.Random(case)
    inst = restricted(seeded_map(rng, gf(q), gf(q2), n + 1, m1, rank, power), build_pg(n, q))
    return perturbed(rng, inst) if kind else inst


CASES = list(MAPS) + [f"{name}/perturbed" for name in MAPS]


def matches(maps):
    return [(phi.sigma.table, phi.matrix) for phi in maps]


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_reference(case):
    inst = instance(case)
    want = matches(ref_brute_force_oracle(inst))
    assert matches(brute_force_oracle(inst)) == want
    assert bool(want) is ("/" not in case)


def test_one_point_has_64_matches():
    """A point of PG(2,2) into GF(2)^3: each of the three rows is any of
    the four with the right value at the point."""
    inst = MorphismInstance(subgeometry(build_pg(2, 2), [0]), gf(2), 2, ((0, 1, 1),))
    want = matches(ref_brute_force_oracle(inst))
    assert len(want) == 64
    assert matches(brute_force_oracle(inst)) == want


def test_twist_cases_use_frobenius():
    maps = brute_force_oracle(instance("pg14-twist")) + brute_force_oracle(instance("pg14-twist-3rows"))
    assert [phi.sigma.frobenius_power for phi in maps] == [1, 1]


@pytest.mark.parametrize("case, cap", [("pg22-full", 511), ("pg22-into-gf4", 0), ("pg32-full", 1 << 15)])
def test_oracle_cap_matches_reference(case, cap):
    inst = instance(case)
    with pytest.raises(CapExceeded) as want:
        ref_brute_force_oracle(inst, cap=cap)
    with pytest.raises(CapExceeded) as got:
        brute_force_oracle(inst, cap=cap)
    assert str(got.value) == str(want.value)


# -- the base engine against the oracle -----------------------------------------------

# (n, q, q'): PG(n, q) into PG(n, q'), each with at most 2^16 candidate matrices
ENGINE_SETTINGS = ((2, 2, 2), (2, 2, 4), (2, 3, 3), (3, 2, 2))


@st.composite
def engine_instances(draw):
    """A seeded full-rank map of PG(n, q) into PG(n, q'), restricted to
    PG(n, q), and whether one of its images is then moved."""
    n, q, q2 = draw(st.sampled_from(ENGINE_SETTINGS))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    inst = restricted(seeded_map(rng, gf(q), gf(q2), n + 1, n + 1, n + 1, None), build_pg(n, q))
    return perturbed(rng, inst) if draw(st.booleans()) else inst


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(engine_instances())
def test_engine_matches_oracle(inst):
    maps = brute_force_oracle(inst)
    pm = PartialPointMap(inst.geometry, inst.target_field, inst.target_dim, inst.images)
    if maps:
        assert len(maps) == 1
        got = reconstruct_ftpg(pm).canonical()
        assert matches([got]) == matches(maps)
    else:
        with pytest.raises(FingeoError) as exc:
            reconstruct_ftpg(pm)
        assert not isinstance(exc.value, InternalContradiction)

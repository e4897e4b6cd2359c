"""The reconstruction legs against the hand-rolled projections they replace.

_lp_leg and _affino_leg run on X's point quotient X/x, or on X/F for the
fiber F of the base image.  The references in quotient_routes project every
point of X by hand into a freshly built PG(V/W).  At every point of seeded
morphisms both must return the same SemilinearMap, or raise the same error
class: lp on AG(3,3) and two-hyperplanes(3,3), lap on elliptic(3,3),
cone(3,4) and hyperbolic(3,4), and both on AG(4,3) under rank-4 generators
whose kernel point lies at infinity, where the lap fibers are affine lines.
"""

import random

import pytest

from fingeo import linalg
from fingeo.errors import FingeoError
from fingeo.gf import list_homomorphisms
from fingeo.projective import SemilinearMap
from fingeo.reconstruct import MorphismInstance, _affino_leg, _lp_leg
from quotient_routes import ref_affino_leg, ref_lp_leg



def leg_map(leg):
    """The map of a library leg, which also hands over the coordinates of
    its two quotients."""
    return lambda inst, x: leg(inst, x)[0]


LEGS = {"lp": (leg_map(_lp_leg), ref_lp_leg), "lap": (leg_map(_affino_leg), ref_affino_leg)}


def outcome(leg, inst, x):
    """The leg's map at x, or the class of the error it raises."""
    try:
        return leg(inst, x)
    except FingeoError as exc:
        return type(exc)


def legs_agree(inst, kind):
    """Assert that both routes agree at every point; the number of points
    where they return a map."""
    leg, ref = LEGS[kind]
    maps = 0
    for x in range(inst.geometry.n_points):
        got = outcome(leg, inst, x)
        assert got == outcome(ref, inst, x), (kind, x)
        maps += isinstance(got, SemilinearMap)
    return maps


def random_generator(rng, K, n, rank, kernel_at_infinity=False):
    """A random n x n semilinear generator over K of the given rank; with
    kernel_at_infinity its kernel lies in x0 = 0."""
    homs = list_homomorphisms(K, K)
    while True:
        M = tuple(tuple(rng.randrange(K.q) for _ in range(n)) for _ in range(n))
        if linalg.rank(K, M) != rank:
            continue
        if kernel_at_infinity and any(v[0] for v in linalg.kernel_basis(K, M)):
            continue
        return SemilinearMap(homs[rng.randrange(len(homs))], M)


@pytest.mark.parametrize(
    "fixture, kind",
    [
        ("ag33", "lp"),
        ("two_hyperplanes_33", "lp"),
        ("elliptic_33", "lap"),
        ("cone_34", "lap"),
        ("hyperbolic_34", "lap"),
    ],
)
def test_legs_match_hand_rolled_projection(fixture, kind, request):
    X = request.getfixturevalue(fixture)
    rng = random.Random(f"legs-{fixture}")
    for _ in range(2):
        inst = MorphismInstance.restrict_semilinear(random_generator(rng, X.field, 4, 4), X)
        assert legs_agree(inst, kind) == X.n_points


def test_lp_legs_agree_where_the_quotient_does_not_fill(elliptic_33):
    """No elliptic quotient fills P/x: both routes raise at every point."""
    rng = random.Random("legs-elliptic-lp")
    inst = MorphismInstance.restrict_semilinear(random_generator(rng, elliptic_33.field, 4, 4), elliptic_33)
    assert legs_agree(inst, "lp") == 0


@pytest.mark.parametrize("kind", ["lp", "lap"])
def test_legs_match_on_line_fibers(ag43, kind):
    rng = random.Random(f"legs-ag43-{kind}")
    for _ in range(2):
        gen = random_generator(rng, ag43.field, 5, 4, kernel_at_infinity=True)
        inst = MorphismInstance.restrict_semilinear(gen, ag43)
        assert len(set(inst.images)) == ag43.n_points // 3  # fibers are affine lines
        assert legs_agree(inst, kind) == ag43.n_points

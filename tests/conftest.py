"""Shared fixtures: fields, projective spaces and the example gallery are
built once per session (all geometry objects are immutable)."""

import pytest

from fingeo.gf import gf
from fingeo.gallery import (
    build_example,
    coordinate_hyperplanes,
    make_affine,
    make_quadric,
    make_subfield_complement,
    make_two_hyperplanes,
)
from fingeo.geometry import subgeometry
from fingeo.projective import build_pg


@pytest.fixture(scope="session")
def gf2():
    return gf(2)


@pytest.fixture(scope="session")
def gf3():
    return gf(3)


@pytest.fixture(scope="session")
def gf4():
    return gf(4)


@pytest.fixture(scope="session")
def pg32():
    return build_pg(3, 2)


@pytest.fixture(scope="session")
def pg33():
    return build_pg(3, 3)


@pytest.fixture(scope="session")
def pg34():
    return build_pg(3, 4)


@pytest.fixture(scope="session")
def pg22():
    return build_pg(2, 2)


@pytest.fixture(scope="session")
def pg23():
    return build_pg(2, 3)


@pytest.fixture(scope="session")
def ag33():
    return make_affine(3, gf(3))


@pytest.fixture(scope="session")
def ag34():
    return make_affine(3, gf(4))


@pytest.fixture(scope="session")
def ag43():
    """AG(4,3) as the points of PG(4,3) with x0 = 1; make_affine's
    constructor check would take seconds at this size."""
    P = build_pg(4, 3)
    return subgeometry(P, [i for i, v in enumerate(P.vectors) if v[0] == 1])


@pytest.fixture(scope="session")
def ag32():
    return make_affine(3, gf(2))


@pytest.fixture(scope="session")
def two_hyperplanes_33(pg33):
    hs = coordinate_hyperplanes(pg33)
    return make_two_hyperplanes(pg33, hs[0], hs[1])


@pytest.fixture(scope="session")
def two_plane_complement_34():
    return build_example("two-plane-complement", gf(4))


@pytest.fixture(scope="session")
def subfield_complement_34():
    return make_subfield_complement(3, gf(2), gf(4))


@pytest.fixture(scope="session")
def elliptic_33(pg33):
    return make_quadric(pg33, "elliptic")


@pytest.fixture(scope="session")
def elliptic_34(pg34):
    return make_quadric(pg34, "elliptic")


@pytest.fixture(scope="session")
def hyperbolic_32(pg32):
    return make_quadric(pg32, "hyperbolic")


@pytest.fixture(scope="session")
def hyperbolic_34(pg34):
    return make_quadric(pg34, "hyperbolic")


@pytest.fixture(scope="session")
def cone_33(pg33):
    return make_quadric(pg33, "cone")


@pytest.fixture(scope="session")
def cone_34(pg34):
    return make_quadric(pg34, "cone")

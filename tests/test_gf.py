"""Field arithmetic, Frobenius maps, and homomorphism enumeration."""

import itertools
import random
import re

import pytest

from fingeo.errors import DivisionByZero, FieldMismatch, InvalidArgument, InvalidArgumentType, SizeLimit
from fingeo.gf import (
    FieldElement,
    FieldHom,
    field_arith,
    frobenius,
    gf,
    hom_from_power,
    identity_hom,
    list_homomorphisms,
    parse_field_name,
)
from quotient_routes import ref_preserves_structure

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_canonical_moduli():
    # smallest monic irreducible, high-degree coefficients most significant
    assert gf(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert gf(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert gf(9).modulus == (1, 0, 1)  # x^2 + 1
    assert gf(16).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_gf4_multiplication():
    # x * x reduced by x^2 + x + 1 gives x + 1
    K = gf(4)
    x = K.from_coeffs((0, 1))
    assert K.mul(x, x) == K.from_coeffs((1, 1))


def test_prime_field_examples():
    K5 = gf(5)
    for a in K5.elements:
        assert K5.mul(1, a) == a
    assert gf(3).add(2, 2) == 1


def test_field_arith_wrapper():
    K = gf(4)
    a, b = K.element(2), K.element(2)
    assert field_arith(a, b, "mul").val == 3
    assert field_arith(a, b, "sub").val == 0
    with pytest.raises(FieldMismatch):
        field_arith(K.element(1), gf(5).element(1), "add")
    with pytest.raises(DivisionByZero):
        field_arith(a, K.element(0), "div")


def test_field_element_operators():
    K = gf(9)
    a, b = K.element(5), K.element(7)
    assert (a + b - b).val == a.val
    assert (a * b / b).val == a.val
    assert (-a + a).val == 0
    assert len(a.coeffs) == 2


@pytest.mark.parametrize("op", ("add", "sub", "mul", "truediv"))
def test_field_element_operands_are_checked(op):
    """A non-element operand is a typed failure, not a bare error from
    the field tables; an int must encode an element."""
    a = gf(4).element(1)
    for other in (1.5, "x", None, (1,)):
        with pytest.raises(InvalidArgumentType):
            getattr(a, f"__{op}__")(other)
    for other in (-1, 4):
        with pytest.raises(InvalidArgument):
            getattr(a, f"__{op}__")(other)
    with pytest.raises(FieldMismatch):
        getattr(a, f"__{op}__")(gf(5).element(1))


def test_field_element_value_is_checked():
    K = gf(4)
    for val in (-1, 4, 9, 1.0, "1", None):
        with pytest.raises(InvalidArgument):
            FieldElement(K, val)
    assert FieldElement(K, 3).val == 3
    assert K.element(9).val == 1  # element() reduces an int modulo q
    with pytest.raises(InvalidArgument):
        K.element(1.5)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    K = gf(q)
    els = list(K.elements)
    for a in els:
        assert K.add(a, 0) == a and K.mul(a, 1) == a
        if a:
            assert K.mul(a, K.inv(a)) == 1
        assert K.add(a, K.neg(a)) == 0
    for a, b in itertools.product(els, repeat=2):
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


def test_frobenius_examples():
    K4 = gf(4)
    assert K4.frobenius(2, 1) == 3  # x -> x^2 = x + 1
    for q in SUPPORTED:
        K = gf(q)
        for a in K.elements:
            assert K.frobenius(a, 0) == a
    K9 = gf(9)
    for a in K9.elements:
        assert K9.frobenius(K9.frobenius(a, 1), 1) == a  # order k = 2


def test_frobenius_iterated_is_identity():
    for q in SUPPORTED:
        K = gf(q)
        for a in K.elements:
            b = a
            for _ in range(K.k):
                b = K.frobenius(b, 1)
            assert b == a


def test_frobenius_element_wrapper():
    K = gf(4)
    assert frobenius(K.element(2), 1).val == 3
    with pytest.raises(ValueError):
        frobenius(K.element(2), 2)


def test_hom_counts():
    assert len(list_homomorphisms(gf(2), gf(2))) == 1
    assert len(list_homomorphisms(gf(4), gf(16))) == 2
    assert len(list_homomorphisms(gf(4), gf(8))) == 0
    assert len(list_homomorphisms(gf(2), gf(4))) == 1
    assert len(list_homomorphisms(gf(3), gf(9))) == 1
    assert len(list_homomorphisms(gf(9), gf(9))) == 2
    assert len(list_homomorphisms(gf(3), gf(4))) == 0


def test_hom_enumeration_matches_definition():
    # independent oracle: every map determined by a generator image, kept
    # exactly when it preserves 0, 1, + and * over the whole source
    K, L = gf(4), gf(16)
    expected = []
    for t in L.elements:
        table = []
        for a in K.elements:
            c0, c1 = K.coeffs(a)
            table.append(L.add(c0, L.mul(c1, t)))
        cand = FieldHom(K, L, tuple(table))
        if cand.preserves_structure():
            expected.append(cand.table)
    got = [h.table for h in list_homomorphisms(K, L)]
    assert sorted(expected) == sorted(got)
    assert len(got) == 2


@pytest.mark.parametrize(
    "p, L", [(p, L) for p in (2, 3, 5, 7, 11, 13) for L in SUPPORTED if gf(L).p == p]
)
def test_prime_field_has_one_hom(p, L):
    # the modulus of GF(p) is x, whose one root 0 gives the table range(p)
    assert [h.table for h in list_homomorphisms(gf(p), gf(L))] == [tuple(range(p))]


def test_homs_are_injective():
    for qa, qb in [(2, 2), (2, 4), (2, 16), (4, 4), (4, 16), (3, 3), (3, 9), (9, 9)]:
        for h in list_homomorphisms(gf(qa), gf(qb)):
            assert len(set(h.table)) == gf(qa).q
            assert h.preserves_structure()


@pytest.mark.parametrize("qa, qb", [(2, 2), (2, 4), (4, 4), (3, 3), (3, 9), (4, 16), (5, 5), (8, 8)])
def test_structure_check_on_tables_keeps_its_verdict(qa, qb):
    """Every homomorphism and seeded tables that fix 0 and 1 (most of them
    no homomorphism): the check on the field tables gives the verdict of
    the check on the fields' arithmetic methods."""
    K, L = gf(qa), gf(qb)
    rng = random.Random(f"structure {qa} {qb}")
    tables = [h.table for h in list_homomorphisms(K, L)]
    tables += [(0, 1) + tuple(rng.randrange(L.q) for _ in range(K.q - 2)) for _ in range(40)]
    tables += [(1,) + t[1:] for t in tables[:2]]
    verdicts = [FieldHom(K, L, t).preserves_structure() for t in tables]
    assert verdicts == [ref_preserves_structure(FieldHom(K, L, t)) for t in tables]
    assert any(verdicts) and not all(verdicts)


def test_hom_power_encoding():
    for qa, qb in [(4, 4), (4, 16), (9, 9), (3, 9), (2, 4)]:
        homs = list_homomorphisms(gf(qa), gf(qb))
        powers = {h.frobenius_power for h in homs}
        assert powers == set(range(len(homs)))
        for h in homs:
            assert hom_from_power(gf(qa), gf(qb), h.frobenius_power).table == h.table


def test_hom_compose_and_inverse():
    K = gf(4)
    f = hom_from_power(K, K, 1)
    assert f.compose(f).is_identity
    assert f.inverse().table == f.table  # frobenius is an involution on gf(4)
    e = list_homomorphisms(gf(2), gf(4))[0]
    assert f.compose(e).table == e.table  # frobenius fixes the prime field


def test_size_limits():
    with pytest.raises(SizeLimit):
        gf(17)
    with pytest.raises(SizeLimit):
        gf(32)
    with pytest.raises(ValueError):
        gf(6)


def test_parse_field_name():
    assert parse_field_name("gf(4)") is gf(4)
    assert parse_field_name(" GF(9) ") is gf(9)
    with pytest.raises(ValueError):
        parse_field_name("pg(3)")
    for value in (5, None, True, [], {}, "gf(x)", "gf()", "gf(4.0)"):
        with pytest.raises(InvalidArgument, match=re.escape(f"bad field designator {value!r}")):
            parse_field_name(value)


def test_field_order_is_checked():
    """A non-int order is a typed failure, also once GF(4) is interned:
    4.0 equals 4 but is no key for it."""
    assert gf(4) is gf(4)
    for q in ("4", 4.0, None):
        with pytest.raises(InvalidArgumentType):
            gf(q)
    for q in (0, -4, 6):
        with pytest.raises(InvalidArgument):
            gf(q)


def test_unhashable_field_order_is_a_typed_failure():
    """The check runs in front of the cache, which could not hash a list."""
    for q in ([4], {4: 4}, {4}):
        with pytest.raises(InvalidArgumentType, match="field order"):
            gf(q)


def test_identity_hom():
    for q in (2, 3, 4, 9):
        h = identity_hom(gf(q))
        assert h.is_identity and h.preserves_structure()

"""Exact arithmetic in small Galois fields GF(p^k) and their homomorphisms.

Elements of GF(p^k) are encoded as integers 0..q-1: the element with
polynomial coefficients (c0, c1, ..., c_{k-1}), little-endian in the class
of x, is encoded as sum(c_i * p**i).  The modulus is the canonically
smallest monic irreducible polynomial of degree k (coefficients compared
from the highest degree down), so every field here is determined by q alone.
All arithmetic is table-driven and exact.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, wraps

from .errors import DivisionByZero, FieldMismatch, InvalidArgument, InvalidArgumentType, ReadOnlyField, SizeLimit

MAX_ORDER = 16
MAX_CHAR = 13


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise InvalidArgument(f"{q} is not a prime power")
            return p, k
    raise InvalidArgument(f"{q} is not a prime power")


# -- dense polynomials over GF(p), little-endian coefficient tuples --------


def _poly_mod(p, a, m):
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return tuple(c % p for c in a[:dm])


def _is_irreducible(p, m):
    """Trial division by all monic polynomials of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            b = _int_digits(low, p, d) + (1,)
            if not any(_poly_mod(p, m, b)):
                return False
    return True


def _int_digits(n, p, width):
    digits = []
    for _ in range(width):
        digits.append(n % p)
        n //= p
    return tuple(digits)


def _digits_int(digits, p):
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _canonical_modulus(p, k):
    """Smallest monic irreducible of degree k, low coefficients compared
    with the highest degree most significant (= smallest integer encoding)."""
    if k == 1:
        return (0, 1)
    for low in range(p**k):
        m = _int_digits(low, p, k) + (1,)
        if _is_irreducible(p, m):
            return m
    raise SizeLimit(f"no irreducible modulus for p={p}, k={k}")


class GF:
    """The field GF(p^k) with canonical modulus; elements are ints 0..q-1.

    Instances are interned: ``gf(q)`` always returns the same object, so
    identity comparison is safe.  All tables are built eagerly (q <= 16).
    """

    def __init__(self, p: int, k: int):
        q = p**k
        if q > MAX_ORDER or p > MAX_CHAR:
            raise SizeLimit(f"gf({q}) outside supported range (q<={MAX_ORDER}, p<={MAX_CHAR})")
        if not _is_prime(p) or k < 1:
            raise InvalidArgument(f"invalid field parameters p={p}, k={k}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        coeffs = [_int_digits(a, p, k) for a in range(q)]
        self._coeffs = coeffs
        add = []
        mul = []
        for a in range(q):
            ca = coeffs[a]
            arow = [0] * q
            mrow = [0] * q
            for b in range(q):
                cb = coeffs[b]
                arow[b] = _digits_int(tuple((x + y) % p for x, y in zip(ca, cb)), p)
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                mrow[b] = _digits_int(_poly_mod(p, prod, self.modulus), p)
            add.append(tuple(arow))
            mul.append(tuple(mrow))
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = tuple(_digits_int(tuple((-x) % p for x in coeffs[a]), p) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)
        self._frob = tuple(self.pow(a, p) for a in range(q))

    # -- arithmetic on encodings -------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        return self._inv[a]

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero(f"division by zero in {self}")
        return self._mul[a][self._inv[b]]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    def frobenius(self, a, i=1):
        """a ** (p**i); i = 0 is the identity."""
        for _ in range(i % self.k if self.k > 1 else 0):
            a = self._frob[a]
        return a

    # -- structure ----------------------------------------------------------

    @property
    def elements(self):
        return range(self.q)

    def coeffs(self, a):
        """Little-endian coefficient tuple of the element encoded as a."""
        return self._coeffs[a]

    def from_coeffs(self, cs):
        if len(cs) != self.k:
            raise InvalidArgument(f"expected {self.k} coefficients")
        return _digits_int(tuple(c % self.p for c in cs), self.p)

    def element(self, val):
        return FieldElement(self, val % self.q)

    @property
    def name(self):
        return f"gf({self.q})"

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return (gf, (self.q,))


def interned(*names):
    """Decorator: fn interned by an lru_cache, with its arguments, called
    names, checked to be ints in front of the cache, so that a bad one is
    InvalidArgumentType even when the cache could not hash it.  As on
    lru_cache's own wrapper, cache_clear empties the cache and __wrapped__
    is fn, uncached."""

    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def wrapper(*args):
            for name, value in zip(names, args):
                if not isinstance(value, int):
                    raise InvalidArgumentType(f"{name} {value!r} is not an int")
            return cached(*args)

        wrapper.cache_clear = cached.cache_clear
        return wrapper

    return decorate


@interned("field order")
def gf(q: int) -> GF:
    """The canonical GF(q), interned per order q."""
    p, k = _factor_prime_power(q)
    return GF(p, k)


class FieldElement:
    """An element of a GF instance with operator support; immutable, equal
    and hashed by (field, val)."""

    def __init__(self, field: GF, val: int):
        if not (isinstance(val, int) and 0 <= val < field.q):
            raise InvalidArgument(f"{val!r} is not an element encoding of {field}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name, value):
        raise ReadOnlyField(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise ReadOnlyField(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not FieldElement:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash((self.field, self.val))

    def _coerce(self, other):
        if isinstance(other, int):
            other = FieldElement(self.field, other)
        if not isinstance(other, FieldElement):
            raise InvalidArgumentType(f"cannot combine {type(other).__name__} with an element of {self.field}")
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other.val

    @property
    def coeffs(self):
        return self.field.coeffs(self.val)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.val, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.val, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.val, self._coerce(other)))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.val, self._coerce(other)))

    def __int__(self):
        return self.val

    def __repr__(self):
        return f"{self.field.name}:{self.val}"


def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Apply one of add/sub/mul/div to two elements of the same field."""
    if a.field is not b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    fn = {"add": a.field.add, "sub": a.field.sub, "mul": a.field.mul, "div": a.field.div}[op]
    return FieldElement(a.field, fn(a.val, b.val))


def frobenius(a: FieldElement, i: int) -> FieldElement:
    """The canonical automorphism x -> x**(p**i) applied to a."""
    if not 0 <= i < a.field.k:
        raise InvalidArgument(f"power index {i} outside [0, {a.field.k})")
    return FieldElement(a.field, a.field.frobenius(a.val, i))


class FieldHom(namedtuple("FieldHom", "source target table")):
    """A ring homomorphism between two GF instances as a full value table."""

    __slots__ = ()

    def __call__(self, a: int) -> int:
        return self.table[a]

    def map_vec(self, v):
        t = self.table
        return tuple(t[c] for c in v)

    def map_matrix(self, rows):
        t = self.table
        return tuple(tuple(t[c] for c in row) for row in rows)

    @property
    def image_of_generator(self) -> int:
        # generator = the class of x for k >= 2, else 1
        return self.table[self.source.p] if self.source.k > 1 else self.table[1]

    @property
    def is_identity(self) -> bool:
        return self.source is self.target and all(self.table[a] == a for a in range(self.source.q))

    def is_bijective(self) -> bool:
        return self.source.q == self.target.q

    def inverse(self) -> "FieldHom":
        if not self.is_bijective():
            raise FieldMismatch("homomorphism is not bijective")
        inv = [0] * self.source.q
        for a, b in enumerate(self.table):
            inv[b] = a
        return FieldHom(self.target, self.source, tuple(inv))

    def compose(self, inner: "FieldHom") -> "FieldHom":
        """self after inner."""
        if inner.target is not self.source:
            raise FieldMismatch("homomorphisms do not chain")
        return FieldHom(inner.source, self.target, tuple(self.table[v] for v in inner.table))

    def preserves_structure(self) -> bool:
        K, L, t = self.source, self.target, self.table
        if t[0] != 0 or t[1] != 1:
            return False
        for add_a, mul_a, ta in zip(K._add, K._mul, t):
            if [t[c] for c in add_a] != [L._add[ta][tb] for tb in t]:
                return False
            if [t[c] for c in mul_a] != [L._mul[ta][tb] for tb in t]:
                return False
        return True

    @property
    def frobenius_power(self) -> int:
        """i such that self = (canonical embedding) o (x -> x**(p**i))."""
        homs = list_homomorphisms(self.source, self.target)
        if not homs:
            raise FieldMismatch("no homomorphisms exist")
        embed = homs[0]
        for i in range(self.source.k):
            cand = tuple(embed(self.source.frobenius(a, i)) for a in self.source.elements)
            if cand == self.table:
                return i
        raise FieldMismatch("homomorphism is not an embedded Frobenius power")

    def __repr__(self):
        return f"hom({self.source.name}->{self.target.name}, gen->{self.image_of_generator})"


def identity_hom(K: GF) -> FieldHom:
    return FieldHom(K, K, tuple(range(K.q)))


@lru_cache(maxsize=None)
def list_homomorphisms(K: GF, K2: GF) -> tuple:
    """All ring homomorphisms GF(p^k) -> GF(p'^k'), in canonical order.

    Candidates send the generator to a root of K's modulus in K2 (a prime
    field's modulus is x, whose one root 0 gives the table range(p)); every
    candidate is verified by the exhaustive preservation check, so the empty
    answer for p != p' or k not dividing k' falls out rather than being
    assumed.  Returned homs are sorted by the image of the generator.
    """
    if K.p != K2.p:
        return ()
    found = []
    for t in K2.elements:
        # evaluate K's modulus at t inside K2
        acc = 0
        tp = 1
        for c in K.modulus:
            if c:
                acc = K2.add(acc, K2.mul(c % K2.p, tp))
            tp = K2.mul(tp, t)
        if acc != 0:
            continue
        table = []
        for a in K.elements:
            v = 0
            tp = 1
            for c in K.coeffs(a):
                if c:
                    v = K2.add(v, K2.mul(c, tp))
                tp = K2.mul(tp, t)
            table.append(v)
        cand = FieldHom(K, K2, tuple(table))
        if cand.preserves_structure():
            found.append(cand)
    found.sort(key=lambda h: h.image_of_generator)
    return tuple(found)


def hom_from_power(K: GF, K2: GF, power: int) -> FieldHom:
    """The hom encoded as canonical-embedding composed with Frobenius^power."""
    homs = list_homomorphisms(K, K2)
    if not homs:
        raise FieldMismatch(f"no homomorphisms {K.name} -> {K2.name}")
    embed = homs[0]
    return FieldHom(K, K2, tuple(embed(K.frobenius(a, power % K.k)) for a in K.elements))


def parse_field_name(text: str) -> GF:
    """Parse the "gf(q)" designator used in files and on the CLI."""
    s = text.strip().lower() if isinstance(text, str) else ""
    if not (s.startswith("gf(") and s.endswith(")")):
        raise InvalidArgument(f"bad field designator {text!r}")
    try:
        q = int(s[3:-1])
    except ValueError:
        raise InvalidArgument(f"bad field designator {text!r}") from None
    return gf(q)

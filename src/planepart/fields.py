"""Exact arithmetic in the finite fields GF(p^h).

An element is its canonical integer in ``[0, q)``: the integer
``c[0] + c[1]*p + ... + c[h-1]*p**(h-1)`` encodes the polynomial-basis
coefficient vector ``(c[0], ..., c[h-1])``.  A field is its ``(q, q)``
addition and multiplication tables: digit-wise sums mod p, and polynomial
products mod the least irreducible modulus, built by shift-and-add from
the scalar multiples; every other operation is read off them.  The
supported range is ``2 <= p**h <= MAX_FIELD_ORDER``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# the one size cap of the package: a plane is built over a field, and the
# benchmark and the tests cover planes only through this order
MAX_FIELD_ORDER = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**h with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    fs = prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"not a prime power: {q}")
    p = fs[0]
    h = 0
    while q > 1:
        q //= p
        h += 1
    return p, h


def _monic_polys(p: int, deg: int):
    """All monic degree-deg polynomials over GF(p), little-endian.

    Enumeration order is ascending when coefficients are compared from the
    highest degree down, which is the order the least-modulus rule uses.
    """
    for idx in range(p**deg):
        coeffs = tuple((idx // p**i) % p for i in range(deg))
        yield coeffs + (1,)


def _poly_rem_is_zero(f, g, p) -> bool:
    # g monic, deg(g) <= deg(f)
    r = list(f)
    dg = len(g) - 1
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k]
        if c:
            for i in range(dg + 1):
                r[k - dg + i] = (r[k - dg + i] - c * g[i]) % p
    return not any(r[:dg])


def _is_irreducible(f, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)//2."""
    deg = len(f) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if _poly_rem_is_zero(f, g, p):
                return False
    return True


def least_irreducible(p: int, h: int) -> tuple[int, ...]:
    """The least monic irreducible degree-h polynomial over GF(p).

    "Least" compares coefficient vectors from the highest degree down.  For
    h = 1 this is the polynomial x, i.e. plain reduction mod p.
    """
    for f in _monic_polys(p, h):
        if _is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {h} over GF({p})")


class Field:
    """GF(p**h) as its addition and multiplication tables.  Treat as immutable.

    ``add_table[a, b]`` and ``mul_table[a, b]`` are the sum and the product
    of the elements a and b; negation, inverses, squares, the trace and the
    q-scaled tables ``add_q`` and ``mul_q`` are arrays derived from them,
    each on first use.  The sum, product, negation and inverse tables are
    ``np.intp``, numpy's index type, so a lookup chained through them
    gathers without first converting its index array, as numpy converts an
    int32 one on every gather.
    """

    def __init__(self, p: int, h: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if h < 1:
            raise ValueError(f"extension degree must be positive, got {h}")
        q = p**h
        if q > MAX_FIELD_ORDER:
            raise ValueError(
                f"field order {q} exceeds the supported maximum {MAX_FIELD_ORDER}"
            )
        self.p = p
        self.h = h
        self.q = q
        self.modulus = least_irreducible(p, h)
        # the sums and the scalar multiples c*a (c in GF(p)) are digit-wise, so
        # each extra digit, appended as the new lowest, adds one block level
        ep = np.arange(p)
        add = ep[:, None] + ep
        add -= p * (add >= p)
        scalar = ep[:, None] * ep
        scalar -= scalar // p * p
        add_p, scalar_p = add, scalar
        for k in range(1, h):
            add = (p * add[:, None, :, None] + add_p[:, None, :]).reshape(p ** (k + 1), -1)
            scalar = (p * scalar[:, :, None] + scalar_p[:, None, :]).reshape(p, -1)
        self.add_table = add
        # a*b = sum_i b_i (a x^i), at row b and column a: a gather of scalar
        # multiples per digit of b, summed by gathers into add; a x^i is
        # a x^(i-1) shifted up one digit with its top digit d replaced by
        # (-d)*low, as x^h = -low mod the modulus x^h + low
        e, top = np.arange(q), q // p
        low = sum(c * p**i for i, c in enumerate(self.modulus[:h]))
        mul, ax = scalar[e % p], e
        for i in range(1, h):
            ax = add[ax % top * p, scalar[-(ax // top) % p, low]]
            mul = add[mul, scalar[:, ax][e // p**i % p]]
        self.mul_table = mul

    @cached_property
    def add_q(self) -> np.ndarray:
        """``q * add_table``, flattened: ``add_q[q*a + b]`` is the row offset of a + b."""
        return self.q * self.add_table.ravel()

    @cached_property
    def mul_q(self) -> np.ndarray:
        """``q * mul_table``, flattened: ``mul_q[q*a + b]`` is the row offset of a * b."""
        return self.q * self.mul_table.ravel()

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Additive inverses by element."""
        return (self.add_table == 0).argmax(axis=1)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Multiplicative inverses by element; entry 0, which has none, is 0."""
        return (self.mul_table == 1).argmax(axis=1)

    @cached_property
    def square_mask(self) -> np.ndarray:
        """True at the nonzero squares: (q-1)/2 of them for odd q, all units for even q."""
        mask = np.zeros(self.q, dtype=bool)
        mask[np.diagonal(self.mul_table)[1:]] = True
        return mask

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Trace onto the prime subfield, a + a^p + ... + a^(p^(h-1)), by element."""
        a = np.arange(self.q)
        frobenius = a
        for _ in range(self.p - 1):
            frobenius = self.mul_table[frobenius, a]
        acc = cur = a
        for _ in range(self.h - 1):
            cur = frobenius[cur]
            acc = self.add_table[acc, cur]
        if (acc >= self.p).any():
            raise RuntimeError("trace left the prime subfield")
        return acc

    def __repr__(self) -> str:
        return f"Field(p={self.p}, h={self.h}, q={self.q})"


def make_field(p: int, h: int = 1) -> Field:
    """Build GF(p**h) with the least monic irreducible modulus."""
    return Field(p, h)


def field_of_order(q: int) -> Field:
    """Build GF(q) from a prime-power order."""
    p, h = factor_prime_power(q)
    return Field(p, h)

"""Exact arithmetic in the finite fields GF(p^h).

An element is its canonical integer in ``[0, q)``: the integer
``c[0] + c[1]*p + ... + c[h-1]*p**(h-1)`` encodes the polynomial-basis
coefficient vector ``(c[0], ..., c[h-1])``.  Multiplication runs on
discrete log/antilog tables built over the least generator, addition is
digit-wise mod p, so every operation is exact across the supported range
``2 <= p**h <= 2**14``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

MAX_FIELD_ORDER = 1 << 14
# dense q*q numpy tables are only built at plane scale
MAX_TABLE_ORDER = 1 << 10


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


def _poly_mul_mod(a, b, modulus, p):
    """Product of little-endian digit tuples, reduced mod a monic modulus."""
    h = len(modulus) - 1
    prod = [0] * (2 * h - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, h - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(h):
                prod[k - h + i] = (prod[k - h + i] - c * modulus[i]) % p
    return tuple(prod[:h])


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
    """GF(p**h) with table-driven arithmetic.  Treat as immutable."""

    def __init__(self, p: int, h: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if h < 1:
            raise ValueError(f"extension degree must be positive, got {h}")
        q = p**h
        if q > MAX_FIELD_ORDER:
            raise ValueError(
                f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}"
            )
        self.p = p
        self.h = h
        self.q = q
        self.modulus = least_irreducible(p, h)
        self._digits = [
            tuple((v // p**i) % p for i in range(h)) for v in range(q)
        ]
        self._pow_p = [p**i for i in range(h)]
        self._exp, self._log, self.generator = self._build_log_tables()

    def _build_log_tables(self):
        q, p = self.q, self.p
        log = [-1] * q
        if q == 2:
            log[1] = 0
            return [1], log, 1
        for cand in range(2, q):
            gd = self._digits[cand]
            powers = [1]
            cur_d, cur = gd, cand
            while cur != 1 and len(powers) < q:
                powers.append(cur)
                cur_d = _poly_mul_mod(cur_d, gd, self.modulus, p)
                cur = self._encode(cur_d)
            if cur == 1 and len(powers) == q - 1:
                for k, v in enumerate(powers):
                    log[v] = k
                return powers, log, cand
        raise RuntimeError(f"no generator found for GF({q})")

    def _encode(self, digits) -> int:
        return sum(d * w for d, w in zip(digits, self._pow_p))

    # -- canonical representation ------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficient vector of a, constant term first."""
        self._check(a)
        return self._digits[a]

    def from_coeffs(self, coeffs) -> int:
        cs = tuple(coeffs)
        if len(cs) > self.h:
            raise ValueError(f"coefficient vector longer than degree {self.h}")
        if any(not (0 <= c < self.p) for c in cs):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return sum(c * self.p**i for i, c in enumerate(cs))

    def _check(self, a: int):
        if not (0 <= a < self.q):
            raise ValueError(f"element {a} out of range for GF({self.q})")

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        da, db = self._digits[a], self._digits[b]
        p = self.p
        return self._encode(tuple((x + y) % p for x, y in zip(da, db)))

    def neg(self, a: int) -> int:
        if self.h == 1:
            return (-a) % self.p
        p = self.p
        return self._encode(tuple((-x) % p for x in self._digits[a]))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    # -- structure -------------------------------------------------------

    def trace(self, a: int) -> int:
        """Trace onto the prime subfield: a + a^p + ... + a^(p^(h-1))."""
        self._check(a)
        acc = a
        cur = a
        for _ in range(self.h - 1):
            cur = self.pow(cur, self.p)
            acc = self.add(acc, cur)
        if acc >= self.p:
            raise RuntimeError(f"trace of {a} left the prime subfield")
        return acc

    @cached_property
    def square_set(self) -> frozenset[int]:
        """Nonzero squares.  Size (q-1)/2 for odd q, all units for even q."""
        return frozenset(self.mul(a, a) for a in self.units())

    def is_square(self, a: int) -> bool:
        """Membership of a unit in the square set; zero is not counted."""
        return a != 0 and a in self.square_set

    # -- dense tables for vectorised callers ------------------------------

    @cached_property
    def add_table(self) -> np.ndarray:
        if self.q > MAX_TABLE_ORDER:
            raise ValueError(f"dense tables unsupported beyond order {MAX_TABLE_ORDER}")
        digits = np.array(self._digits, dtype=np.int64)
        sums = (digits[:, None, :] + digits[None, :, :]) % self.p
        weights = np.array(self._pow_p, dtype=np.int64)
        return (sums * weights).sum(axis=2).astype(np.int32)

    @cached_property
    def mul_table(self) -> np.ndarray:
        if self.q > MAX_TABLE_ORDER:
            raise ValueError(f"dense tables unsupported beyond order {MAX_TABLE_ORDER}")
        q = self.q
        table = np.zeros((q, q), dtype=np.int32)
        if q > 1:
            lg = np.array([self._log[a] for a in range(1, q)], dtype=np.int64)
            ex = np.array(self._exp, dtype=np.int64)
            table[1:, 1:] = ex[(lg[:, None] + lg[None, :]) % (q - 1)]
        return table

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Multiplicative inverses by element; entry 0, which has none, is 0."""
        table = np.zeros(self.q, dtype=np.int32)
        table[1:] = [self.inv(a) for a in self.units()]
        return table

    def __repr__(self) -> str:
        return f"Field(p={self.p}, h={self.h}, q={self.q})"


def make_field(p: int, h: int = 1) -> Field:
    """Build GF(p**h) with the least monic irreducible modulus."""
    return Field(p, h)


def field_of_order(q: int) -> Field:
    """Build GF(q) from a prime-power order."""
    p, h = factor_prime_power(q)
    return Field(p, h)

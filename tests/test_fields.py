import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planepart import field_of_order, least_irreducible, make_field
from planepart.fields import MAX_FIELD_ORDER, prime_factors
from oracles import ReferenceField, is_irreducible_bruteforce, monic_polys

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]
ALL_FIELDS = [q for q in range(2, MAX_FIELD_ORDER + 1) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("p,h,expected", [
    (2, 2, (1, 1, 1)),       # x^2 + x + 1
    (2, 3, (1, 1, 0, 1)),    # x^3 + x + 1
    (3, 2, (1, 0, 1)),       # x^2 + 1
    (5, 2, (2, 0, 1)),       # x^2 + 2
    (3, 3, (1, 2, 0, 1)),    # x^3 + 2x + 1
])
def test_least_irreducible_known(p, h, expected):
    assert least_irreducible(p, h) == expected


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_least_irreducible_is_least_and_irreducible(p, h):
    got = least_irreducible(p, h)
    assert is_irreducible_bruteforce(p, got)
    # least under high-degree-first comparison of non-leading coefficients
    for cand in monic_polys(p, h):
        key = tuple(reversed(cand[:-1]))
        if key < tuple(reversed(got[:-1])):
            assert not is_irreducible_bruteforce(p, cand)


def _power(f, a, k):
    """a**k by repeated lookups in the multiplication table."""
    out = 1
    for _ in range(k):
        out = f.mul_table[out, a]
    return out


@pytest.mark.parametrize("q,expected", [
    (5, {1, 4}),
    (7, {1, 2, 4}),
])
def test_square_set_odd(q, expected):
    assert set(np.flatnonzero(field_of_order(q).square_mask)) == expected


def test_square_set_even_is_all_units():
    f = field_of_order(4)
    assert set(np.flatnonzero(f.square_mask)) == set(range(1, 4))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_square_set_euler_criterion(q):
    f = field_of_order(q)
    half = (q - 1) // 2
    for x in range(1, q):
        assert f.square_mask[x] == (_power(f, x, half) == 1)
    assert not f.square_mask[0]


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_unit_group_order(q):
    f = field_of_order(q)
    for a in range(1, q):
        assert _power(f, a, q - 1) == 1


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    add, mul = f.add_table, f.mul_table
    els = np.arange(q)
    assert (add[els, 0] == els).all()
    assert (mul[els, 1] == els).all()
    assert (add[els, f.neg_table] == 0).all()
    assert (mul[els[1:], f.inv_table[1:]] == 1).all()
    assert f.inv_table[0] == 0
    a, b, c = np.meshgrid(els, els, els, indexing="ij")
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()


@given(st.integers(0, 8), st.integers(0, 8))
def test_gf9_commutativity(a, b):
    f = field_of_order(9)
    assert f.add_table[a, b] == f.add_table[b, a]
    assert f.mul_table[a, b] == f.mul_table[b, a]


def test_trace_gf4():
    f = field_of_order(4)
    assert f.trace_table[0] == 0
    # the modulus root x, encoded 2, satisfies x^2 = x + 1, so Tr(x) = x + x^2 = 1
    assert f.trace_table[2] == 1


def test_trace_fibers_gf8():
    f = field_of_order(8)
    assert np.bincount(f.trace_table).tolist() == [4, 4]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 64])
def test_trace_additive_and_into_prime_field(q):
    f = field_of_order(q)
    tr = f.trace_table
    assert ((0 <= tr) & (tr < f.p)).all()
    assert (tr[f.add_table] == (tr[:, None] + tr[None, :]) % f.p).all()


def test_field_of_order_rejects_non_prime_powers():
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            field_of_order(q)


def test_make_field_rejects_out_of_range():
    # the least power of 2 and the least prime past the cap, and a power of 2 far past it
    bits = MAX_FIELD_ORDER.bit_length()
    prime = next(p for p in itertools.count(MAX_FIELD_ORDER + 1) if prime_factors(p) == [p])
    for p, h in ((2, bits), (prime, 1), (2, 2 * bits + 1)):
        with pytest.raises(ValueError, match=f"supported maximum {MAX_FIELD_ORDER}"):
            make_field(p, h)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_tables_match_scalar_ops(q):
    f = field_of_order(q)
    ref = ReferenceField(f.p, f.h)
    assert f.modulus == ref.modulus
    els = range(q)
    assert f.add_table.tolist() == [[ref.add(a, b) for b in els] for a in els]
    assert f.mul_table.tolist() == [[ref.mul(a, b) for b in els] for a in els]
    assert f.neg_table.tolist() == [ref.neg(a) for a in els]
    assert f.inv_table.tolist() == [0] + [ref.inv(a) for a in range(1, q)]
    assert f.trace_table.tolist() == [ref.trace(a) for a in els]
    squares = {ref.mul(a, a) for a in range(1, q)}
    assert f.square_mask.tolist() == [a in squares for a in els]

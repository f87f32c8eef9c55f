"""Finite-field layer: exhaustive laws on small fields, hypothesis on F_q,
and the lookup tables against schoolbook coordinate arithmetic."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext.field import GF, MAX_Q, FqSpec, _poly_divmod, _poly_mul_mod_p, _prime_factors


SMALL = [GF(2), GF(2, 2), GF(2, 3), GF(3), GF(3, 2), GF(5), GF(7, 2)]


@pytest.mark.parametrize("field", SMALL, ids=lambda f: "q%d" % f.q)
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    assert len(elems) == field.q
    one, zero = field.one, field.zero
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if a:
            assert a * a.inverse() == one
    # commutativity and distributivity on the full triple product when tiny
    if field.q <= 9:
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert a * (b + c) == a * b + a * c
                    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("field", SMALL, ids=lambda f: "q%d" % f.q)
def test_frobenius_is_field_automorphism(field):
    elems = list(field.elements())
    for a in elems:
        for b in elems[:8]:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    # order: applying it e times is the identity
    for a in elems:
        x = a
        for _ in range(field.e):
            x = x.frobenius()
        assert x == a


@pytest.mark.parametrize("field", SMALL, ids=lambda f: "q%d" % f.q)
def test_pth_root_inverts_frobenius(field):
    for a in field.elements():
        assert a.pth_root().frobenius() == a
        assert a.frobenius().pth_root() == a


def test_fixed_points_of_frobenius_are_prime_field():
    field = GF(2, 2)
    fixed = [a for a in field.elements() if a.frobenius() == a]
    assert len(fixed) == 2
    field = GF(3, 2)
    fixed = [a for a in field.elements() if a.frobenius() == a]
    assert len(fixed) == 3


def test_from_coords_roundtrip():
    field = GF(3, 2)
    seen = set()
    for i in range(3):
        for j in range(3):
            a = field.from_coords((i, j))
            assert tuple(a.val) == (i, j)
            seen.add((i, j))
    assert len(seen) == 9


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_f9_ring_laws_hypothesis(i, j, k):
    field = GF(3, 2)
    elems = list(field.elements())
    a, b, c = elems[i], elems[j], elems[k]
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_format_parse_agree_on_generator():
    field = GF(2, 2)
    w = field.gen
    assert field.format_elem(w) == "w"
    assert field.format_elem(field.one + w) == "1 + w"
    assert field.format_elem(field.zero) == "0"


# -- the tables against schoolbook arithmetic on coordinate tuples ------------

ORACLE = [GF(p, e) for p in range(2, 82) if _prime_factors(p) == [p] for e in range(1, 7) if p ** e <= 81]


def _school_add(field, a, b):
    return tuple((x + y) % field.p for x, y in zip(a, b))


def _school_mul(field, a, b):
    rem = _poly_divmod(_poly_mul_mod_p(list(a), list(b), field.p), field.modulus, field.p)[1]
    return tuple(rem + [0] * (field.e - len(rem)))


def _school_pow(field, a, n):
    out = (1,) + (0,) * (field.e - 1)
    for _ in range(n):
        out = _school_mul(field, out, a)
    return out


def _check_pair(field, a, b):
    assert (a + b).val == _school_add(field, a.val, b.val)
    assert (a * b).val == _school_mul(field, a.val, b.val)


def _check_unary(field, a):
    p = field.p
    one = (1,) + (0,) * (field.e - 1)
    assert (-a).val == tuple((-x) % p for x in a.val)
    assert a.frobenius().val == _school_pow(field, a.val, p)
    assert _school_pow(field, a.pth_root().val, p) == a.val
    if a:
        assert _school_mul(field, a.val, a.inverse().val) == one


@pytest.mark.parametrize("field", ORACLE, ids=lambda f: "q%d" % f.q)
def test_tables_match_schoolbook_arithmetic_exhaustively(field):
    elems = list(field.elements())
    for a in elems:
        _check_unary(field, a)
        for b in elems:
            _check_pair(field, a, b)


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5)])
def test_tables_match_schoolbook_arithmetic_on_a_sample(p, e):
    field = GF(p, e)
    rng = random.Random(p * 100 + e)
    elems = list(field.elements())
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        _check_pair(field, a, b)
        _check_unary(field, a)


@pytest.mark.parametrize("field", ORACLE + [GF(2, 8), GF(3, 5)], ids=lambda f: "q%d" % f.q)
def test_codes_are_the_coordinates_in_base_p(field):
    for code, a in enumerate(field.elements()):
        assert a.code == code
        assert field.from_coords(a.val) is a
        assert a.val == tuple((code // field.p ** i) % field.p for i in range(field.e))
    if field.e > 1:
        assert field.gen.code == field.p
        assert field.gen.val == (0, 1) + (0,) * (field.e - 2)


def test_fields_up_to_the_size_cap_build_quickly():
    assert MAX_Q == 2 ** 16
    for p, e in [(2, 16), (3, 10)]:
        start = time.perf_counter()
        field = FqSpec(p, e)
        assert time.perf_counter() - start < 2.0
        assert field.q == p ** e and field.gen ** (field.q - 1) == field.one


def test_fields_above_the_size_cap_are_refused():
    for p, e in [(2, 17), (3, 11), (65537, 1), (2, 10 ** 9)]:
        with pytest.raises(ValueError, match="2\\^16"):
            GF(p, e)

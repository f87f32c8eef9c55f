"""Artinian quotients and the inverse-monomial limit carrier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext.artinian import EElem, ERing
from frobext.poly import PolySpace, ring_over

from artinian_reference import ArtinianAlgebra


def test_reduce_is_multiplicative():
    ring = ring_over(2, 1, 2)
    alg = ArtinianAlgebra(ring, (2, 3))
    rng = random.Random(0)
    x, y = ring.gens()
    polys = [x, y, x * y, x**2 + y, (x + y) ** 3, ring.one]
    for f in polys:
        for g in polys:
            assert alg.reduce(f * g) == alg.reduce(alg.reduce(f) * g)
            assert alg.reduce(f * g) == alg.reduce(f * alg.reduce(g))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_ering_reduce_matches_the_algebra(data):
    p, e, d = (data.draw(st.sampled_from(vals)) for vals in ([2, 3], [1, 2], [1, 2]))
    n = data.draw(st.integers(1, 4))
    ring = ring_over(p, e, d)
    coords = st.lists(st.integers(0, p - 1), min_size=e, max_size=e)
    exps = st.tuples(*[st.integers(0, 2 * n)] * d)
    f = ring.zero
    for exp, c in data.draw(st.lists(st.tuples(exps, coords), max_size=8)):
        f = f + ring.monomial(exp, ring.field.from_coords(c))
    assert ERing(ring).reduce(f, n) == ArtinianAlgebra(ring, (n,) * d).reduce(f)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_raise_to_is_the_product_by_a_power_of_the_variables(data):
    # raise_to shifts exponents; the reference multiplies by (x1...xd)^k
    p, e, d = (data.draw(st.sampled_from(vals)) for vals in ([2, 3], [1, 2], [1, 2]))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 4))
    ring = ring_over(p, e, d)
    ering = ERing(ring)
    box = PolySpace.box(ring, n)  # the numerators at level n
    z = EElem(ering, n, box.from_coords(data.draw(st.lists(st.integers(0, p - 1), min_size=box.dim(), max_size=box.dim()))))
    raised = z.raise_to(n + k)
    assert raised.level == n + k
    xprod = ring.monomial((1,) * d, ring.field.one)
    assert raised.numer == ering.reduce(z.numer * xprod**k, n + k)
    assert raised == z


def test_algebra_dimension_is_product_of_exponents():
    ring = ring_over(3, 1, 2)
    alg = ArtinianAlgebra(ring, (2, 2))
    assert alg.dim_fq == 4
    assert alg.dim_fp() == 4
    assert ArtinianAlgebra(ring, (0, 2)).dim_fq == 0


def test_exponent_count_must_match_variables():
    ring = ring_over(2, 1, 2)
    with pytest.raises(ValueError):
        ArtinianAlgebra(ring, (2,))


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1)])
def test_eelem_normalization_and_equality(p, d):
    ring = ring_over(p, 1, d)
    ering = ERing(ring)
    one = ering.elem(ring.one, 1)
    xprod = ring.monomial((1,) * d, ring.field.one)
    # the same element written at a deeper level compares equal
    assert ering.elem(xprod, 2) == one
    assert ering.elem(xprod**2, 3) == one
    assert ering.elem(ring.zero, 3) == ering.zero()
    assert one != ering.zero()


def test_eelem_action_descends_the_levels():
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    x = ring.gens()[0]
    z = ering.elem(ring.one, 2)  # 1 over x^2
    assert z.act(x) == ering.elem(1, 1)
    assert z.act(x**2) == ering.zero()
    assert z.act(x**3) == ering.zero()


def test_eelem_pth_power_semilinearity():
    ring = ring_over(3, 1, 1)
    ering = ERing(ring)
    rng = random.Random(4)
    x = ring.gens()[0]
    for _ in range(25):
        lvl = rng.randrange(1, 3)
        za = ering.elem(ring.monomial((rng.randrange(lvl),)), lvl)
        zb = ering.elem(ring.monomial((rng.randrange(lvl),)), lvl)
        assert (za + zb).pth_power() == za.pth_power() + zb.pth_power()
        r = x + ring.one
        assert (za.act(r)).pth_power() == za.pth_power().act(r.frobenius())


@pytest.mark.parametrize("p,d,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_level_space_roundtrip(p, d, n):
    # a level-n numerator comes back from the lowest-terms form raised to n
    ring = ring_over(p, 1, d)
    ering = ERing(ring)
    box = PolySpace.box(ring, n)
    assert box.dim() == (n**d) * 1
    for f in box.basis_elems():
        assert box.coords(EElem(ering, n, f).normalize().raise_to(n).numer) == box.coords(f)


def test_level_space_rejects_deeper_elements():
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    deep = ering.elem(ring.one, 3)
    with pytest.raises(ValueError):
        deep.normalize().raise_to(2)


def test_socle_and_top_generator():
    ring = ring_over(2, 1, 2)
    ering = ERing(ring)
    soc = ering.elem(ring.field.one, 1)
    # the socle sits at level 1 and every variable kills it
    assert soc.normalize().level == 1
    for xi in ring.gens():
        assert soc.act(xi) == ering.zero()
    top = ering.elem(ring.one, 3)
    assert top.act(ring.monomial((2, 2), ring.field.one)) == soc

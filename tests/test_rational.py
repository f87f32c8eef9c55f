"""Univariate utilities and the bounded fraction slices."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext.linalg import flatten
from frobext.poly import ring_over
from frobext.rational import (
    BoundedRationalSpace,
    RationalBase,
    is_squarefree,
    u_divmod,
    u_gcd,
)

import rational_reference
from dense import coords, from_coords


def rand_upoly(ring, rng, deg):
    f = ring.zero
    for a in range(deg + 1):
        if rng.random() < 0.6:
            c = ring.field.from_coords(
                [rng.randrange(ring.field.p) for _ in range(ring.field.e)]
            )
            f = f + ring.monomial((a,), c)
    return f


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_division_identity(p, e):
    ring = ring_over(p, e, 1)
    rng = random.Random(p + e)
    for _ in range(60):
        f = rand_upoly(ring, rng, 6)
        g = rand_upoly(ring, rng, 3)
        if not g:
            continue
        q, r = u_divmod(f, g)
        assert q * g + r == f
        assert not r or r.total_degree() < g.total_degree()


def test_gcd_divides_both_and_is_monic():
    ring = ring_over(2, 1, 1)
    rng = random.Random(17)
    for _ in range(40):
        f, g = rand_upoly(ring, rng, 5), rand_upoly(ring, rng, 5)
        if not f or not g:
            continue
        h = u_gcd(f, g)
        assert not u_divmod(f, h)[1]
        assert not u_divmod(g, h)[1]
        assert h.terms[(h.total_degree(),)] == ring.field.one


def test_squarefree_against_exhaustive_factor_search():
    # brute force over F_2: f is squarefree iff no poly of degree >= 1 has
    # its square dividing f
    ring = ring_over(2, 1, 1)

    def all_polys(deg):
        for bits in itertools.product((0, 1), repeat=deg + 1):
            f = ring.zero
            for a, b in enumerate(bits):
                if b:
                    f = f + ring.monomial((a,))
            yield f

    for f in all_polys(4):
        if not f or f.total_degree() < 1:
            continue
        has_square = False
        for g in all_polys(2):
            if not g or g.total_degree() < 1:
                continue
            if not u_divmod(f, g * g)[1]:
                has_square = True
                break
        assert is_squarefree(f) == (not has_square), ring.format(f)


def test_base_rejects_bad_denominators():
    ring = ring_over(2, 1, 1)
    t = ring.gens()[0]
    with pytest.raises(ValueError):
        RationalBase(ring, t * t)  # not squarefree
    with pytest.raises(ValueError):
        RationalBase(ring, ring.one)  # constant
    ring2 = ring_over(3, 1, 1)
    t3 = ring2.gens()[0]
    with pytest.raises(ValueError):
        RationalBase(ring2, t3 + t3)  # 2t is not monic


def test_fraction_arithmetic_and_pth_power():
    ring = ring_over(3, 1, 1)
    t = ring.gens()[0]
    base = RationalBase(ring, t * (t + ring.one))
    f = base.fn(ring.one, 1)
    g = base.fn(t, 1)
    assert f + g - g == f
    cube = f.pth_power()
    assert cube.level == 3
    assert cube.numer == ring.one
    # (1/D)^p * D^(p-1) cancels back down to 1/D
    assert base.fn(base.D ** 2, 3) == base.fn(ring.one, 1)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
def test_bounded_space_roundtrip(p, e):
    ring = ring_over(p, e, 1)
    t = ring.gens()[0]
    base = RationalBase(ring, t * (t + ring.one))
    space = BoundedRationalSpace(base, N=2, B=2)
    assert space.dim() == (3 + 2 * 2) * e
    rng = random.Random(1)
    for b in space.basis_elems():
        vec = coords(space, b)
        assert sum(1 for v in vec if v) == 1
        got = from_coords(space, vec)
        assert got == b
    # a general combination survives the roundtrip
    combo = base.fn(t, 2) + base.fn(ring.one, 1) + base.fn(t * t, 0)
    assert from_coords(space, coords(space, combo)) == combo


def test_out_of_slice_elements_are_rejected():
    ring = ring_over(2, 1, 1)
    t = ring.gens()[0]
    base = RationalBase(ring, t)
    space = BoundedRationalSpace(base, N=1, B=1)
    with pytest.raises(ValueError):
        coords(space, base.fn(ring.one, 2))  # pole too deep
    with pytest.raises(ValueError):
        coords(space, base.fn(t**5, 0))  # degree too big


def presentation(fn):
    return fn.level, fn.numer


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_slice_matches_the_hand_laid_reference(data):
    p = data.draw(st.sampled_from([2, 3]))
    e = data.draw(st.integers(1, 3))
    ring = ring_over(p, e, 1)
    t = ring.gens()[0]
    deg = data.draw(st.integers(1, 3))
    N, B = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    D = t**deg + rand_upoly(ring, rng, deg - 1)
    while not is_squarefree(D):
        D = t**deg + rand_upoly(ring, rng, deg - 1)
    base = RationalBase(ring, D)
    new = BoundedRationalSpace(base, N, B)
    old = rational_reference.BoundedRationalSpace(base, N, B)
    assert new.dim() == old.dim() == (B + 1 + N * deg) * e
    basis = list(new.basis_elems())
    assert list(map(presentation, basis)) == list(map(presentation, old.basis_elems()))
    samples = []
    for _ in range(6):
        vec = [rng.randrange(p) for _ in range(new.dim())]
        assert presentation(from_coords(new, vec)) == presentation(old.from_coords(vec))
        z = old.from_coords(vec)
        for fn in (z, z.raise_to(z.level + rng.randint(1, 3))):
            assert coords(new, fn) == old.coords(fn) == vec
            samples.append(fn)
    assert flatten(samples + basis, new, p) == flatten(samples + basis, old, p)
    # a pole too deep, a degree too high, another base: both refuse
    for fn in (base.fn(ring.one, N + 1), base.fn(t ** (B + 1), 0), RationalBase(ring, D).fn(ring.one, 1)):
        for space in (new, old):
            with pytest.raises(ValueError):
                coords(space, fn)
    # a random fraction, in or out of the slice: both agree or both refuse
    for _ in range(8):
        level = rng.randint(0, N + 1)
        fn = base.fn(rand_upoly(ring, rng, rng.randint(0, B + 1 + level * deg)), level)
        try:
            want = old.coords(fn)
        except ValueError:
            with pytest.raises(ValueError):
                coords(new, fn)
        else:
            assert coords(new, fn) == want

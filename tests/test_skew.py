"""The twisted polynomial ring F r = r^p F and the tail-map machinery."""

import random

import pytest

from frobext.poly import ring_over
from frobext.skew import (
    FreeCartierCarrier,
    FreeSkewElem,
    SeqWindow,
    SkewElem,
    frob_power,
    h_dual_apply,
    in_image_hdual,
    residue_trace,
    skew_mul,
    two_step_maps,
)


def rand_poly(ring, rng, deg=4):
    f = ring.zero
    for _ in range(3):
        exp = tuple(rng.randrange(deg + 1) for _ in range(ring.d))
        if sum(exp) > deg:
            continue
        c = ring.field.from_coords(
            [rng.randrange(ring.field.p) for _ in range(ring.field.e)]
        )
        f = f + ring.monomial(exp, c)
    return f


def rand_skew(ring, rng):
    return SkewElem(
        ring, {rng.randrange(3): rand_poly(ring, rng) for _ in range(rng.randrange(1, 3))}
    )


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 1), (2, 2, 2)])
def test_skew_multiplication_laws_bulk(p, e, d):
    # 500 random triples: associativity and both distributive laws
    ring = ring_over(p, e, d)
    rng = random.Random(31 * p + d)
    for _ in range(500):
        a, b, c = (rand_skew(ring, rng) for _ in range(3))
        assert skew_mul(skew_mul(a, b), c) == skew_mul(a, skew_mul(b, c))
        assert skew_mul(a, b + c) == skew_mul(a, b) + skew_mul(a, c)
        assert skew_mul(a + b, c) == skew_mul(a, c) + skew_mul(b, c)


def test_defining_relation():
    ring = ring_over(3, 1, 1)
    x = ring.gens()[0]
    F = SkewElem.of(ring, ring.one, 1)
    r = SkewElem.of(ring, x + 1)
    # F r = r^p F
    assert skew_mul(F, r) == SkewElem(ring, {1: (x + 1) ** 3})
    assert frob_power(x + ring.one, 2) == (x + 1) ** 9


@pytest.mark.parametrize("p,d", [(2, 1), (3, 2)])
def test_right_action_twist_law(p, d):
    # the defining relation pushed to right modules:
    # ((m (x) F^i) . F) . r == ((m (x) F^i) . r^p) . F
    ring = ring_over(p, 1, d)
    carrier = FreeCartierCarrier(ring, 1)
    rng = random.Random(5)
    for _ in range(100):
        m = FreeSkewElem(carrier, {rng.randrange(3): (rand_poly(ring, rng),)})
        r = rand_poly(ring, rng, deg=2)
        assert m.act_F().act_ring(r) == m.act_ring(r.frobenius()).act_F()


def test_mixing_twists_raises_value_error():
    # the guards are checks, not asserts: they hold under python -O
    ring = ring_over(2, 1, 1)
    carrier = FreeCartierCarrier(ring, 1)
    plain = FreeSkewElem(carrier, {0: (ring.one,)}, 0)
    twisted = FreeSkewElem(carrier, {0: (ring.one,)}, 1)
    alpha, beta = two_step_maps(carrier)
    with pytest.raises(ValueError, match="twist 0 and 1"):
        plain + twisted
    with pytest.raises(ValueError, match="alpha takes twist-1"):
        alpha(plain)
    with pytest.raises(ValueError, match="beta takes twist-0"):
        beta(twisted)


def test_right_action_is_associative_over_skew_elements():
    ring = ring_over(2, 1, 1)
    carrier = FreeCartierCarrier(ring, 2)
    rng = random.Random(12)
    for _ in range(100):
        m = FreeSkewElem(
            carrier, {rng.randrange(2): (rand_poly(ring, rng), rand_poly(ring, rng))}
        )
        a, b = rand_skew(ring, rng), rand_skew(ring, rng)
        assert m.act_skew(skew_mul(a, b)) == m.act_skew(a).act_skew(b)


def test_seq_window_grows_on_demand():
    ring = ring_over(2, 1, 1)
    w = SeqWindow(ring, 0, 1)
    w.set(5, ring.one)
    assert w.get(5) == ring.one
    assert w.get(-3) == ring.zero
    assert 5 in w.support()


def test_hdual_formula_on_a_point_mass():
    # s supported at slot 0 only: out_0 = sign * s_0^p, out_1 = -sign * s_0
    ring = ring_over(3, 1, 1)
    x = ring.gens()[0]
    s = SeqWindow(ring, 0, 0, {0: x})
    out = h_dual_apply(s, [SeqWindow(ring, 0, 0)])
    assert out.get(0) == -(x**3)
    assert out.get(1) == x
    # the t-part enters through multiplication by the variables
    t = SeqWindow(ring, 0, 0, {0: ring.one})
    out2 = h_dual_apply(SeqWindow(ring, 0, 0), [t])
    assert out2.get(0) == x


@pytest.mark.parametrize("p", [2, 3])
def test_residue_trace_forces_constant_ladder(p):
    ring = ring_over(p, 1, 1)
    target = SeqWindow(ring, 0, 0, {0: ring.one})
    trace, proven = residue_trace(ring, target)
    assert proven  # a nonzero forced residue rules out every window
    assert any(v for v in trace.values())


@pytest.mark.parametrize("p", [2, 3])
def test_hdual_sat_verdicts_are_monotone_in_the_bounds(p):
    # anything SAT in a window stays SAT in every containing window
    ring = ring_over(p, 1, 1)
    x = ring.gens()[0]
    target = SeqWindow(ring, 0, 0, {0: x})
    base = in_image_hdual(ring, target, (-2, 2), 2)
    assert base["verdict"] == "SAT"
    for window, bound in [((-3, 2), 2), ((-2, 3), 2), ((-2, 2), 3), ((-4, 4), 4)]:
        again = in_image_hdual(ring, target, window, bound)
        assert again["verdict"] == "SAT"


def test_hdual_unsat_certificate_is_checkable():
    ring = ring_over(2, 1, 1)
    target = SeqWindow(ring, 0, 0, {0: ring.one})
    rep = in_image_hdual(ring, target, (-3, 3), 2)
    assert rep["verdict"] == "UNSAT"
    assert rep["proven"]
    assert rep["certificate"], "the bounded refutation ships a functional"

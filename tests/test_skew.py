"""The twisted polynomial ring F r = r^p F and the tail-map machinery."""

import random

import pytest

from frobext.cli import run_scenario_file
from frobext.fmodules import ShiftRInf
from frobext.poly import ring_over
from frobext.skew import (
    FreeCartierCarrier,
    SkewElem,
    format_seq,
    frob_power,
    h_dual_apply,
    in_image_hdual,
    residue_trace,
    skew_mul,
)

from two_step_reference import SkewModuleElem, two_step_maps


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
        m = SkewModuleElem(carrier, {rng.randrange(3): (rand_poly(ring, rng),)})
        r = rand_poly(ring, rng, deg=2)
        assert m.act_F().act_ring(r) == m.act_ring(r.frobenius()).act_F()


def test_mixing_twists_raises_value_error():
    # the guards are checks, not asserts: they hold under python -O
    ring = ring_over(2, 1, 1)
    carrier = FreeCartierCarrier(ring, 1)
    plain = SkewModuleElem(carrier, {0: (ring.one,)}, 0)
    twisted = SkewModuleElem(carrier, {0: (ring.one,)}, 1)
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
        m = SkewModuleElem(
            carrier, {rng.randrange(2): (rand_poly(ring, rng), rand_poly(ring, rng))}
        )
        a, b = rand_skew(ring, rng), rand_skew(ring, rng)
        assert m.act_skew(skew_mul(a, b)) == m.act_skew(a).act_skew(b)


def test_hdual_formula_on_a_point_mass():
    # s supported at slot 0 only: out_0 = sign * s_0^p, out_1 = -sign * s_0
    ring = ring_over(3, 1, 1)
    x = ring.gens()[0]
    out = h_dual_apply(ring, {0: x}, [{}])
    assert out[0] == -(x**3)
    assert out[1] == x
    # the t-part enters through multiplication by the variables
    out2 = h_dual_apply(ring, {}, [{0: ring.one}])
    assert out2[0] == x


def test_hdual_sat_witness_is_re_verified(monkeypatch):
    # the re-verification is an explicit raise, so it holds under python -O:
    # a solver answer that the dual tail map does not send to the target
    # is refused
    from frobext import skew

    ring = ring_over(2, 1, 1)
    target = {0: ring.gens()[0]}
    assert in_image_hdual(ring, target, (-2, 0), 2)["verdict"] == "SAT"
    solve = skew.solve_with_certificate

    def broken(A, b, p):
        x, cert = solve(A, b, p)
        return [(x[0] + 1) % p] + x[1:], cert

    monkeypatch.setattr(skew, "solve_with_certificate", broken)
    with pytest.raises(RuntimeError, match="witness check failed"):
        in_image_hdual(ring, target, (-2, 0), 2)


def _random_seq(ring, rng, lo, hi):
    """A dict j -> nonzero polynomial on slots lo..hi; empty one time in four."""
    if rng.random() < 0.25:
        return {}
    return {j: f for j in range(lo, hi + 1) if (f := rand_poly(ring, rng, deg=2))}


def _report(path, text):
    path.write_text(text)
    rep, code = run_scenario_file(str(path))
    rep.pop("elapsed_ms")
    return rep, code


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_hdual_matches_the_slotwise_formula_and_formats(p, e, d, tmp_path):
    ring = ring_over(p, e, d)
    gens = ring.gens()
    zero = ring.zero
    rng = random.Random(100 * p + 10 * e + d)
    for _ in range(20):
        s = _random_seq(ring, rng, -3, 1)
        ts = [_random_seq(ring, rng, -3, 1) for _ in range(d)]
        # out_j = (-1)^d (s_j^p - s_(j-1)) + sum_i x_i t_(i,j), slot by slot
        # over the window plus one, zero slots dropped
        want = {}
        for j in range(-3, 3):
            v = (-1) ** d * (s.get(j, zero) ** p - s.get(j - 1, zero))
            for x, t in zip(gens, ts):
                v = v + x * t.get(j, zero)
            if v:
                want[j] = v
        assert h_dual_apply(ring, s, ts) == want

    x1 = gens[0]
    c = ring.field.from_coords([1] * e)  # 1, or 1 + w over F_4 and F_9
    coeff = "x1" if e == 1 else "(1 + w)*x1"
    z = {0: ring.one, -2: x1 * c}
    assert format_seq(ring, {}) == "0"
    assert format_seq(ring, z) == "-2: %s; 0: 1" % coeff
    assert ShiftRInf(ring).format({}) == "0"
    assert ShiftRInf(ring).format(z) == "(%s)*z[-2] + (1)*z[0]" % coeff

    # a zero slot in a ShiftRInf target is no slot at all
    head = "task: as-solve\np: %d\ne: %d\nd: %d\nmodule: ShiftRInf\n" % (p, e, d)
    with_zero = _report(tmp_path / "zero.scenario", head + "target: 0: 0; 1: x1\n")
    without = _report(tmp_path / "plain.scenario", head + "target: 1: x1\n")
    assert with_zero == without
    assert with_zero[0]["target"] == "(x1)*z[1]"


@pytest.mark.parametrize("p", [2, 3])
def test_residue_trace_forces_constant_ladder(p):
    ring = ring_over(p, 1, 1)
    target = {0: ring.one}
    trace, proven = residue_trace(ring, target)
    assert proven  # a nonzero forced residue rules out every window
    assert any(v for v in trace.values())


@pytest.mark.parametrize("p", [2, 3])
def test_hdual_sat_verdicts_are_monotone_in_the_bounds(p):
    # anything SAT in a window stays SAT in every containing window
    ring = ring_over(p, 1, 1)
    x = ring.gens()[0]
    target = {0: x}
    base = in_image_hdual(ring, target, (-2, 2), 2)
    assert base["verdict"] == "SAT"
    for window, bound in [((-3, 2), 2), ((-2, 3), 2), ((-2, 2), 3), ((-4, 4), 4)]:
        again = in_image_hdual(ring, target, window, bound)
        assert again["verdict"] == "SAT"


def test_hdual_unsat_certificate_is_checkable():
    ring = ring_over(2, 1, 1)
    target = {0: ring.one}
    rep = in_image_hdual(ring, target, (-3, 3), 2)
    assert rep["verdict"] == "UNSAT"
    assert rep["proven"]
    assert rep["certificate"], "the bounded refutation ships a functional"

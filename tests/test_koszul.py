"""Koszul complexes on pure-power sequences."""

import pytest

from frobext.poly import ring_over

from koszul_reference import KoszulComplex, koszul_window_report


@pytest.mark.parametrize(
    "p,d,exps", [(2, 1, (2,)), (2, 2, (1, 1)), (3, 2, (2, 1)), (2, 3, (1, 2, 1)), (3, 3, (2, 1, 1))]
)
def test_d_squared_is_zero_symbolically(p, d, exps):
    ring = ring_over(p, 1, d)
    fs = [g**a for g, a in zip(ring.gens(), exps)]
    K = KoszulComplex(ring, fs)
    assert K.d_squared_is_zero()


def test_ranks_are_binomials():
    ring = ring_over(2, 1, 2)
    x, y = ring.gens()
    K = KoszulComplex(ring, [x, y])
    assert [K.rank(j) for j in range(3)] == [1, 2, 1]
    assert K.rank(-1) == 0 and K.rank(3) == 0


def test_two_variable_middle_differential():
    # the middle map of the length-2 complex is (f0, f1) as a single row,
    # and the top map is the signed column (-f1, f0)
    ring = ring_over(3, 1, 2)
    x, y = ring.gens()
    K = KoszulComplex(ring, [x, y])
    assert K.differential({(0,): ring.one}) == {(): x}
    assert K.differential({(1,): ring.one}) == {(): y}
    assert K.differential({(0, 1): ring.one}) == {(0,): -y, (1,): x}


@pytest.mark.parametrize("p,exps", [(2, (2,)), (3, (1, 1))])
def test_windowed_exactness(p, exps):
    ring = ring_over(p, 1, len(exps))
    fs = [g**a for g, a in zip(ring.gens(), exps)]
    K = KoszulComplex(ring, fs)
    report = koszul_window_report(K, cap=3)
    assert report["passed"], report


def test_quotient_algebra_matches_exponents():
    ring = ring_over(2, 1, 2)
    x, y = ring.gens()
    K = KoszulComplex(ring, [x**2, y**3])
    assert K.quotient_algebra().exponents == (2, 3)

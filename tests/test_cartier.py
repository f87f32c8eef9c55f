"""Cartier structures on Artinian carriers, their two-step presentations,
and the glued resolution."""

import functools
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext import cartier, linalg, skew
from frobext.artinian import ArtinianAlgebra
from frobext.cartier import (
    ArtinianCartierModule,
    _augment_matrix,
    _dual_matrix,
    _flatten_diff,
    _reads,
    cone_acyclicity_report,
    cone_window,
    ext_dim_free_target,
    ext_rf,
    random_module,
    scaled_module,
    standard_module,
    unit_transpose_map,
    unitalize_report,
    zero_structure_module,
)
from frobext.cli import run_scenario_file
from frobext.field import GF
from frobext.fmodules import coker_formula
from frobext.linalg import (
    SparseMatrix,
    flatten,
    kernel_basis,
    keyed,
    matrix_of_map,
    solve,
)
from frobext.poly import PolySpace, add_at, monomials_box, random_poly, ring_over, unit_digits
from frobext.skew import (
    check_two_step_exact,
    two_step_matrices,
    two_step_witnesses,
)

from cartier_reference import (
    ConeComplex,
    FreeTarget,
    _cross_block_is_zero,
    _dual_images,
    ext_r_dims,
    ext_r_twisted_dims,
    ext_split_check,
    flatten_diff,
    free_transpose_roundtrip,
    intersection_dim,
    reads_reference,
    unit_transpose_report,
    whole_matrix_q,
)
from dense import from_coords, reembed, sparse
from two_step_reference import (
    SkewModuleElem,
    check_with_alpha,
    flatten_two_step,
    graded_skew_space,
    two_step_maps,
    two_step_witness,
)


def module_zoo(p):
    """Assorted structures over F_p[x], every carrier of F_p-dimension <= 8."""
    ring = ring_over(p, 1, 1)
    a2 = ArtinianAlgebra(ring, (2,))
    a3 = ArtinianAlgebra(ring, (3,))
    a4 = ArtinianAlgebra(ring, (4,))
    x = ring.gens()[0]
    return [
        standard_module(a2),
        standard_module(a4),
        zero_structure_module(a3),
        scaled_module(a2, x),
        random_module(a2, rank=2, seed=11),
        random_module(a3, rank=2, seed=5),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_structure_law_holds_across_the_zoo(p):
    for module in module_zoo(p):
        module.structure_check()  # raises StructureError on a bad map


@pytest.mark.parametrize("p", [2, 3])
def test_two_step_exactness_across_the_zoo(p):
    for module in module_zoo(p):
        report = check_two_step_exact(module, 4)
        assert report["passed"], report


@pytest.mark.parametrize("p", [2, 3])
def test_beta_prefix_columns_are_beta_on_the_shorter_window(p):
    # check_two_step_exact takes the beta-kernel on F-degree <= dmax-1 from
    # the first sub.dim() columns of the flattened beta
    for module in module_zoo(p):
        beta = two_step_maps(module)[1]
        for dmax in range(1, 5):
            _, bmap, _, _ = flatten_two_step(module, dmax)
            sub = graded_skew_space(module, dmax - 1)
            ref = matrix_of_map(sub.basis_elems(), beta, module.space(), p)
            assert np.array_equal(np.asarray(bmap.mat)[:, : sub.dim()], np.asarray(ref.mat))
            assert bmap.mat.first_columns(sub.dim()) == ref.mat


@pytest.mark.parametrize("p", [2, 3])
def test_beta_alpha_composes_to_zero_symbolically(p):
    for module in module_zoo(p):
        alpha, beta = two_step_maps(module)
        ring = module.ring
        for i in range(3):
            for m in module.space().basis_elems():
                z = SkewModuleElem(module, {i: m}, twist=1)
                img = beta(alpha(z))
                assert module.eq(img, module.zero())


def closed_form_witness(module, y):
    """x_j = -sum_{k>j} phi^(k-j-1)(y_k), each term from scratch: the
    reference for the recurrence in two_step_witness."""
    n = max(y.terms, default=0)
    out = {}
    for j in range(n):
        acc = module.zero()
        for k in range(j + 1, n + 1):
            if k in y.terms:
                acc = module.add(acc, module.phi_iter(y.terms[k], k - j - 1))
        out[j] = module.neg(acc)
    return SkewModuleElem(module, out, 1)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_two_step_witness_recurrence_matches_the_closed_form(p, e):
    # beta-kernel rows over F_4 and F_9 with a rank-2 random structure; the
    # sums of two rows have gaps below the top degree
    ring = ring_over(p, e, 1)
    module = random_module(ArtinianAlgebra(ring, (2,)), rank=2, seed=17)
    alpha, _ = two_step_maps(module)
    _, bmap, _, cod = flatten_two_step(module, 4)
    rows = np.asarray(kernel_basis(bmap.mat, p)).tolist()
    assert len(rows) > 8
    for vec in rows + [[(a + b) % p for a, b in zip(u, v)] for u, v in zip(rows, rows[3:])]:
        y = from_coords(cod, vec)
        x = two_step_witness(module, y)
        assert x == closed_form_witness(module, y)
        assert alpha(x) == y


@pytest.mark.parametrize("p", [2, 3])
def test_mutated_alpha_is_detected(p, monkeypatch):
    ring = ring_over(p, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)))
    amap, _, dom, cod = flatten_two_step(module, 3)
    bad = np.asarray(amap.mat)
    col = next(c for c in range(bad.shape[1]) if bad[:, c].any())
    if p == 2:
        bad[:, col] = 0  # a sign flip is invisible in characteristic 2
    else:
        bad[:, col] = (-bad[:, col]) % p
    report = check_with_alpha(monkeypatch, module, 3, sparse(bad, p))
    assert not report["passed"]


@pytest.mark.parametrize("p", [2, 3])
def test_mutated_structure_map_is_detected(p, monkeypatch):
    # feed the two-step check the alpha of a *different* structure
    ring = ring_over(p, 1, 1)
    x = ring.gens()[0]
    alg = ArtinianAlgebra(ring, (2,))
    honest = standard_module(alg)
    tampered = scaled_module(alg, x)
    amap, _, _, _ = flatten_two_step(tampered, 3)
    report = check_with_alpha(monkeypatch, honest, 3, amap.mat)
    assert not report["passed"]


def test_zero_rank_module_passes_vacuously():
    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)), rank=0)
    assert check_two_step_exact(module, 3)["passed"]


def _draw_module(data, algebra, rank):
    """A module on `algebra` with a drawn standard, zero, scaled or random
    structure."""
    structure = data.draw(st.sampled_from(["standard", "zero", "scaled", "random"]), "structure")
    seed = data.draw(st.integers(0, 50), "seed")
    if structure == "random":
        return random_module(algebra, rank, seed)
    if structure == "scaled":
        lam = random_poly(algebra.ring, algebra.space.mons, random.Random(seed), 0.5)
        return scaled_module(algebra, lam, rank)
    return (standard_module if structure == "standard" else zero_structure_module)(algebra, rank)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_direct_two_step_assembly_matches_the_symbolic_reference(data):
    # alpha, beta and the witnesses assembled from the one matrix of phi
    # against matrix_of_map over the symbolic maps of two_step_reference
    p = data.draw(st.sampled_from([2, 3]), "p")
    e = data.draw(st.integers(1, 2), "e")
    d = data.draw(st.integers(1, 2), "d")
    rank = data.draw(st.integers(0, 2), "rank")
    exps = tuple(data.draw(st.lists(st.integers(1, 2), min_size=d, max_size=d), "exponents"))
    dmax = data.draw(st.integers(1, 5), "dmax")
    module = _draw_module(data, ArtinianAlgebra(ring_over(p, e, d), exps), rank)
    amap, bmap, dom, cod = flatten_two_step(module, dmax)
    A, B = two_step_matrices(module, dmax)
    assert A == amap.mat
    assert B == bmap.mat
    kernel = kernel_basis(B.first_columns(dom.dim()), p)
    ys = [cod.from_row(row) for row in kernel.rows]
    ref = matrix_of_map(ys, lambda y: two_step_witness(module, y), dom, p)
    assert two_step_witnesses(B, kernel, p) == ref.mat.T


@pytest.mark.parametrize("p,e,dmax", [(2, 2, 4), (3, 1, 6)])
def test_two_step_check_never_calls_phi(p, e, dmax, monkeypatch):
    # the cost gate, counted rather than timed: the check reads the matrix
    # Phi that the carrier wrote by the digit rule, and never calls phi
    module = random_module(ArtinianAlgebra(ring_over(p, e, 2), (2, 2)), rank=2, seed=3)
    calls = []
    phi = ArtinianCartierModule.phi

    def counted(self, a):
        calls.append(a)
        return phi(self, a)

    monkeypatch.setattr(ArtinianCartierModule, "phi", counted)
    assert check_two_step_exact(module, dmax)["passed"]
    assert calls == []


@pytest.mark.parametrize("p,e,dmax", [(2, 2, 4), (2, 2, 6), (3, 1, 6)])
def test_two_step_check_reduces_no_alpha_row_and_multiplies_by_phi_only_for_beta(p, e, dmax, monkeypatch):
    # the cost gate, counted rather than timed: taken bottom up, alpha's rows
    # above block 0 pivot where they start and already reach full column
    # rank, so alpha's kernel needs no row reduction; the witnesses are read
    # off beta's Phi^i blocks, so the only products are beta's dmax powers of
    # Phi, beta.alpha and alpha's image of the witnesses
    module = random_module(ArtinianAlgebra(ring_over(p, e, 2), (2, 2)), rank=2, seed=3)
    alpha_shape = two_step_matrices(module, dmax)[0].shape
    subs, kernels, products = [], [], []
    sub_multiple, kernel_basis_, product = linalg._sub_multiple, skew.kernel_basis, skew.product

    def counted_sub(*args):
        subs.append(args)
        return sub_multiple(*args)

    def counted_kernel(A, q):
        before = len(subs)
        out = kernel_basis_(A, q)
        kernels.append((A.shape, len(subs) - before))
        return out

    def counted_product(*args):
        products.append(args)
        return product(*args)

    monkeypatch.setattr(linalg, "_sub_multiple", counted_sub)
    monkeypatch.setattr(skew, "kernel_basis", counted_kernel)
    monkeypatch.setattr(skew, "product", counted_product)
    assert check_two_step_exact(module, dmax)["passed"]
    assert [n for shape, n in kernels if shape == alpha_shape] == [0]
    assert len(products) == dmax + 2


@pytest.mark.parametrize("block", [0, 1, 2])
def test_a_corrupted_power_block_fails_the_witness_check(block, monkeypatch):
    # mutation: the witnesses read one wrong entry off beta's Phi^block;
    # alpha is injective, so alpha of a wrong witness misses its kernel row,
    # while beta.alpha, alpha's kernel and the cover stay honest
    p, dmax = 3, 4
    module = random_module(ArtinianAlgebra(ring_over(p, 1, 2), (2, 2)), rank=2, seed=3)
    honest = skew.two_step_witnesses

    def corrupted(B, kernel, q):
        rows, at = [dict(row) for row in B.rows], block * len(B.rows)
        rows[0][at] = 2 if rows[0].get(at) == 1 else 1
        return honest(SparseMatrix(rows, B.ncols), kernel, q)

    assert check_two_step_exact(module, dmax)["passed"]
    monkeypatch.setattr(skew, "two_step_witnesses", corrupted)
    report = check_two_step_exact(module, dmax)
    assert not report["passed"] and not report["witness_formula_ok"]
    assert report["beta_alpha_zero"] and report["alpha_injective"] and report["kernel_covered"]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_carrier_matrices_match_the_symbolic_flatten(data):
    # Phi (the digit rule), M(x^a) and M(w) (shifts) and the unit transpose
    # against matrix_of_map over the symbolic phi and act, on carriers with
    # zero exponents (the zero algebra) and d = 0 included
    p = data.draw(st.sampled_from([2, 3, 5]), "p")
    e = data.draw(st.integers(1, 2), "e")
    d = data.draw(st.integers(0, 3), "d")
    rank = data.draw(st.integers(0, 2), "rank")
    exps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d), "exponents"))
    module = _draw_module(data, ArtinianAlgebra(ring_over(p, e, d), exps), rank)
    ring, space = module.ring, module.space()
    basis = list(space.basis_elems())
    assert module.Phi == matrix_of_map(basis, module.phi, space, p).mat
    c = tuple(data.draw(st.lists(st.integers(0, 2 * p), min_size=d, max_size=d), "c"))
    w = random_poly(ring, monomials_box(d, (4,) * d), random.Random(data.draw(st.integers(0, 99), "w")), 0.4)
    for r in (ring.monomial(c), w, ring.zero):
        assert module.times(r) == matrix_of_map(basis, lambda y: module.act(r, y), space, p).mat
    digits = list(itertools.product(range(p), repeat=d))
    cod = keyed(digits, space)
    tau = matrix_of_map(basis, lambda y: {a: module.phi(module.act(ring.monomial(a), y)) for a in digits}, cod, p)
    assert unit_transpose_map(module) == (tau.mat, digits)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_cone_shape_and_differential(p, d):
    ring = ring_over(p, 1, d)
    module = standard_module(ArtinianAlgebra(ring, (1,) * d))
    cone = ConeComplex(module)
    assert cone.length == d + 1
    assert cone.d_squared_on_generators()
    assert cone.right_linearity_check()
    counts = [cone.generator_count(n) for n in range(cone.length + 1)]
    from math import comb

    expected = [comb(d, n) + (comb(d, n - 1) if n >= 1 else 0) for n in range(d + 2)]
    assert counts == expected
    if d == 1:
        assert counts == [1, 2, 1]


def test_cone_refuses_a_zero_exponent():
    # x1^0 = 1 is a unit, so x1^0, x2 is not a regular sequence
    module = standard_module(ArtinianAlgebra(ring_over(2, 1, 2), (0, 1)))
    with pytest.raises(ValueError, match="exponent >= 1"):
        cartier.ConeComplex(module)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cone_wedge_blocks_are_the_koszul_differential(p, d):
    # the plain part of d on a plain generator is the Koszul differential,
    # and the twisted part of d on a twisted generator is minus it, at every
    # spot, for any coefficient and F-degree
    ring = ring_over(p, 1, d)
    cone = ConeComplex(random_module(ArtinianAlgebra(ring, tuple(range(1, d + 1))), rank=2, seed=d))
    K = cone.koszul
    rng = random.Random(10 * p + d)
    mons = monomials_box(d, (3,) * d)
    for n in range(cone.length + 1):
        for part, S, s, *_ in cone.generator_keys(n):
            g = random_poly(ring, mons, rng, 0.5) or ring.one
            i = rng.randrange(2)
            image = cone.differential(n, {(part, S, s, i): g})
            wedge = K.differential({S: g})
            if part == "D":
                assert image == {("D", T, s, i): h for T, h in wedge.items()}
            else:
                twisted = {key: h for key, h in image.items() if key[0] == "C"}
                assert twisted == {("C", T, s, i): -h for T, h in wedge.items()}


def _draw_cone(data):
    """A cone on a drawn module, with a (cap, dfmax) window and a growth of
    the domain's cap, as in the sweep's growth rounds."""
    p = data.draw(st.sampled_from([2, 3, 5]), "p")
    e = data.draw(st.integers(1, 2), "e")
    d = data.draw(st.integers(1, 3), "d")
    rank = data.draw(st.integers(0, 2), "rank")
    exps = tuple(data.draw(st.lists(st.integers(1, 2), min_size=d, max_size=d), "exponents"))
    cap, dfmax = data.draw(st.integers(0, 2), "cap"), data.draw(st.integers(0, 2), "dfmax")
    grow = data.draw(st.integers(0, 2), "grow")
    return ConeComplex(_draw_module(data, ArtinianAlgebra(ring_over(p, e, d), exps), rank)), cap, dfmax, grow


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cone_window_matrix_matches_the_symbolic_reference(data):
    # d_n's matrix written by index arithmetic against the flattening of
    # ConeComplex.differential into the grown codomain window, on every
    # spot, with rows mapped back: the (cap, dfmax) window's rows come
    # first, in its layout, and the other rows are the reference's nonzero
    # rows outside that window, in some order.  At spot 0, the
    # augmentation's matrix (Phi^i after the projection onto the box)
    # against the flattening of ConeComplex.augment
    cone, cap, dfmax, grow = _draw_cone(data)
    p = cone.p
    dom = cone_window(cone, 0, cap + grow, dfmax)
    ref = matrix_of_map(dom.basis_elems(), cone.augment, cone.module.space(), p).mat
    assert _augment_matrix(cone, dom) == ref
    for n in range(1, cone.length + 1):
        dom = cone_window(cone, n, cap + grow, dfmax)
        A = _flatten_diff(cone, n, dom, cap, dfmax)
        ref, ref_cod = flatten_diff(cone, n, dom, cap, dfmax)
        win = cone_window(cone, n - 1, cap, dfmax)
        m = win.dim()
        # where each window coordinate sits in the reference's grown window
        at = [min(row) for row in reembed(SparseMatrix([{r: 1} for r in range(m)], m), win, ref_cod).rows]
        assert A.ncols == ref.ncols and len(A.rows) <= len(ref.rows)
        assert A.rows[:m] == [ref.rows[r] for r in at]
        assert all(A.rows[m:])  # a row past the window is there only if a column reaches it
        outside = set(range(len(ref.rows))) - set(at)
        rest = Counter(frozenset(row.items()) for row in A.rows[m:])
        assert rest == Counter(frozenset(ref.rows[r].items()) for r in outside if ref.rows[r])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cone_cycles_are_solved_in_their_window_layout(data):
    # the sweep hands each spot's window cycles to solve unchanged, since its
    # window is the first rows of d_(n+1); the verdict must be the one that
    # the symbolic reference gives with the cycles re-embedded in its grown
    # codomain window.  Drawn rows of the window, mostly not boundaries, and
    # the unit rows that no column of d_(n+1) reaches give the other verdict
    cone, cap, dfmax, grow = _draw_cone(data)
    p = cone.p
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), "seed"))
    for n in range(cone.length):
        win = cone_window(cone, n, cap, dfmax)
        A = _flatten_diff(cone, n, win, cap, dfmax) if n else _augment_matrix(cone, win)
        dom = cone_window(cone, n + 1, cap + grow, dfmax)
        B = _flatten_diff(cone, n + 1, dom, cap, dfmax)
        ref, ref_cod = flatten_diff(cone, n + 1, dom, cap, dfmax)
        m = win.dim()
        unreached = [{r: 1} for r in range(m) if not B.rows[r]][:2]
        drawn = [{r: rng.randrange(1, p) for r in rng.sample(range(m), min(m, 3))} for _ in range(2)]
        cases = [kernel_basis(A, p).rows] + [[row] for row in drawn + unreached]
        hit = [solve(B, SparseMatrix(targets, len(B.rows)), p) is not None for targets in cases]
        assert hit == [solve(ref, reembed(SparseMatrix(t, m), win, ref_cod), p) is not None for t in cases]
        assert not any(hit[len(cases) - len(unreached) :])


def _flat(z):
    """A symbolic cone element as a flat one: (key, m) -> F_p digits."""
    return {(key, m): list(c.val) for key, g in z.items() for m, c in g.terms.items()}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cone_apply_matches_the_symbolic_differential(data):
    # ConeComplex.apply, which reads the index rule, against the reference's
    # polynomial differential on drawn elements of every spot: keys at
    # F-degree 0..2, monomials past the digit box and F_q coefficients
    cone = _draw_cone(data)[0]
    ring, p, d = cone.ring, cone.p, cone.d
    for n in range(1, cone.length + 1):
        keys = list(dict.fromkeys(key[:3] for key in cone.generator_keys(n)))
        z = {}
        for _ in range(data.draw(st.integers(0, 4) if keys else st.just(0), "terms")):
            key = data.draw(st.sampled_from(keys), "key") + (data.draw(st.integers(0, 2), "i"),)
            m = data.draw(st.lists(st.integers(0, 2 * p), min_size=d, max_size=d), "m")
            digits = data.draw(st.lists(st.integers(0, p - 1), min_size=ring.field.e, max_size=ring.field.e), "u")
            add_at(z, key, ring.monomial(m, ring.field.from_coords(digits)))
        assert cone.apply(_flat(z)) == _flat(cone.differential(n, z))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_reads_match_the_symbolic_differential(data):
    # the dual differential's index, read off the rule, against the one read
    # off the symbolic images of the generators, key and term order included
    cone = _draw_cone(data)[0]
    for n in range(cone.length + 1):
        assert list(_reads(cone, n).items()) == list(reads_reference(cone, n).items())


def _patch_rule(monkeypatch, change):
    """Make `ConeComplex.rule` write each term (row, exps, ds) of a key as
    change(cone, key, row, exps, ds) does, a builder bug; None drops it."""
    rule = cartier.ConeComplex.rule

    def patched(cone, mons):
        terms = rule(cone, mons)
        return lambda key: [t for term in terms(key) if (t := change(cone, key, *term)) is not None]

    monkeypatch.setattr(cartier.ConeComplex, "rule", patched)


def _mutated(mutation, cone, key, row, exps, ds):
    """A term of d as one of three builder bugs writes it: the F-shift
    dropped, the twisted boundary's sign flipped, or the lift's p-th root
    dropped."""
    field, p = cone.ring.field, cone.p
    if mutation == "shift" and key[0] == "C" and row[3] > key[3]:
        return None
    if mutation == "sign" and key[0] == row[0] == "C":
        ds = [[(t, -x % p) for t, x in dx] for dx in ds]
    if mutation == "root" and key[0] == "C" and row[0] == "D" and row[3] == key[3]:
        values = (field.from_coords([dict(dx).get(t, 0) for t in range(field.e)]) for dx in ds)
        ds = unit_digits(v**p for v in values)
    return row, exps, ds


@pytest.mark.parametrize(
    "mutation,name",
    [
        ("shift", "cone-d1"),
        ("shift", "cone-f4-r2"),
        ("sign", "cone-d2-f3"),
        ("sign", "cone-p5-d1"),
        ("root", "cone-f4-r2"),
    ],
)
def test_the_cone_report_certifies_the_rule(mutation, name, monkeypatch):
    # the report's d . d = 0 check reads the rule that builds the sweep's
    # matrices, so a builder bug in that rule fails the report
    path = str(Path(__file__).parent.parent / "corpus" / (name + ".scenario"))
    assert run_scenario_file(path)[0]["differential_squares_to_zero"]
    _patch_rule(monkeypatch, functools.partial(_mutated, mutation))
    report = run_scenario_file(path)[0]
    assert not report["differential_squares_to_zero"] and not report["passed"]


def _capped(cone, key, row, exps, ds):  # every row's F-degree capped at 1
    return row[:3] + (min(row[3], 1),), exps, ds


def _doubled(cone, key, row, exps, ds):  # boundary exponents doubled
    return row, [tuple(2 * y for y in x) for x in exps] if row[0] == key[0] else exps, ds


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_right_linearity_check_reads_the_rule(d, seed, monkeypatch):
    # the check holds on the rule, and fails on a rule that is not
    # F-equivariant (also at d = 0) or not x_l-equivariant
    cone = ConeComplex(random_module(ArtinianAlgebra(ring_over(3, 1, d), (2,) * d), 2, seed))
    assert cone.right_linearity_check(seed)
    for change in [_capped, _doubled] if d else [_capped]:
        _patch_rule(monkeypatch, change)
        assert not cone.right_linearity_check(seed)
        monkeypatch.undo()


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_cone_windowed_acyclicity(p, d):
    ring = ring_over(p, 1, d)
    module = standard_module(ArtinianAlgebra(ring, (1,) * d))
    cone = ConeComplex(module)
    report = cone_acyclicity_report(cone, cap=1, dfmax=2)
    assert report["passed"], report


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_coker_formula_matches_exhaustive_count(p, e):
    field = GF(p, e)
    image = {a.frobenius() - a for a in field.elements()}
    classes = len(set(field.elements())) // len(image)
    assert coker_formula(field) == 1
    assert classes == p  # q/|image| = p for every finite field


@pytest.mark.parametrize("p", [2, 3])
def test_top_ext_against_free_target(p):
    ring = ring_over(p, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (1,)))
    top = ext_rf(module, ring, 2)
    assert top["dim"] == 1 and top["stable"]
    above = ext_rf(module, ring, 3)
    assert above["dim"] == 0 and above["structural_zero"]


@pytest.mark.parametrize("p", [2, 3])
def test_top_ext_against_free_target_at_d3(p):
    # the theorem's witness one dimension up: Ext^(d+1) is one-dimensional
    # and stable, and the cone's length d+1 makes Ext^(d+2) a structural zero
    ring = ring_over(p, 1, 3)
    module = standard_module(ArtinianAlgebra(ring, (1, 1, 1)))
    top = ext_rf(module, ring, 4)
    assert (top["dim"], top["stable"]) == (1, True), top
    above = ext_rf(module, ring, 5)
    assert above["dim"] == 0 and above["structural_zero"], above


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3), (2, 4)])
def test_cone_resolution_at_d3_and_d4(p, d):
    # global dimension d+1 beyond AC2's d in {1, 2}: the cone has length
    # d+1, squares to zero and is acyclic on the window cap 1, dfmax 2
    module = standard_module(ArtinianAlgebra(ring_over(p, 1, d), (1,) * d))
    cone = ConeComplex(module)
    assert cone.length == d + 1
    assert cone.d_squared_on_generators()
    report = cone_acyclicity_report(cone, cap=1, dfmax=2)
    assert report["passed"], report


def _check_closure_against_whole_matrix(module, j, **caps):
    """Every cap entry of the closure walk's report against the whole-matrix
    q(L); returns the report."""
    cone = ConeComplex(module)
    target = FreeTarget(module.ring)
    rep = ext_dim_free_target(cone, j, **caps)
    gap = caps.get("gap")
    if gap is None:
        gap = cone.p + sum(module.algebra.exponents)
    for entry in rep["caps"]:
        assert entry["dim"] == whole_matrix_q(cone, target, j, entry["cap"], gap), (j, caps, rep)
    return rep


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_free_target_closure_matches_the_whole_matrix(data):
    p = data.draw(st.sampled_from([2, 3, 5]), "p")
    e = data.draw(st.integers(1, 2), "e")
    d = 1 if p == 5 else data.draw(st.integers(1, 2), "d")
    rank = data.draw(st.integers(1, 2), "rank")
    exps = tuple(data.draw(st.lists(st.integers(1, 2), min_size=d, max_size=d), "exponents"))
    algebra = ArtinianAlgebra(ring_over(p, e, d), exps)
    structure = data.draw(st.sampled_from(["standard", "zero", "random"]), "structure")
    if structure == "random":
        module = random_module(algebra, rank, data.draw(st.integers(0, 50), "seed"))
    else:
        module = (standard_module if structure == "standard" else zero_structure_module)(algebra, rank)
    caps = {
        "cap": data.draw(st.integers(0, 2), "cap"),
        "gap": data.draw(st.sampled_from([0, 1, None]), "gap"),
        "max_rounds": data.draw(st.integers(1, 3), "max_rounds"),
    }
    _check_closure_against_whole_matrix(module, data.draw(st.integers(0, d + 1), "j"), **caps)


def test_free_target_closure_matches_the_whole_matrix_at_d3():
    module = standard_module(ArtinianAlgebra(ring_over(2, 1, 3), (1, 1, 1)))
    _check_closure_against_whole_matrix(module, 4)


@pytest.mark.parametrize(
    "p,e,exps,structure,j,max_rounds,dims,stable",
    [
        (3, 2, (2,), "scaled:1 + x1", 2, 1, [2, 1], False),
        (2, 2, (1, 2), "standard", 3, 2, [3, 1, 1], True),
        # cap 1 needs boundaries that the bound turned away at cap 0
        (3, 1, (2,), "zero", 2, 1, [1, 0], False),
    ],
)
def test_free_target_caps_that_change_match_the_whole_matrix(p, e, exps, structure, j, max_rounds, dims, stable):
    # q moves with the cap here, so each cap resumes a walk and an
    # elimination that a smaller cap left behind
    ring = ring_over(p, e, len(exps))
    algebra = ArtinianAlgebra(ring, exps)
    if structure in ("standard", "zero"):
        module = (standard_module if structure == "standard" else zero_structure_module)(algebra)
    else:
        module = scaled_module(algebra, ring.parse(structure[len("scaled:") :]))
    rep = _check_closure_against_whole_matrix(module, j, cap=0, gap=0, max_rounds=max_rounds)
    assert [entry["dim"] for entry in rep["caps"]] == dims
    assert rep["stable"] is stable


def test_row_space_contains():
    # v lies in the row span iff the span meets the line through v
    p = 2
    rows = sparse(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64), p)
    assert intersection_dim(rows, sparse(np.array([[1, 1, 0]]), p), p) == 1
    assert intersection_dim(rows, sparse(np.array([[0, 0, 1]]), p), p) == 0


def test_intersection_dim_by_enumeration():
    # members of both spans, brute forced: a fixed pair and seeded small ones
    span = lambda B, p: {
        tuple((c @ B) % p) for c in itertools.product(range(p), repeat=B.shape[0])
    }
    cases = [(2, np.array([[1, 0, 1], [0, 1, 0]]), np.array([[1, 1, 1]]))]
    rng = np.random.default_rng(5)
    for p in (2, 3):
        for _ in range(10):
            n, ku, kv = (int(x) for x in rng.integers(1, 4, size=3))
            cases.append((p, rng.integers(0, p, size=(ku, n)), rng.integers(0, p, size=(kv, n))))
    for p, U, V in cases:
        both = span(U, p) & span(V, p)
        assert p ** intersection_dim(sparse(U, p), sparse(V, p), p) == len(both), (p, U, V)


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 1, 3)])
def test_reembedded_cycles_match_the_coordinate_round_trip(p, e, d):
    # ext_dim_free_target, the cone sweep and the Koszul window report move
    # their cycles into a wider layout by an index map; the reference
    # rebuilds each row as an element and flattens it again
    ring = ring_over(p, e, d)
    cone = ConeComplex(standard_module(ArtinianAlgebra(ring, (1,) * d)))
    target = FreeTarget(ring)
    rng = random.Random(p * 100 + e * 10 + d)
    cases = []  # (dom, amb, cycles in dom)
    for j in range(cone.length + 1):
        for L in (1, 2):
            dom = cone.hom_space(j, target.space(L))
            amb = cone.hom_space(j, target.space(L + 3))
            images = _dual_images(cone, target, j, dom)
            cod = cone.hom_space(j + 1, target.space(2 * L + 2 * p))
            cases.append((dom, amb, kernel_basis(flatten(images, cod, p), p)))
    for n in range(cone.length):
        # a cone window and the one grown in cap and dfmax, as in the sweep
        dom = cone_window(cone, n, 1, 1)
        A = _flatten_diff(cone, n, dom, 1, 1)
        cases.append((dom, cone_window(cone, n, 3, 2), kernel_basis(A, p)))
    K = cone.koszul
    small, big, bigger = (PolySpace.box(ring, c) for c in (1, 2, 3))
    for j in range(1, K.k + 1):
        dom = keyed(K.subsets(j), small)
        dj = matrix_of_map(dom.basis_elems(), K.differential, keyed(K.subsets(j - 1), big), p)
        cases.append((dom, keyed(K.subsets(j), bigger), kernel_basis(dj.mat, p)))
    for dom, amb, cycles in cases:
        n = dom.dim()
        drawn = [{c: rng.randrange(1, p) for c in rng.sample(range(n), min(n, 4))} for _ in range(3)]
        for rows in (cycles, SparseMatrix(drawn, n)):
            reference = flatten((dom.from_row(row) for row in rows.rows), amb, p).T
            assert reembed(rows, dom, amb) == reference


def _run_top_spot(tmp_path, p, d, limit):
    """The free-target top spot at (p, d) as a `frobext run` child whose
    address space is capped at `limit` bytes; returns its report."""
    path = tmp_path / "top.scenario"
    exps = ",".join("1" * d)
    path.write_text("task: ext-rf\np: %d\nd: %d\nexponents: %s\nj: %d\ntarget: free\n" % (p, d, exps, d + 1))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = subprocess.run(
        [sys.executable, "-m", "frobext.cli", "run", str(path)],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_ext_rf_top_spot_at_d3_runs_in_a_gib(tmp_path):
    # p = 2, d = 3: the whole boundary matrix at cap 2 is 25000 x 10648, 2 GiB
    # as a dense int64 array; the closure the cycles reach has 1,586 columns
    rep = _run_top_spot(tmp_path, 2, 3, 1 << 30)
    assert (rep["dim"], rep["stable"]) == (1, True)


def test_ext_rf_top_spot_at_d4_runs_in_512_mib(tmp_path):
    # p = 2, d = 4: the whole boundary side has 1.86M functionals at cap 3
    # (40 s and 1.9 GB when it was assembled); the closure runs in ~70 MB
    rep = _run_top_spot(tmp_path, 2, 4, 512 << 20)
    assert (rep["dim"], rep["stable"]) == (1, True)


def _evaluate_hom(cone, target, fvals, z):
    """Evaluate a Hom element (finitely supported key -> value dict) on a
    cone element, using right R{F}-linearity:

        f(g . e' (x) F^i) = phiN^i( sum_b digit_b(g) * f(x^b . e') )
        f(g . e  (x) F^i) = phiN^i( g * f(e) )

    `_dual_images` indexes this sum for unit functionals; this direct form
    is the reference it is checked against."""
    ring = cone.ring
    acc = target.zero()
    for (part, S, s, i), g in z.items():
        if part == "C":
            inner = target.zero()
            for b, w in ring.frobenius_digits(g).items():
                v = fvals.get(("C", S, s, b))
                if v is not None and w:
                    inner = target.add(inner, target.act(w, v))
        else:
            v = fvals.get(("D", S, s))
            if v is None:
                continue
            inner = target.act(g, v)
        acc = target.add(acc, target.phi_iter(inner, i))
    return acc


def _dual_targets(p, d):
    """(module, target, value space) triples: a rank-2 random structure into
    itself, and the standard structure into the free target at two caps."""
    ring = ring_over(p, 1, d)
    exps = (2,) * d
    module = random_module(ArtinianAlgebra(ring, exps), rank=2, seed=3)
    out = [(module, module, module.space())]
    free = FreeTarget(ring)
    for cap in (1, 2):
        out.append((standard_module(ArtinianAlgebra(ring, exps)), free, free.space(cap)))
    return out


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_indexed_dual_images_match_evaluate_hom(p, d):
    for module, target, nspace in _dual_targets(p, d):
        cone = ConeComplex(module)
        for n in range(cone.length + 1):
            dom = cone.hom_space(n, nspace)
            fast = _dual_images(cone, target, n, dom)
            bounded = [(key, cone.differential(n + 1, g)) for key, g in cone.generators(n + 1)]
            slow = []
            for fvals in dom.basis_elems():
                values = ((key, _evaluate_hom(cone, target, fvals, dz)) for key, dz in bounded)
                slow.append({key: v for key, v in values if not target.eq(v, target.zero())})
            assert len(fast) == len(slow) == dom.dim()
            if target is module:  # a finite carrier holds every value
                cod = cone.hom_space(n + 1, nspace)
                assert _dual_matrix(cone, target, n) == flatten(slow, cod, p)
            else:
                exps = (exp for img in fast + slow for v in img.values() for exp in v.terms)
                cap = max((max(exp) for exp in exps), default=0)
                cod = cone.hom_space(n + 1, target.space(cap))
            assert flatten(fast, cod, p) == flatten(slow, cod, p)


def test_trivial_action_ext_splits_as_a_direct_sum():
    ring = ring_over(2, 1, 1)
    module = zero_structure_module(ArtinianAlgebra(ring, (1,)))
    rep = ext_split_check(module, module)
    assert rep["split"]
    assert rep["dims"] == [1, 2, 1]
    assert rep["cross_block_zero"]


def test_standard_action_does_not_split():
    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (1,)))
    rep = ext_split_check(module, module)
    assert not rep["split"]


def test_plain_ring_ext_dims_for_the_point():
    # R/(x) against itself over R = F_2[x]: one dimension at each spot
    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (1,)))
    assert ext_r_dims(module, module) == [1, 1]


# (p, d, exponent) where the seed-7 rank-2 random structure's cross block
# vanishes; for every other case in the grid below it does not
RANDOM_CROSS_BLOCK_ZERO = {(2, 1, 1), (2, 2, 1)}


@pytest.mark.parametrize("structure", ["standard", "zero", "random"])
@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_plain_and_twisted_blocks_are_pinned(p, d, a, structure):
    # the "D" and "C" blocks of the cone's dual complex against pinned
    # values, which separate wedge complexes over R also give: for
    # A = R/(x1^a..xd^a), Ext_R^j(A^r, A^r) = (A^(r*r))^C(d,j), and the
    # p-th power relabeled copy has the same dimensions
    from math import comb

    alg = ArtinianAlgebra(ring_over(p, 1, d), (a,) * d)
    if structure == "random":
        module = random_module(alg, rank=2, seed=7)
    else:
        module = (standard_module if structure == "standard" else zero_structure_module)(alg)
    want = [module.rank**2 * a**d * comb(d, j) for j in range(d + 1)]
    assert ext_r_dims(module, module) == want
    assert ext_r_twisted_dims(module, module) == want
    cross_zero = structure == "zero" or (structure == "random" and (p, d, a) in RANDOM_CROSS_BLOCK_ZERO)
    assert _cross_block_is_zero(ConeComplex(module), module) == cross_zero


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_unit_transpose_is_injective_for_standard_structure(p, d):
    ring = ring_over(p, 1, d)
    module = standard_module(ArtinianAlgebra(ring, (2,) * d))
    rep = unit_transpose_report(module)
    assert rep["injective"]
    assert rep["rank"] == rep["domain_dim"]
    assert rep["codomain_dim"] == (p**d) * rep["domain_dim"]


def test_unit_transpose_degenerates_with_zero_structure():
    ring = ring_over(2, 1, 1)
    module = zero_structure_module(ArtinianAlgebra(ring, (2,)))
    rep = unit_transpose_report(module)
    assert rep["rank"] == 0 and not rep["injective"]


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_free_transpose_roundtrip(p, d):
    ring = ring_over(p, 1, d)
    assert free_transpose_roundtrip(ring, cap=2 * p)


def test_unitalize_tower_dimensions():
    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)))
    rep = unitalize_report(module, levels=3)
    # p^d digit directions fan out each level
    assert rep["level_dims"] == [2, 4, 8, 16]
    assert rep["all_transitions_injective"]
    assert rep["composite_rank"] == 2


def test_structure_check_rejects_a_matrix_off_the_twist_law():
    from frobext.linalg import StructureError

    # over F_2[x1,x2]/(x1^3, x2^3) the standard phi fixes x1^2*x2^2, the
    # last basis vector, which the six sampled columns do not reach
    module = standard_module(ArtinianAlgebra(ring_over(2, 1, 2), (3, 3)))
    assert module.Phi.rows[8] == {8: 1}
    module.Phi.rows[8] = {}
    with pytest.raises(StructureError, match="twist law"):
        module.structure_check()


def test_structure_check_rejects_nonadditive_tampering():
    from frobext.linalg import StructureError

    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)))

    real_phi = module.phi

    def bad_phi(y):
        out = real_phi(y)
        return tuple(f + ring.one for f in out)

    module.phi = bad_phi
    try:
        with pytest.raises(StructureError):
            module.structure_check()
    finally:
        module.phi = real_phi

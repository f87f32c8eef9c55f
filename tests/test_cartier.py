"""Cartier structures on Artinian carriers, their two-step presentations,
and the glued resolution."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frobext.artinian import ArtinianAlgebra
from frobext.cartier import (
    ArtinianCartierModule,
    ConeComplex,
    FreeTarget,
    _cross_block_is_zero,
    _dual_images,
    _flatten_diff,
    _is_zero_value,
    _value_degree,
    coker_formula,
    cone_acyclicity_report,
    cone_window,
    ext_r_dims,
    ext_r_twisted_dims,
    ext_rf,
    ext_split_check,
    free_transpose_roundtrip,
    random_module,
    scaled_module,
    standard_module,
    unit_transpose_report,
    unitalize_report,
    zero_structure_module,
)
from frobext.field import GF
from frobext.linalg import (
    SparseMatrix,
    flatten,
    kernel_basis,
    keyed,
    matrix_of_map,
    reembed,
)
from frobext.poly import PolySpace, monomials_box, random_poly, ring_over
from frobext.skew import (
    FreeSkewElem,
    check_two_step_exact,
    flatten_two_step,
    graded_skew_space,
    two_step_maps,
    two_step_witness,
)

from dense import sparse


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
    from frobext.skew import FreeSkewElem

    for module in module_zoo(p):
        alpha, beta = two_step_maps(module)
        ring = module.ring
        for i in range(3):
            for m in module.space().basis_elems():
                z = FreeSkewElem(module, {i: m}, twist=1)
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
    return FreeSkewElem(module, out, 1)


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
        y = cod.from_coords(vec)
        x = two_step_witness(module, y)
        assert x == closed_form_witness(module, y)
        assert alpha(x) == y


@pytest.mark.parametrize("p", [2, 3])
def test_mutated_alpha_is_detected(p):
    ring = ring_over(p, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)))
    amap, _, dom, cod = flatten_two_step(module, 3)
    bad = np.asarray(amap.mat)
    col = next(c for c in range(bad.shape[1]) if bad[:, c].any())
    if p == 2:
        bad[:, col] = 0  # a sign flip is invisible in characteristic 2
    else:
        bad[:, col] = (-bad[:, col]) % p
    report = check_two_step_exact(module, 3, alpha_override=sparse(bad, p))
    assert not report["passed"]


@pytest.mark.parametrize("p", [2, 3])
def test_mutated_structure_map_is_detected(p):
    # feed the two-step check the alpha of a *different* structure
    ring = ring_over(p, 1, 1)
    x = ring.gens()[0]
    alg = ArtinianAlgebra(ring, (2,))
    honest = standard_module(alg)
    tampered = scaled_module(alg, x)
    amap, _, _, _ = flatten_two_step(tampered, 3)
    report = check_two_step_exact(honest, 3, alpha_override=amap.mat)
    assert not report["passed"]


def test_zero_rank_module_passes_vacuously():
    ring = ring_over(2, 1, 1)
    module = standard_module(ArtinianAlgebra(ring, (2,)), rank=0)
    assert check_two_step_exact(module, 3)["passed"]


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
    target = FreeTarget(ring)
    top = ext_rf(module, target, 2)
    assert top["dim"] == 1 and top["stable"]
    above = ext_rf(module, target, 3)
    assert above["dim"] == 0 and above["structural_zero"]


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
        A, _ = _flatten_diff(cone, n, dom, 1, 1)
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


def test_ext_rf_top_spot_at_d3_runs_in_a_gib(tmp_path):
    # p = 2, d = 3: the top spot's widest matrix is 25000 x 10648 with
    # 25,998 nonzeros, 2 GiB as a dense int64 array
    path = tmp_path / "top.scenario"
    path.write_text("task: ext-rf\np: 2\nd: 3\nexponents: 1,1,1\nj: 4\ntarget: free\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    run = subprocess.run(
        [sys.executable, "-m", "frobext.cli", "run", str(path)],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    rep = json.loads(run.stdout)
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
                slow.append({key: v for key, v in values if not _is_zero_value(target, v)})
            assert len(fast) == len(slow) == dom.dim()
            if target.exact:  # a finite carrier holds every value
                cod = cone.hom_space(n + 1, nspace)
            else:
                cap = max([0] + [_value_degree(target, img) for img in fast + slow])
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

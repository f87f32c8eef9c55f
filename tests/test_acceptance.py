"""The gate: eleven pinned end-to-end checks, one test each.

Every test prints a PASS/FAIL line in the terminal summary (see conftest).
Bounds, dimensions, and runtimes are hard assertions — a drift in any of
them fails the suite.
"""

import itertools
import random
import time

import numpy as np
import pytest

from frobext.artinian import ArtinianAlgebra, EElem, ERing
from frobext.cartier import (
    ConeComplex,
    cone_acyclicity_report,
    ext_rf,
    random_module,
    scaled_module,
    standard_module,
    zero_structure_module,
)
from frobext.field import GF
from frobext.fmodules import (
    ShiftRInf,
    StdE,
    StdR,
    artin_schreier,
    as_solve,
    coker_formula,
    ext1_class,
    hom_fr,
    rational_class_distinct,
    shift_ses_check,
)
from frobext.poly import PolySpace, ring_over
from frobext.rational import RationalBase
from frobext.skew import (
    check_two_step_exact,
    h_dual_apply,
    in_image_hdual,
)

from cartier_reference import ext_split_check
from dense import sparse
from two_step_reference import check_with_alpha, flatten_two_step

SIZE_CAP = 2**8


def module_zoo(p):
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


def all_space_elems(space):
    p = space.p
    for vec in itertools.product(range(p), repeat=space.dim()):
        yield space.from_coords(list(vec))


def test_ac1_two_step_exactness_with_mutation_detection(criterion, monkeypatch):
    with criterion(1, "two-step exactness on 12 small modules, mutants caught"):
        t0 = time.perf_counter()
        for p in (2, 3):
            zoo = module_zoo(p)
            assert len(zoo) >= 5
            for module in zoo:
                assert module.space().dim() <= 8
                report = check_two_step_exact(module, 4)
                assert report["passed"], report

            # a corrupted inclusion map must be rejected
            ring = ring_over(p, 1, 1)
            module = standard_module(ArtinianAlgebra(ring, (2,)))
            amap, _, _, _ = flatten_two_step(module, 3)
            bad = np.asarray(amap.mat)
            col = next(c for c in range(bad.shape[1]) if bad[:, c].any())
            if p == 2:
                bad[:, col] = 0
            else:
                bad[:, col] = (-bad[:, col]) % p
            mutated = check_with_alpha(monkeypatch, module, 3, sparse(bad, p))
            assert not mutated["passed"]

            # the inclusion of a *different* structure must be rejected too
            alg = ArtinianAlgebra(ring, (2,))
            foreign, _, _, _ = flatten_two_step(scaled_module(alg, ring.gens()[0]), 3)
            crossed = check_with_alpha(monkeypatch, standard_module(alg), 3, foreign.mat)
            assert not crossed["passed"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed


def test_ac2_cone_resolution_shape_and_acyclicity(criterion):
    with criterion(2, "cone: d∘d = 0, windowed acyclicity, length d+1"):
        t0 = time.perf_counter()
        for p in (2, 3):
            for d in (1, 2):
                ring = ring_over(p, 1, d)
                module = standard_module(ArtinianAlgebra(ring, (1,) * d))
                cone = ConeComplex(module)
                assert cone.length == d + 1
                assert cone.d_squared_on_generators()
                for cap in (1, 2):
                    report = cone_acyclicity_report(cone, cap=cap, dfmax=2)
                    assert report["passed"], (p, d, cap, report)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed


def test_ac3_top_ext_equals_cokernel_dimension(criterion):
    with criterion(3, "top ext dim = 1 = cokernel dim; zero one step above"):
        t0 = time.perf_counter()
        for p, e in ((2, 1), (2, 2), (3, 1)):
            assert coker_formula(GF(p, e)) == 1
            for d in (1, 2):
                ring = ring_over(p, e, d)
                module = standard_module(ArtinianAlgebra(ring, (1,) * d))
                top = ext_rf(module, ring, d + 1)
                assert top["dim"] == 1 and top["stable"], top
                above = ext_rf(module, ring, d + 2)
                assert above["dim"] == 0 and above["structural_zero"], above
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed


def test_ac4_vanishing_structure_maps_split_the_ext_table(criterion):
    with criterion(4, "zero-structure ext dims (1, 2, 1), both sides agree"):
        ring = ring_over(2, 1, 1)
        module = zero_structure_module(ArtinianAlgebra(ring, (1,)))
        rep = ext_split_check(module, module)
        assert rep["dims"] == [1, 2, 1]
        assert rep["sum"] == [1, 2, 1]
        assert rep["split"] and rep["cross_block_zero"]


def test_ac5_tail_dual_misses_the_delta_sequence(criterion):
    with criterion(5, "z0 refuted on every window ≤ 9, bound ≤ 4; controls SAT"):
        for p in (2, 3):
            ring = ring_over(p, 1, 1)
            z0 = {0: ring.one}
            for width in range(1, 10):
                for lo in range(-width, 1):
                    hi = lo + width - 1
                    if hi < -1:
                        continue  # codomain window must reach slot 0
                    for bound in range(0, 5):
                        rep = in_image_hdual(ring, z0, (lo, hi), bound)
                        assert rep["verdict"] == "UNSAT", (p, lo, hi, bound)
                        assert rep["proven"], (p, lo, hi, bound)
            # first control: x * z0 is hit by a pure tail term
            x = ring.gens()[0]
            ctrl1 = in_image_hdual(ring, {0: x}, (0, 0), 0)
            assert ctrl1["verdict"] == "SAT"
            # second control: the image of the delta sequence itself
            target = h_dual_apply(ring, {0: ring.one}, [{}])
            ctrl2 = in_image_hdual(ring, target, (0, 0), 1)
            assert ctrl2["verdict"] == "SAT"


def test_ac6_socle_classes_are_obstructed_and_distinct(criterion):
    with criterion(6, "socle target UNSAT-proven; 4+ classes over the 4-element field"):
        for p in (2, 3):
            for d in (1, 2):
                ring = ring_over(p, 1, d)
                m = StdE(ERing(ring))
                rep = as_solve(m, m.ering.elem(1, 1))
                assert rep["verdict"] == "UNSAT" and rep["proven"], (p, d, rep)

        ring = ring_over(2, 2, 1)
        m = StdE(ERing(ring))
        field = ring.field
        units = [u for u in field.elements() if u != field.zero]
        assert len(units) == 3
        socles = [m.ering.elem(u, 1) for u in units]
        for s in socles:
            rep = as_solve(m, s)
            assert rep["verdict"] == "UNSAT" and rep["proven"]
        for a, b in itertools.combinations(socles, 2):
            rep = ext1_class(m, a, b)
            assert not rep["equivalent"] and rep["proven"]
        # three nonzero classes pairwise distinct, plus the zero class: >= 4


def test_ac7_shifted_sum_sequence_never_splits(criterion):
    with criterion(7, "shifted-sum sequence exact and non-split through N = 5"):
        ring = ring_over(2, 1, 1)
        for n in range(1, 6):
            rep = shift_ses_check(ring, nmax=n)
            assert rep["exact"], (n, rep)
            assert not rep["split"], (n, rep)
            assert rep["passed"], (n, rep)


def test_ac8_rational_classes_separate_at_small_bounds(criterion):
    with criterion(8, "all pole pairs distinct over the 4- and 8-element fields"):
        for e in (2, 3):
            ring = ring_over(2, e, 1)
            t = ring.gens()[0]
            field = ring.field
            for a, b in itertools.combinations(list(field.elements()), 2):
                base = RationalBase(ring, (t - ring.coerce(a)) * (t - ring.coerce(b)))
                rep = rational_class_distinct(base, a, b, level_bound=3, degree_bound=3)
                assert rep["distinct"] and rep["proven"], (e, a, b, rep)


def test_ac9_additive_class_counts_across_all_small_fields(criterion):
    with criterion(9, "p classes in every field up to 81 elements; 10^4 linearity samples"):
        specs = (
            [(2, e) for e in range(1, 7)]
            + [(3, e) for e in range(1, 5)]
            + [(5, 1), (5, 2), (7, 1), (7, 2)]
            + [(p, 1) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)]
        )
        fields = []
        for p, e in specs:
            field = GF(p, e)
            elems = list(field.elements())
            assert len(elems) == p**e <= 81
            image = {a.frobenius() - a for a in elems}
            assert len(elems) // len(image) == p
            assert len(image) * p == len(elems)
            fields.append((field, elems, p))

        rng = random.Random(2026)
        samples = 0
        while samples < 10**4:
            field, elems, p = fields[samples % len(fields)]
            a, b = rng.choice(elems), rng.choice(elems)
            wp = lambda v: v.frobenius() - v
            assert wp(a + b) == wp(a) + wp(b)
            c = rng.randrange(p)
            ca = field.zero
            for _ in range(c):
                ca = ca + a
            cwa = field.zero
            for _ in range(c):
                cwa = cwa + wp(a)
            assert wp(ca) == cwa
            samples += 1


def test_ac10_ring_endomorphism_space_is_one_line(criterion):
    with criterion(10, "hom dim 1, truncation-stable, for p = 2, 3 and e = 1, 2"):
        for p in (2, 3):
            for e in (1, 2):
                ring = ring_over(p, e, 1)
                rep = hom_fr(StdR(ring), StdR(ring))
                assert rep["dim"] == 1, (p, e, rep)
                assert rep["dims"] == [1, 1]
                assert rep["stable"] and rep["proven"]


# -- criterion 11: solver vs. enumeration on every small-enough space ----------


def _poly_configs():
    for p, e, d in itertools.product((2, 3, 5), (1, 2), (1, 2)):
        for bound in range(0, 8):
            ring = ring_over(p, e, d)
            space = PolySpace.total_degree(ring, bound)
            if p**space.dim() <= SIZE_CAP:
                yield ring, space


def _level_configs():
    for p, e, d in itertools.product((2, 3), (1, 2), (1, 2)):
        for n in range(1, 9):
            ring = ring_over(p, e, d)
            box = PolySpace.box(ring, n)  # the numerators at level n
            if p**box.dim() <= SIZE_CAP:
                yield ERing(ring), box, n


def _shift_configs():
    # (p, window, target bound, witness bound): the forced recurrence keeps
    # any witness inside [lo+1, hi] with degrees below p^(hi-lo-1) * bound
    for p in (2, 3):
        for lo, hi in ((0, 0), (-1, 0), (0, 1), (-1, 1), (0, 2)):
            for bound in (0, 1):
                wb = bound * p ** max(hi - lo - 1, 0)
                ring = ring_over(p, 1, 1)
                tspace = PolySpace.total_degree(ring, bound)
                wspace = PolySpace.total_degree(ring, wb)
                tdim = (hi - lo + 1) * tspace.dim()
                wdim = max(hi - lo, 0) * wspace.dim()
                if p**tdim <= SIZE_CAP and p**wdim <= SIZE_CAP:
                    yield ring, (lo, hi), bound, wb


def _hdual_configs():
    for p, d in itertools.product((2, 3), (1, 2)):
        for lo in range(-2, 3):
            for hi in range(lo, 3):
                for bound in (0, 1, 2):
                    ring = ring_over(p, 1, d)
                    dom = PolySpace.total_degree(ring, bound)
                    cod = PolySpace.total_degree(ring, max(p * bound, bound + 1))
                    dom_dim = (1 + d) * (hi - lo + 1) * dom.dim()
                    cod_dim = (hi - lo + 2) * cod.dim()
                    if p**dom_dim <= SIZE_CAP and p**cod_dim <= SIZE_CAP:
                        yield ring, (lo, hi), bound, dom, cod


def test_ac11_solvers_agree_with_exhaustive_enumeration(criterion):
    with criterion(11, "solver verdicts = brute-force membership on every space ≤ 2^8"):
        checked = 0

        for ring, space in _poly_configs():
            m = StdR(ring)
            image = [artin_schreier(m, y) for y in all_space_elems(space)]
            for u in all_space_elems(space):
                rep = as_solve(m, u)
                assert (rep["verdict"] == "SAT") == (u in image), (ring.format(u), rep)
                checked += 1

        for ering, box, n in _level_configs():
            m = StdE(ering)
            level_n = [EElem(ering, n, f) for f in all_space_elems(box)]
            image = [artin_schreier(m, z) for z in level_n]
            for u in level_n:
                rep = as_solve(m, u, level_bound=n)
                assert (rep["verdict"] == "SAT") == (u in image), (repr(u), rep)
                checked += 1

        for ring, (lo, hi), bound, wb in _shift_configs():
            m = ShiftRInf(ring)
            wspace = PolySpace.total_degree(ring, wb)
            wslots = list(range(lo + 1, hi + 1))
            image = []
            for vec in itertools.product(
                range(ring.field.p), repeat=len(wslots) * wspace.dim()
            ):
                entries = {}
                for k, j in enumerate(wslots):
                    entries[j] = wspace.from_coords(
                        list(vec[k * wspace.dim() : (k + 1) * wspace.dim()])
                    )
                image.append(artin_schreier(m, m.coerce(entries)))
            tspace = PolySpace.total_degree(ring, bound)
            tslots = list(range(lo, hi + 1))
            for vec in itertools.product(
                range(ring.field.p), repeat=len(tslots) * tspace.dim()
            ):
                entries = {}
                for k, j in enumerate(tslots):
                    entries[j] = tspace.from_coords(
                        list(vec[k * tspace.dim() : (k + 1) * tspace.dim()])
                    )
                u = m.coerce(entries)
                rep = as_solve(m, u)
                assert (rep["verdict"] == "SAT") == (u in image), (repr(u), rep)
                checked += 1

        for ring, (lo, hi), bound, dom, cod in _hdual_configs():
            d = ring.d
            p = ring.field.p
            slots = list(range(lo, hi + 1))
            per = len(slots) * dom.dim()

            def window_from(vec, pspace, wslots):
                w = {}
                for k, j in enumerate(wslots):
                    f = pspace.from_coords(list(vec[k * pspace.dim() : (k + 1) * pspace.dim()]))
                    if f:
                        w[j] = f
                return w

            image = []
            for vec in itertools.product(range(p), repeat=(1 + d) * per):
                s = window_from(vec[:per], dom, slots)
                ts = [window_from(vec[(1 + i) * per : (2 + i) * per], dom, slots) for i in range(d)]
                image.append(h_dual_apply(ring, s, ts))
            cslots = list(range(lo, hi + 2))
            for vec in itertools.product(range(p), repeat=len(cslots) * cod.dim()):
                u = window_from(vec, cod, cslots)
                rep = in_image_hdual(ring, u, (lo, hi), bound)
                assert (rep["verdict"] == "SAT") == (u in image), (repr(u), rep)
                checked += 1

        assert checked > 2000, checked

"""Frobenius-module instances, the Artin-Schreier solvers with their
certificates, extension data, and the shifted-sum exact sequence.

Frozen oracle values (each computed by the enumeration directly above its
constant) pin the derived answers independently of the solver code paths.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext import fmodules
from frobext.artinian import EElem, ERing
from frobext.fmodules import (
    DirectSum,
    ExtensionDatum,
    ShiftRInf,
    StdE,
    StdR,
    artin_schreier,
    artin_schreier_matrix,
    as_solve,
    as_solve_elem,
    ext1_class,
    hom_fr,
    rational_class_distinct,
    shift_ses_check,
)
from frobext.poly import PolySpace, ring_over
from frobext.rational import RationalBase

from artin_schreier_reference import hom_limit_matrix, limit_matrix, limit_solve, poly_matrix


def all_polys(ring, deg):
    """Every polynomial of total degree <= deg (univariate, small fields)."""
    space = PolySpace.total_degree(ring, deg)
    p = ring.field.p
    for vec in itertools.product(range(p), repeat=space.dim()):
        yield space.from_coords(list(vec))


# -- protocol laws -------------------------------------------------------------


def instances(p, e=1):
    ring = ring_over(p, e, 1)
    return [
        StdR(ring),
        StdE(ERing(ring)),
        ShiftRInf(ring),
        DirectSum([StdR(ring), StdR(ring)]),
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_artin_schreier_is_additive_everywhere(p, subtests=None):
    rng = random.Random(p)
    for m in instances(p):
        for _ in range(30):
            a, b = m.sample(rng), m.sample(rng)
            lhs = artin_schreier(m, m.add(a, b))
            rhs = m.add(artin_schreier(m, a), artin_schreier(m, b))
            assert lhs == rhs, m.describe()


@pytest.mark.parametrize("p", [2, 3])
def test_pth_power_twists_scalars(p):
    rng = random.Random(7 * p)
    for m in instances(p):
        ring = m.ring
        for _ in range(20):
            a = m.sample(rng)
            r = ring.gens()[0] + ring.one
            assert m.pth_power(m.scal(r, a)) == m.scal(
                r.frobenius(), m.pth_power(a)
            ), m.describe()


def test_mixed_direct_sums_are_rejected():
    ring = ring_over(2, 1, 1)
    with pytest.raises(ValueError):
        DirectSum([StdR(ring), StdE(ERing(ring))])
    with pytest.raises(ValueError):
        DirectSum([StdR(ring), StdR(ring_over(3, 1, 1))])


def test_shift_elements_are_integer_indexed():
    ring = ring_over(2, 1, 1)
    m = ShiftRInf(ring)
    z = m.coerce({0: ring.one})
    fz = m.pth_power(z)
    assert sorted(fz) == [-1]  # the slot below zero is a real place
    ffz = m.pth_power(fz)
    assert sorted(ffz) == [-2]


# -- as_solve against enumeration ----------------------------------------------


def brute_ring_solve(ring, u, deg):
    for y in all_polys(ring, deg):
        if y.frobenius() - y == u:
            return y
    return None


@pytest.mark.parametrize("p", [2, 3])
def test_ring_solver_agrees_with_enumeration(p):
    ring = ring_over(p, 1, 1)
    m = StdR(ring)
    for u in all_polys(ring, 2):
        rep, x = as_solve_elem(m, u)
        witness = brute_ring_solve(ring, u, 2)
        assert (rep["verdict"] == "SAT") == (witness is not None), ring.format(u)
        if x is not None:
            assert x.frobenius() - x == u
        if rep["verdict"] == "UNSAT":
            assert rep["proven"]  # degree parity or constant enumeration


def test_ring_solver_pinned_cases():
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    m = StdR(ring)
    sat = as_solve(m, x**2 + x)
    assert sat["verdict"] == "SAT" and sat["witness"] == "x1"
    unsat = as_solve(m, x)
    assert unsat["verdict"] == "UNSAT" and unsat["proven"]
    zero = as_solve(m, ring.zero)
    assert zero["verdict"] == "SAT" and zero["witness"] == "0"


def level_elems(ering, n):
    """Every element of the limit carrier of level <= n, one per numerator
    at level n."""
    box = PolySpace.box(ering.ring, n)
    for vec in itertools.product(range(box.p), repeat=box.dim()):
        yield EElem(ering, n, box.from_coords(list(vec)))


def brute_limit_solve(ering, u, n):
    for z in level_elems(ering, n):
        if z.pth_power() - z == u:
            return z
    return None


@pytest.mark.parametrize("p", [2, 3])
def test_limit_solver_agrees_with_enumeration(p):
    ring = ring_over(p, 1, 1)
    ering = ERing(ring)
    m = StdE(ering)
    for u in level_elems(ering, 2):
        rep, z = as_solve_elem(m, u, level_bound=2)
        witness = brute_limit_solve(ering, u, 2)
        assert (rep["verdict"] == "SAT") == (witness is not None), repr(u)
        if z is not None:
            assert z.pth_power() - z == u


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_socle_multiples_are_proven_unreachable(p, d):
    ring = ring_over(p, 1, d)
    m = StdE(ERing(ring))
    soc = m.ering.elem(1, 1)
    rep = as_solve(m, soc)
    assert rep["verdict"] == "UNSAT" and rep["proven"]
    # deeper search bounds cannot change a proven verdict
    rep2 = as_solve(m, soc, level_bound=6)
    assert rep2["verdict"] == "UNSAT" and rep2["proven"]


def brute_shift_solve(ring, u, lo, hi, deg):
    """Enumerate sequences supported in [lo, hi] with entries of degree <= deg."""
    space = PolySpace.total_degree(ring, deg)
    p = ring.field.p
    slots = list(range(lo, hi + 1))
    total = len(slots) * space.dim()
    m = ShiftRInf(ring)
    for vec in itertools.product(range(p), repeat=total):
        entries = {}
        for k, j in enumerate(slots):
            f = space.from_coords(list(vec[k * space.dim() : (k + 1) * space.dim()]))
            if f:
                entries[j] = f
        z = m.coerce(entries)
        if artin_schreier(m, z) == u:
            return z
    return None


def test_shift_solver_agrees_with_enumeration():
    ring = ring_over(2, 1, 1)
    m = ShiftRInf(ring)
    x = ring.gens()[0]
    targets = [
        {},
        {0: ring.one},
        {-1: x**2, 0: x},
        {0: x**2 + x},
        {1: ring.one, 0: ring.one},
    ]
    for u in targets:
        rep, z = as_solve_elem(m, u)
        witness = brute_shift_solve(ring, u, -2, 2, 2)
        if rep["verdict"] == "SAT":
            assert artin_schreier(m, z) == u
            # the forced candidate is the only one; enumeration must find it
            assert witness is not None
        else:
            assert witness is None
            assert rep["bound"]["window"], "bounded refutations carry the window"


def test_shift_solver_solves_the_descending_ladder():
    # u = F(y) - y with y supported below zero: the recurrence recovers y
    ring = ring_over(3, 1, 1)
    m = ShiftRInf(ring)
    x = ring.gens()[0]
    y = {-1: x, 0: x + ring.one, 2: x**2}
    u = artin_schreier(m, y)
    rep, z = as_solve_elem(m, u)
    assert rep["verdict"] == "SAT"
    assert artin_schreier(m, z) == u


def test_sum_solver_is_componentwise():
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    m = DirectSum([StdR(ring), StdR(ring)])
    rep, z = as_solve_elem(m, (x**2 + x, ring.zero))
    assert rep["verdict"] == "SAT"
    assert [c["verdict"] for c in rep["components"]] == ["SAT", "SAT"]
    bad = as_solve(m, (x**2 + x, x))
    assert bad["verdict"] == "UNSAT" and bad["proven"]


def test_sum_unsat_reports_the_bound_of_the_component_it_names():
    # the bound is the one the failing component searched, not level_bound
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    x = ring.gens()[0]
    m = DirectSum([StdE(ering), StdE(ering)])
    rep = as_solve(m, (ering.elem(ring.one, 6), ering.elem(ring.one, 1)), level_bound=2)
    assert rep["verdict"] == "UNSAT" and rep["reason"].startswith("component 0 ")
    assert rep["bound"] == rep["components"][0]["bound"] == {"level": 6}
    rep = as_solve(DirectSum([StdR(ring), StdR(ring)]), (x**2 + x, x))
    assert rep["reason"].startswith("component 1 ")
    assert rep["bound"] == {"degree": 1}


# -- the direct Artin-Schreier matrices against the symbolic reference -----------

SHAPES = [(p, e, d) for p in (2, 3) for e in (1, 2) for d in (1, 2)]


@pytest.mark.parametrize("p,e,d", SHAPES)
def test_direct_matrices_match_the_symbolic_reference(p, e, d):
    # all three shapes, degrees and levels 1-4: the polynomial box (as-solve
    # and hom_fr on the ring), level n -> n*p of the limit carrier (as-solve),
    # and the hom condition at level L
    ring = ring_over(p, e, d)
    ering = ERing(ring)
    for n in range(1, 5):
        space = PolySpace.total_degree(ring, n)
        big = PolySpace.total_degree(ring, p * n)
        assert artin_schreier_matrix(space, big, 0, 0) == poly_matrix(ring, n)
        dom, cod = PolySpace.box(ring, n), PolySpace.box(ring, n * p)
        assert artin_schreier_matrix(dom, cod, 0, (p - 1) * n) == limit_matrix(ering, n)
        shift = n * (p - 1)
        assert artin_schreier_matrix(dom, cod, shift, shift) == hom_limit_matrix(ering, n)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 2)])
def test_the_constant_column_sums_both_terms(p, e):
    # at a = 0 both terms land on the constant monomial: the column of the
    # unit c holds the digits of c^p - c, zero exactly for c in F_p
    ring = ring_over(p, e, 1)
    field = ring.field
    A = artin_schreier_matrix(PolySpace.total_degree(ring, 1), PolySpace.total_degree(ring, p), 0, 0)
    cols = A.T.rows
    for k in range(e):
        c = field.from_coords([int(j == k) for j in range(e)])
        expect = {t: x for t, x in enumerate((c**p - c).val) if x}
        assert cols[k] == expect
    assert not cols[0]  # 1^p - 1 = 0


def test_the_hom_condition_drops_terms_past_the_box():
    # p = 2, L = 2, d = 1: x^a maps to x^(2a + 2) - x^(a + 2) at level 4, and
    # x^1's first term x^4 leaves the box, so its column is -x^3 alone
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    dom, cod = PolySpace.box(ring, 2), PolySpace.box(ring, 4)
    cols = artin_schreier_matrix(dom, cod, 2, 2).T.rows
    assert cols == [{}, {cod.index[(3,)]: 1}]
    assert artin_schreier_matrix(dom, cod, 2, 2) == hom_limit_matrix(ering, 2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_limit_solver_matches_the_symbolic_path(data):
    # random targets, some SAT by construction (u = F(z) - z): the same
    # verdict, witness string and certificate from the direct matrix
    p, e, d = data.draw(st.sampled_from(SHAPES))
    ring = ring_over(p, e, d)
    ering = ERing(ring)
    level = data.draw(st.integers(1, 3))
    box = PolySpace.box(ring, level)
    digits = st.lists(st.integers(0, p - 1), min_size=box.dim(), max_size=box.dim())
    u = EElem(ering, level, box.from_coords(data.draw(digits)))
    if data.draw(st.booleans()):
        u = u.pth_power() - u
    level_bound = data.draw(st.integers(1, 3))
    rep = as_solve(StdE(ering), u, level_bound=level_bound)
    assert (rep["verdict"], rep["witness"], rep.get("certificate")) == limit_solve(ering, u, level_bound)


# -- witness re-verification ------------------------------------------------------


def _corrupt_solution(monkeypatch):
    solve = fmodules.solve_with_certificate

    def broken(A, b, p):
        x, cert = solve(A, b, p)
        # the last coordinate: the first ones may add an F_p constant, which
        # F(z) - z cannot see
        return x[:-1] + [(x[-1] + 1) % p], cert

    monkeypatch.setattr(fmodules, "solve_with_certificate", broken)


def test_ring_witness_check_refuses_a_corrupted_solution(monkeypatch):
    # explicit raises, so the checks hold under python -O
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    assert as_solve(StdR(ring), x**2 + x)["verdict"] == "SAT"
    _corrupt_solution(monkeypatch)
    with pytest.raises(RuntimeError, match="witness check failed"):
        as_solve(StdR(ring), x**2 + x)


def test_limit_witness_check_refuses_a_corrupted_solution(monkeypatch):
    ering = ERing(ring_over(2, 2, 2))
    z = EElem(ering, 2, PolySpace.box(ering.ring, 2).from_coords([1, 0, 0, 1, 1, 1, 0, 1]))
    u = z.pth_power() - z
    assert as_solve(StdE(ering), u)["verdict"] == "SAT"
    _corrupt_solution(monkeypatch)
    with pytest.raises(RuntimeError, match="witness check failed"):
        as_solve(StdE(ering), u)


def test_shift_and_sum_witness_checks_refuse_a_wrong_map(monkeypatch):
    # a corrupted F(z) - z in the check: the recurrence's and the
    # componentwise witnesses are refused
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    shift_u = {-1: x**2, 0: x}
    assert as_solve(ShiftRInf(ring), shift_u)["verdict"] == "SAT"
    total = DirectSum([StdR(ring), StdR(ring)])
    assert as_solve(total, (x**2 + x, ring.zero))["verdict"] == "SAT"
    real = fmodules.artin_schreier

    def corrupt(kind, wrong):
        # wrong only on `kind`, so the componentwise checks below still pass
        monkeypatch.setattr(fmodules, "artin_schreier", lambda m, z: wrong if isinstance(m, kind) else real(m, z))

    corrupt(ShiftRInf, {0: ring.one})
    with pytest.raises(RuntimeError, match="witness check failed"):
        as_solve(ShiftRInf(ring), shift_u)
    corrupt(DirectSum, (ring.one, ring.one))
    with pytest.raises(RuntimeError, match="witness check failed"):
        as_solve(total, (x**2 + x, ring.zero))


def test_ext1_section_check_refuses_a_wrong_witness(monkeypatch):
    # a witness off by x: the shifted section no longer carries u1 onto u2,
    # and the explicit raise holds under python -O
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    m = StdR(ring)
    assert ext1_class(m, ring.zero, x**2 + x)["equivalent"]
    solve = fmodules.as_solve_elem

    def wrong(module, u, *bounds):
        rep, z = solve(module, u, *bounds)
        return rep, z + x

    monkeypatch.setattr(fmodules, "as_solve_elem", wrong)
    with pytest.raises(RuntimeError, match="section check failed"):
        ext1_class(m, ring.zero, x**2 + x)


# -- UNSAT monotonicity ---------------------------------------------------------


def test_unsat_verdicts_are_monotone_in_the_bounds():
    # anything UNSAT at a bound stays UNSAT at every smaller bound; we check
    # the contrapositive: SAT survives bound growth
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    m = StdE(ering)
    u = ering.elem(ring.gens()[0], 2)  # (x; x^2), reachable or not
    first = as_solve(m, u, level_bound=2)
    for lb in (3, 4, 5):
        again = as_solve(m, u, level_bound=lb)
        if first["verdict"] == "SAT":
            assert again["verdict"] == "SAT"
        if first["verdict"] == "UNSAT" and first["proven"]:
            assert again["verdict"] == "UNSAT"


# -- extension data -------------------------------------------------------------


def test_extension_composite_formula():
    ring = ring_over(2, 1, 1)
    m = StdR(ring)
    x = ring.gens()[0]
    datum = ExtensionDatum(m, x)
    rng = random.Random(3)
    for _ in range(40):
        y, r = m.sample(rng), m.sample(rng)
        fy, fr = datum.pth_power((y, r))
        assert fy == y.frobenius() + r.frobenius() * x
        assert fr == r.frobenius()


def test_section_shift_moves_the_class_by_a_coboundary():
    ring = ring_over(3, 1, 1)
    m = StdR(ring)
    x = ring.gens()[0]
    datum = ExtensionDatum(m, x)
    psi, carried = datum.section_shift(x**2)
    assert carried.z == x - (x**2).frobenius() + x**2
    rng = random.Random(9)
    for _ in range(30):
        ab = (m.sample(rng), m.sample(rng))
        assert psi(datum.pth_power(ab)) == carried.pth_power(psi(ab))


@pytest.mark.parametrize("p", [2, 3])
def test_ext1_equivalence_is_an_equivalence_relation(p):
    ring = ring_over(p, 1, 1)
    m = StdR(ring)
    rng = random.Random(p + 1)
    u = m.sample(rng)
    y1, y2 = m.sample(rng), m.sample(rng)
    v = u + artin_schreier(m, y1)
    w = v + artin_schreier(m, y2)
    assert ext1_class(m, u, u)["equivalent"]
    assert ext1_class(m, u, v)["equivalent"]
    assert ext1_class(m, v, u)["equivalent"]
    assert ext1_class(m, u, w)["equivalent"]  # transitive reach


def test_ext1_distinguishes_classes_with_proof():
    ring = ring_over(2, 1, 1)
    x = ring.gens()[0]
    m = StdR(ring)
    rep = ext1_class(m, ring.zero, x)
    assert not rep["equivalent"] and rep["proven"]


# -- the shifted-sum exact sequence ---------------------------------------------


def brute_splitting_sections(ring, lo, hi, deg):
    """Enumerate window-supported candidates for a splitting: y_j = F(y_(j+1))
    inside the window, zero outside, total sum 1.  Returns the count."""
    space = PolySpace.total_degree(ring, deg)
    p = ring.field.p
    slots = list(range(lo, hi + 1))
    count = 0
    for vec in itertools.product(range(p), repeat=len(slots) * space.dim()):
        ys = {}
        for k, j in enumerate(slots):
            ys[j] = space.from_coords(
                list(vec[k * space.dim() : (k + 1) * space.dim()])
            )
        ok = True
        for j in range(lo - 1, hi + 1):
            left = ys.get(j, ring.zero)
            right = ys.get(j + 1, ring.zero)
            if left != right.frobenius():
                ok = False
                break
        total = ring.zero
        for f in ys.values():
            total = total + f
        if ok and total == ring.one:
            count += 1
    return count


# computed by brute_splitting_sections(F_2[x], -1, 1, 2) below: no window
# assignment satisfies the descent conditions together with sum = 1
SPLITTING_SECTIONS_F2_W1_DEG2 = 0


def test_no_splitting_section_in_the_tiny_window():
    ring = ring_over(2, 1, 1)
    assert brute_splitting_sections(ring, -1, 1, 2) == SPLITTING_SECTIONS_F2_W1_DEG2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shift_sequence_is_exact_and_never_splits(n):
    ring = ring_over(2, 1, 1)
    rep = shift_ses_check(ring, nmax=n)
    assert rep["exact"]
    assert not rep["split"]
    assert rep["passed"]
    assert rep["first_map_commutes_with_F"] and rep["second_map_commutes_with_F"]


def test_shift_sequence_over_f3():
    ring = ring_over(3, 1, 1)
    rep = shift_ses_check(ring, nmax=2)
    assert rep["exact"] and not rep["split"]


# -- hom dimensions ---------------------------------------------------------------


def brute_hom_tower_count(ering, L):
    """Enumerate level-L images w with w = (x1..xd)^(L(p-1)) F(w)."""
    ring = ering.ring
    shift = ring.monomial((L * (ring.field.p - 1),) * ring.d, ring.field.one)
    count = 0
    for w in level_elems(ering, L):
        if w.pth_power().act(shift) == w:
            count += 1
    return count


# brute_hom_tower_count(E over F_2[x], L=2) == 2: the zero map and the
# canonical one, an F_p-line
HOM_TOWER_COUNT_F2_L2 = 2


def test_hom_tower_enumeration_matches_solver():
    ring = ring_over(2, 1, 1)
    ering = ERing(ring)
    assert brute_hom_tower_count(ering, 2) == HOM_TOWER_COUNT_F2_L2
    rep = hom_fr(StdE(ering), StdE(ering), level=2)
    assert rep["dim"] == 1 and rep["stable"]


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
def test_hom_between_limit_carriers_is_a_line(p, e):
    ring = ring_over(p, e, 1)
    m = StdE(ERing(ring))
    rep = hom_fr(m, m, level=3)
    assert rep["dim"] == 1 and rep["stable"] and not rep["inconclusive"]


def test_hom_between_rings_is_the_prime_field():
    for p in (2, 3):
        ring = ring_over(p, 1, 1)
        rep = hom_fr(StdR(ring), StdR(ring))
        assert rep["dim"] == 1 and rep["proven"]


# -- rational distinctness --------------------------------------------------------


def test_rational_distinct_requires_distinct_roots():
    ring = ring_over(2, 1, 1)
    t = ring.gens()[0]
    base = RationalBase(ring, t * (t + ring.one))
    with pytest.raises(ValueError):
        rational_class_distinct(base, ring.field.zero, ring.field.zero)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 1)])
def test_rational_classes_are_proven_distinct(p, e):
    ring = ring_over(p, e, 1)
    t = ring.gens()[0]
    field = ring.field
    elems = list(field.elements())
    a, b = elems[0], elems[1]
    D = (t - ring.coerce(a)) * (t - ring.coerce(b))
    base = RationalBase(ring, D)
    rep = rational_class_distinct(base, a, b)
    assert rep["distinct"] and rep["proven"]
    assert rep["bounded_check_unsat"]

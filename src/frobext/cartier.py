"""Cartier-type structure maps on Artinian quotients and the mapping-cone
resolution they induce over the twisted ring R{F}.

A Cartier-type map on M is additive with phi(r^p m) = r phi(m).  On a
quotient A = R/(x1^a1, ..., xd^ad) every such map (valued in rank-`rank`
columns) is the descent of

    y |-> C(c[t][s] * (x1...xd)^((p-1)*a) * y)

where C is the digit-projection operator of the ring; the inner factor makes
the descent automatic, because C((xi^ai)^p h) = xi^ai C(h) pushes the ideal
into itself.
"""

from __future__ import annotations

import itertools
import random

from .koszul import KoszulComplex, wedge_boundary
from .linalg import (
    SparseMatrix,
    StructureError,
    artin_schreier_map,
    complex_dims,
    flatten,
    intersection_dim,
    kernel_basis,
    keyed,
    matrix_of_map,
    product,
    rank,
    reembed,
    solve,
    tuple_space,
)
from .poly import FieldSpace, PolySpace, add_at, monomials_box, random_poly
from .skew import FreeCartierCarrier, frob_power


def _digit_tuples(p, d):
    return list(itertools.product(range(p), repeat=d))


class ArtinianCartierModule(FreeCartierCarrier):
    """A = R/(x1^a1..xd^ad) to the power `rank`, with structure map

        phi(y)_t = reduce(C(sum_s kern[t][s] * y_s)),  kern[t][s] = c * cmatrix[t][s] * twist

    where twist = prod_i xi^(ai*(p-1)).  c = 1 is the standard structure,
    c = 0 the zero one, any other scalar a rescaling; cmatrix couples the
    components of a higher-rank module.  As a dual-complex target it is
    exact: its flat space is finite.
    """

    exact = True

    def __init__(self, algebra, rank=1, c=None, cmatrix=None):
        super().__init__(algebra.ring, rank, cmatrix)
        self.algebra = algebra
        ring = self.ring
        self.c = ring.one if c is None else ring.coerce(c)
        p = ring.field.p
        twist = ring.one
        for i, a in enumerate(algebra.exponents):
            twist = twist * ring.gens()[i] ** (a * (p - 1))
        self.kern = [[self.c * v * twist for v in row] for row in self.cmatrix]
        self._space = tuple_space(algebra.space, rank, ring.zero)
        self.structure_check()

    def normal_form(self, f):
        return self.algebra.reduce(f)

    def space(self):
        return self._space

    def degree(self, v):
        return 0

    def basis_gen(self, s=0):
        m = list(self.zero())
        m[s] = self.ring.one
        return tuple(m)

    def is_trivial(self):
        return not self.c

    def structure_check(self):
        """Spot-check additivity and the twist law phi(r^p y) = r phi(y)."""
        ring = self.ring
        probes = [ring.one] + list(ring.gens())
        basis = list(self._space.basis_elems())
        sample = basis[: min(len(basis), 6)]
        for y in sample:
            for z in sample[:2]:
                lhs = self.phi(self.add(y, z))
                rhs = self.add(self.phi(y), self.phi(z))
                if not self.eq(lhs, rhs):
                    raise StructureError("structure map is not additive")
            for r in probes:
                lhs = self.phi(self.act(r ** ring.field.p, y))
                rhs = self.act(r, self.phi(y))
                if not self.eq(lhs, rhs):
                    raise StructureError("structure map violates the p-th power twist law")

    def __repr__(self):
        return "ArtinianCartierModule(%r, rank=%d, c=%s)" % (
            self.algebra,
            self.rank,
            self.ring.format(self.c),
        )


def standard_module(algebra, rank=1):
    return ArtinianCartierModule(algebra, rank=rank)


def zero_structure_module(algebra, rank=1):
    return ArtinianCartierModule(algebra, rank=rank, c=0)


def scaled_module(algebra, lam, rank=1):
    return ArtinianCartierModule(algebra, rank=rank, c=lam)


def random_module(algebra, rank, seed):
    """A reproducible random structure: cmatrix entries are random reduced
    polynomials of the ambient box."""
    rng = random.Random(seed)
    mons = algebra.space.mons
    cm = [[random_poly(algebra.ring, mons, rng, 0.5) for _ in range(rank)] for _ in range(rank)]
    return ArtinianCartierModule(algebra, rank=rank, cmatrix=cm)


# -- the mapping cone over R{F} ----------------------------------------------


class ConeComplex:
    """The mapping cone gluing the twisted and plain wedge resolutions of M
    over R{F}.  Spot n is C_(n-1) (+) D_n; the differential sends

        (c, y)  |->  (-boundary(c), lift(c) - shift(c) + boundary(y))

    where shift is the F-degree bump.  Spots run 0..d+1.  An element of a
    spot is a dict (part, S, s, i) -> nonzero polynomial g, the term
    g . e_(S,s) (x) F^i: part "C" holds the twisted copies (right action
    through one extra p-th power), part "D" the plain ones.

    lift is the diagonal lift of the structure map over the wedge resolution
    of A^rank: on the spot-j generator g . e_(S,s) it acts by

        (g . e_(S,s))  |->  sum_t C(kernel[S][t][s] * g) . e_(S,t)

    with kernel[S][t][s] = c * cmatrix[t][s] * prod_(i not in S) fi^(p-1).
    Each square against the wedge differential commutes exactly.  The check
    is d_squared_on_generators: the plain part of d(d(g)) on a twisted
    generator g is boundary . lift - lift . boundary, so d^2 = 0 on the
    digit-monomial generators is the square identity.
    """

    def __init__(self, module):
        self.module = module
        ring = module.ring
        self.ring = ring
        self.d = ring.d
        self.p = ring.field.p
        # the wedge resolution of R/(x1^a1..xd^ad); raises unless the
        # defining sequence is regular
        self.koszul = KoszulComplex(
            ring, [ring.gens()[i] ** a for i, a in enumerate(module.algebra.exponents)]
        )
        self.fs = self.koszul.fs
        self.length = self.d + 1
        coupling = [[module.c * v for v in row] for row in module.cmatrix]
        self.kernel = {}
        for j in range(self.d + 1):
            for S in self.koszul.subsets(j):
                outside = ring.one
                for i in range(self.d):
                    if i not in S:
                        outside = outside * self.fs[i] ** (self.p - 1)
                self.kernel[S] = [[k * outside for k in row] for row in coupling]

    def generator_count(self, n):
        """Wedge-level generators at spot n (twisted + plain)."""
        return self.module.rank * (self.koszul.rank(n - 1) + self.koszul.rank(n))

    def differential(self, n, z):
        """d_n: spot n -> spot n-1."""
        ring = self.ring
        out = {}
        for (part, S, s, i), g in z.items():
            if part == "D":
                for sign, l, T in wedge_boundary(S):
                    add_at(out, ("D", T, s, i), self.fs[l] * g * sign)
                continue
            # -boundary into the twisted part
            for sign, l, T in wedge_boundary(S):
                add_at(out, ("C", T, s, i), self.fs[l] * g * (-sign))
            # the two-step leg into the plain part
            for t in range(self.module.rank):
                add_at(out, ("D", S, t, i), ring.cartier(self.kernel[S][t][s] * g))
            add_at(out, ("D", S, s, i + 1), -g)
        return out

    def augment(self, z):
        """Spot 0 -> M: g . e_s (x) F^i  |->  phi^i(class(g) . e_s)."""
        m = self.module.zero()
        for (part, S, s, i), g in z.items():
            if part == "D":
                v = list(self.module.zero())
                v[s] = self.module.algebra.reduce(g)
                m = self.module.add(m, self.module.phi_iter(tuple(v), i))
        return m

    def act_ring(self, z, r):
        """z . r: a term at F-degree i carries r^(p^i), one more p-th power
        on the twisted part."""
        out = {}
        for (part, S, s, i), g in z.items():
            add_at(out, (part, S, s, i), g * frob_power(r, i + (part == "C")))
        return out

    def act_F(self, z, k=1):
        """z . F^k."""
        return {(part, S, s, i + k): g for (part, S, s, i), g in z.items()}

    def generator_keys(self, n):
        """Keys of the right-module generators of spot n: ("C", S, s, a) for
        the digit monomial x^a on the twisted part, ("D", S, s) for the unit
        on the plain part."""
        digits = _digit_tuples(self.p, self.d)
        rank = range(self.module.rank)
        subsets = self.koszul.subsets
        return [("C", S, s, a) for S in subsets(n - 1) for s in rank for a in digits] + [
            ("D", S, s) for S in subsets(n) for s in rank
        ]

    def hom_space(self, n, nspace, part=None):
        """Flat coordinates of Hom(spot n, N), values in `nspace`: a right
        R{F}-linear map is fixed by its values at the generators of spot n,
        so the keys are `generator_keys(n)`; `part` ("C" or "D") keeps that
        part's only."""
        return keyed([k for k in self.generator_keys(n) if part in (None, k[0])], nspace)

    def generators(self, n):
        """(key, element) for each right-module generator of spot n."""
        ring = self.ring
        gens = []
        for key in self.generator_keys(n):
            g = ring.monomial(key[3], ring.field.one) if key[0] == "C" else ring.one
            gens.append((key, {key[:3] + (0,): g}))
        return gens

    def d_squared_on_generators(self):
        """d . d = 0 on every right-module generator; with the differential
        right R{F}-linear this pins down d^2 = 0 everywhere."""
        for n in range(2, self.length + 1):
            for _, g in self.generators(n):
                if self.differential(n - 1, self.differential(n, g)):
                    return False
        for _, g in self.generators(1):
            img = self.augment(self.differential(1, g))
            if not self.module.eq(img, self.module.zero()):
                return False
        return True

    def right_linearity_check(self, seed=0):
        """Spot-check d(z . r) = d(z) . r and d(z . F) = d(z) . F on four
        random generators per spot."""
        rng = random.Random(seed)
        mons = monomials_box(self.d, (self.p,) * self.d)
        for n in range(1, self.length + 1):
            gens = self.generators(n)
            for _ in range(4):
                key, z = gens[rng.randrange(len(gens))]
                z = self.act_F(z, rng.randrange(2))
                r = random_poly(self.ring, mons, rng, 0.4)
                dz = self.differential(n, z)
                if self.differential(n, self.act_ring(z, r)) != self.act_ring(dz, r):
                    return False
                if self.differential(n, self.act_F(z)) != self.act_F(dz):
                    return False
        return True


def cone_window(cone, n, cap, dfmax):
    """Flat F_p coordinates for cone spot n restricted to coefficient
    exponents <= cap and F-degree <= dfmax.  Keys are (part, S, s, i), part
    "C" on the wedge subsets of size n-1 before part "D" on those of size n."""
    keys = [
        (part, S, s, i)
        for part, size in (("C", n - 1), ("D", n))
        for S in cone.koszul.subsets(size)
        for s in range(cone.module.rank)
        for i in range(dfmax + 1)
    ]
    # cap is the largest exponent allowed, inclusive
    return keyed(keys, PolySpace.box(cone.ring, cap + 1))


def _flatten_diff(cone, n, dom, cap, dfmax):
    """Flatten d_n from the window `dom`; the codomain window is the
    (cap, dfmax) one, grown to fit the images."""
    images = [cone.differential(n, z) for z in dom.basis_elems()]
    for z in images:
        for key, g in z.items():
            dfmax = max(dfmax, key[3])
            for exp in g.terms:
                cap = max(cap, max(exp) if exp else 0)
    cod = cone_window(cone, n - 1, cap, dfmax)
    return flatten(images, cod, cone.p), cod


def cone_acyclicity_report(cone, cap, dfmax, max_growth=3):
    """Windowed exactness sweep of the cone over the augmentation.

    At each inner spot, every cycle supported in the (cap, dfmax) window must
    be a boundary from a grown window; at the top spot the differential must
    have no kernel in the window; at spot 0 the augmentation kernel must be
    hit.  Growth proceeds in steps of the largest defining exponent.
    """
    module = cone.module
    p = cone.p
    step = max(max(module.algebra.exponents), 1)
    report = {"cap": cap, "dfmax": dfmax, "spots": [], "passed": True}

    def hit_by_next(n, cycles, cyc_space):
        """Can each cycle (a row of coords in cyc_space) be written as
        d_(n+1) of an element from a grown window?"""
        for g in range(1, max_growth + 1):
            dom = cone_window(cone, n + 1, cap + g * step, dfmax)
            A, cod = _flatten_diff(cone, n + 1, dom, cap, dfmax)
            targets = reembed(cycles, cyc_space, cod).T
            if solve(A, targets, p) is not None:
                return True, g
        return False, max_growth

    for n in range(cone.length + 1):
        dom = cone_window(cone, n, cap, dfmax)
        if n:
            A = _flatten_diff(cone, n, dom, cap, dfmax)[0]
        else:  # spot 0 is measured by the augmentation
            A = matrix_of_map(dom.basis_elems(), cone.augment, module.space(), p).mat
        ker = kernel_basis(A, p)
        entry = {"spot": n, "window_dim": dom.dim(), "cycles": int(ker.shape[0])}
        if n == cone.length:  # top spot: no cycles at all
            entry["ok"] = ker.shape[0] == 0
        else:
            ok, used = (True, 0) if ker.shape[0] == 0 else hit_by_next(n, ker, dom)
            entry.update(growth_used=used, ok=ok)
        report["spots"].append(entry)
        report["passed"] = report["passed"] and entry["ok"]
    return report


# -- value targets for the dual complex --------------------------------------


class FreeTarget:
    """Dual-complex values in the polynomial ring itself, structure map the
    digit projection C.  Flat spaces are degree-capped boxes; callers must
    run the stability protocol."""

    exact = False

    def __init__(self, ring):
        self.ring = ring

    def zero(self):
        return self.ring.zero

    def add(self, a, b):
        return a + b

    def act(self, r, v):
        return r * v

    def phi(self, v):
        return self.ring.cartier(v)

    def phi_iter(self, v, k):
        for _ in range(k):
            v = self.phi(v)
        return v

    def space(self, cap):
        # cap is the largest exponent allowed, inclusive
        return PolySpace.box(self.ring, cap + 1)

    def degree(self, v):
        return max((max(e) if e else 0 for e in v.terms), default=0)


def _dual_images(cone, target, n, dom_space, part=None):
    """Images of the dual differential Hom(spot n) -> Hom(spot n+1) on the
    flat basis of dom_space; each image is a key -> value dict.  `part`
    ("C" or "D") reads only that part's generators of spot n+1, which gives
    one block of the dual differential.

    A basis functional is one key k with one inner basis value b, so it
    reads only the terms of the bounded differentials that name k.  These
    are indexed once, k -> [(generator key, F-degree i, coefficient w)],
    with each twisted term's digits taken once; the functional's value at a
    generator is then the sum of phiN^i(w * b) over its terms, the value
    that right R{F}-linearity gives that functional (tests/test_cartier.py
    checks this against the direct evaluation)."""
    ring = cone.ring
    reads = {}
    for gkey, g in cone.generators(n + 1):
        if part not in (None, gkey[0]):
            continue
        for (hpart, S, s, i), h in cone.differential(n + 1, g).items():
            if hpart == "D":
                reads.setdefault(("D", S, s), []).append((gkey, i, h))
                continue
            for b, w in ring.frobenius_digits(h).items():
                if w:
                    reads.setdefault(("C", S, s, b), []).append((gkey, i, w))
    basis = list(dom_space.inner.basis_elems())
    images = []
    for key in dom_space.keys:
        terms = reads.get(key, ())
        for b in basis:
            img = {}
            for gkey, i, w in terms:
                v = target.phi_iter(target.act(w, b), i)
                img[gkey] = target.add(img[gkey], v) if gkey in img else v
            images.append({gkey: v for gkey, v in img.items() if not _is_zero_value(target, v)})
    return images


def _dual_dims(cone, target, spots, part=None):
    """Cohomology dimensions of the dual complex against an Artinian target
    on the given consecutive spots: the whole complex, or with `part` the
    diagonal block of that part."""
    nspace = target.space()
    mats = []
    for n in spots:
        dom = cone.hom_space(n, nspace, part)
        cod = cone.hom_space(n + 1, nspace, part)
        mats.append(flatten(_dual_images(cone, target, n, dom, part), cod, nspace.p))
    return complex_dims(mats, nspace.p)


def _is_zero_value(target, v):
    if target.exact:
        return target.eq(v, target.zero())
    return not v


def _value_degree(target, img):
    return max((target.degree(v) for v in img.values()), default=0)


def ext_dims_artinian(cone, target, jmax=None):
    """Exact Ext dimensions over R{F} against an Artinian target, one per
    spot 0..d+1 (and 0 beyond)."""
    jmax = cone.length if jmax is None else jmax
    dims = _dual_dims(cone, target, range(min(jmax, cone.length) + 1))
    return dims + [0] * (jmax + 1 - len(dims))


def ext_dim_free_target(cone, target, j, cap=2, gap=None, max_rounds=3):
    """Ext^j against the free target, computed on degree caps with a
    stability protocol.

    Cycles are drawn from functionals with values capped at L; boundaries
    from functionals capped at p*L + gap, since the dual differential routes
    through the structure map, which divides degrees by p — a preimage of a
    degree-L value may need degree about p*L.  The reported number is

        q(L) = dim(capped cycles) - dim(capped cycles meeting the boundary
                                        span from the grown cap)

    which is a lower bound for the true dimension at every L and reaches it
    once L exhausts a representative set.  Two consecutive cap levels
    agreeing is reported as stable; otherwise callers must treat the answer
    as inconclusive.
    """
    if j > cone.length:
        return {"dim": 0, "stable": True, "structural_zero": True, "caps": []}
    ring = cone.ring
    p = ring.field.p
    if gap is None:
        gap = p + sum(cone.module.algebra.exponents)

    def q(L):
        dom = cone.hom_space(j, target.space(L))
        images = _dual_images(cone, target, j, dom)
        codcap = max([L] + [_value_degree(target, img) for img in images])
        cod = cone.hom_space(j + 1, target.space(codcap))
        ker = kernel_basis(flatten(images, cod, p), p)  # exact cycles with values capped at L
        if j == 0 or ker.shape[0] == 0:
            return int(ker.shape[0])
        big = p * L + gap
        dom_prev = cone.hom_space(j - 1, target.space(big))
        prev_images = _dual_images(cone, target, j - 1, dom_prev)
        ambcap = max([L] + [_value_degree(target, img) for img in prev_images])
        amb = cone.hom_space(j, target.space(ambcap))
        lift = reembed(ker, dom, amb)
        B = flatten(prev_images, amb, p).T
        return int(lift.shape[0]) - intersection_dim(lift, B, p)

    caps = []
    prev = None
    for L in range(cap, cap + max_rounds + 1):
        val = q(L)
        caps.append({"cap": L, "dim": val})
        if prev is not None and prev == val:
            return {"dim": val, "stable": True, "structural_zero": False, "caps": caps}
        prev = val
    return {"dim": prev, "stable": False, "structural_zero": False, "caps": caps}


def ext_rf(module, target, j, **caps):
    """Ext^j over R{F} of the module against the target, via the cone."""
    cone = ConeComplex(module)
    if target.exact:
        dims = ext_dims_artinian(cone, target, jmax=j)
        return {"dim": dims[j], "stable": True, "structural_zero": j > cone.length, "caps": []}
    return ext_dim_free_target(cone, target, j, **caps)


# -- plain-ring Ext and the splitting comparison ------------------------------


def ext_r_dims(module, ntarget):
    """Ext over the plain ring via the wedge resolution, Artinian target:
    the "D" block of the cone's dual complex, on spots 0..d."""
    cone = ConeComplex(module)
    return _dual_dims(cone, ntarget, range(cone.d + 1), "D")


def ext_r_twisted_dims(module, ntarget):
    """Ext over the plain ring of the p-th power relabeling of the module:
    the "C" block of the cone's dual complex, on spots 1..d+1, free on
    (wedge, digit) pairs.  Its differential is minus the wedge boundary,
    which changes no kernel or image dimension."""
    cone = ConeComplex(module)
    return _dual_dims(cone, ntarget, range(1, cone.d + 2), "C")


def ext_split_check(module, nmodule):
    """Compare the twisted-ring Ext dims with the direct sum of the two
    plain-ring contributions, spot by spot.  When both structure maps vanish
    the connecting leg of the dual differential is identically zero and the
    comparison must be an equality."""
    cone = ConeComplex(module)
    jmax = cone.length
    lhs = ext_dims_artinian(cone, nmodule)
    plain = ext_r_dims(module, nmodule)
    twisted = ext_r_twisted_dims(module, nmodule)

    def at(arr, j):
        return arr[j] if 0 <= j < len(arr) else 0

    rhs = [at(plain, j) + at(twisted, j - 1) for j in range(jmax + 1)]
    cross_zero = None
    if module.is_trivial() and nmodule.is_trivial():
        cross_zero = _cross_block_is_zero(cone, nmodule)
    return {
        "dims": lhs,
        "plain": plain,
        "twisted_shifted": [at(twisted, j - 1) for j in range(jmax + 1)],
        "sum": rhs,
        "split": lhs == rhs,
        "cross_block_zero": cross_zero,
    }


def _cross_block_is_zero(cone, target):
    """The connecting leg of the dual differential, plain-part functionals
    read at twisted-part generators, must vanish when both structure maps
    are zero."""
    nspace = target.space()
    for n in range(cone.length):
        dom = cone.hom_space(n, nspace, "D")
        if any(_dual_images(cone, target, n, dom, "C")):
            return False
    return True


# -- the one-dimensional cokernel --------------------------------------------


def coker_formula(field):
    """dim over F_p of F_q modulo the image of x -> x^p - x.

    The kernel of that map is exactly F_p (solutions of x^p = x), so the
    image has codimension one; the formula e - rank is computed anyway.
    """
    space = FieldSpace(field)
    fmap = artin_schreier_map(space, space, lambda x: x**field.p)
    return field.e - rank(fmap.mat, field.p)


# -- transpose and the unitalization tower ------------------------------------


def unit_transpose_map(module):
    """tau(m) = (phi(x^a m))_a over the digit tuples, flattened over F_p."""
    ring = module.ring
    p = ring.field.p
    digits = _digit_tuples(p, ring.d)
    mspace = module.space()

    def tau(m):
        return tuple(module.phi(module.act(ring.monomial(a, ring.field.one), m)) for a in digits)

    cod = tuple_space(mspace, len(digits), module.zero())
    fmap = matrix_of_map(mspace.basis_elems(), tau, cod, p)
    return fmap, tau, digits


def unit_transpose_report(module):
    A = unit_transpose_map(module)[0].mat
    m, n = A.shape
    r = rank(A, module.ring.field.p)
    return {"domain_dim": n, "codomain_dim": m, "rank": r, "injective": r == n, "surjective": r == m}


def free_transpose_roundtrip(ring, cap):
    """For the rank-one free module with the plain digit projection, the
    transpose is digit reversal: tau(f)_a = digit_(p-1-a)(f), with inverse
    (m_a) -> sum_a m_a^p x^(p-1-a).  Checked exactly on the capped box."""
    p = ring.field.p
    digits = _digit_tuples(p, ring.d)
    rev = [tuple(p - 1 - ai for ai in a) for a in digits]

    def tau(f):
        return tuple(ring.cartier(ring.monomial(a, ring.field.one) * f) for a in digits)

    def inv(tup):
        acc = ring.zero
        for a, m in zip(digits, tup):
            acc = acc + m.frobenius() * ring.monomial(tuple(p - 1 - ai for ai in a), ring.field.one)
        return acc

    space = PolySpace.box(ring, cap)
    for f in space.basis_elems():
        t = tau(f)
        # digit reversal
        dig = ring.frobenius_digits(f)
        for a, v in zip(digits, t):
            want = dig.get(tuple(p - 1 - ai for ai in a), ring.zero)
            if v != want:
                return False
        if inv(t) != f:
            return False
    # the other composition, on tuples of capped polynomials
    small = PolySpace.box(ring, max(cap // p, 1))
    for k in range(len(digits)):
        for b in small.basis_elems():
            tup = tuple(b if i == k else ring.zero for i in range(len(digits)))
            if tau(inv(tup)) != tup:
                return False
    return True


def unitalize_report(module, levels):
    """The unitalization tower: level l holds tensors indexed by l digit
    tuples with entries in the module; the transition fans the transpose out
    along a fresh index.  Reports per-level dimensions and transition ranks
    (and their composite), all over F_p."""
    fmap, _, digits = unit_transpose_map(module)
    p, nd, mdim = module.ring.field.p, len(digits), fmap.mat.ncols

    def level_dim(l):
        return (nd**l) * mdim

    def transition_matrix(l):
        """Flat matrix of t_l: level l -> level l+1.  Level l is laid out as
        (index tuple, module coordinate), so t_l applies the transpose to
        each index tuple's block and appends the fresh index last: the
        block-diagonal matrix with one copy of the transpose's per tuple."""
        rows = [{b * mdim + j: v for j, v in row.items()} for b in range(nd**l) for row in fmap.mat.rows]
        return SparseMatrix(rows, level_dim(l))

    report = {"level_dims": [level_dim(l) for l in range(levels + 1)], "transition_ranks": []}
    comp = None
    for l in range(levels):
        tm = transition_matrix(l)
        report["transition_ranks"].append(rank(tm, p))
        comp = tm if comp is None else product(tm, comp, p)
    report["composite_rank"] = rank(comp, p) if comp is not None else level_dim(0)
    report["all_transitions_injective"] = all(
        r == report["level_dims"][l] for l, r in enumerate(report["transition_ranks"])
    )
    return report

"""Cartier-type structure maps on Artinian quotients and the mapping-cone
resolution they induce over the twisted ring R{F}.

A Cartier-type map on M is additive with phi(r^p m) = r phi(m).  On a
quotient A = R/(x1^a1, ..., xd^ad) every such map (valued in rank-`rank`
columns) is the descent of

    y |-> C(cmatrix[t][s] * (x1...xd)^((p-1)*a) * y)

where C is the digit-projection operator of the ring; the inner factor makes
the descent automatic, because C((xi^ai)^p h) = xi^ai C(h) pushes the ideal
into itself.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from .koszul import subsets, wedge_boundary
from .linalg import (
    SparseMatrix,
    StructureError,
    complex_dims,
    echelon,
    flatten,
    kernel_basis,
    keyed,
    product,
    rank,
    reembed,
    solve,
    tuple_space,
)
from .poly import PolyRing, PolySpace, add_at, frob_power, monomials_box, random_poly, unit_digits


def _digit_tuples(p, d):
    return list(itertools.product(range(p), repeat=d))


class ArtinianCartierModule:
    """M = A^rank for A = R/(x1^a1..xd^ad), with structure map

        phi(y)_t = reduce(C(sum_s kern[t][s] * y_s)),  kern[t][s] = cmatrix[t][s] * twist

    where C is the digit-projection operator of the ring and twist =
    prod_i xi^(ai*(p-1)).  cmatrix = I is the standard structure, the zero
    matrix the zero one and lambda*I a rescaling; other entries couple the
    components of a higher-rank module.  Elements are rank-tuples of
    reduced polynomials.
    """

    def __init__(self, algebra, rank=1, cmatrix=None):
        self.algebra = algebra
        self.ring = ring = algebra.ring
        self.rank = rank
        if cmatrix is None:
            cmatrix = [[int(s == t) for s in range(rank)] for t in range(rank)]
        self.cmatrix = [[ring.coerce(v) for v in row] for row in cmatrix]
        if len(self.cmatrix) != rank or any(len(r) != rank for r in self.cmatrix):
            raise ValueError("cmatrix must be rank x rank")
        p = ring.field.p
        twist = ring.monomial(tuple(a * (p - 1) for a in algebra.exponents))
        self.kern = [[v * twist for v in row] for row in self.cmatrix]
        self._space = tuple_space(algebra.space, rank, ring.zero)
        # Phi, the matrix of phi, by the digit rule: the term a*x^c of
        # kern[t][s] sends u*x^m at component s to (a*u)^(1/p) *
        # x^((c+m+1)/p - 1) at component t when p divides every c+m+1
        units, exps = ring.field.power_basis, algebra.exponents
        self.Phi = self._matrix(
            (t, s, [(a * u).pth_root() for u in units],
             [(m, tuple((x + y + 1) // p - 1 for x, y in zip(c, m)))
              for m in itertools.product(*(range((-x - 1) % p, b, p) for x, b in zip(c, exps)))])
            for t, row in enumerate(self.kern) for s, k in enumerate(row) for c, a in k.terms.items()
        )
        self.structure_check()

    def _matrix(self, blocks):
        """The matrix sending u_k * x^m at component s to values[k] * x^m' at
        component t, for each (t, s, values, moves) of `blocks`, each move
        (m, m') and u_k the F_q power basis.  An m' outside the box is
        dropped, as `reduce` drops it; no two moves meet at an entry."""
        space = self.algebra.space
        n, e, index = space.dim(), space.e, space.index
        rows = [{} for _ in range(self.rank * n)]
        for t, s, values, moves in blocks:
            digits = unit_digits(values)
            for m, m2 in moves:
                j = index.get(m2)
                if j is not None:
                    col = s * n + index[m] * e
                    for k, ds in enumerate(digits):
                        for r, x in ds:
                            rows[t * n + j * e + r][col + k] = x
        return SparseMatrix(rows, self.rank * n)

    def times(self, w):
        """M(w), the matrix of y |-> w*y: each term a*x^c of w sends u*x^m
        to (a*u)*x^(m+c) in the same component."""
        units, mons = self.ring.field.power_basis, self.algebra.space.mons
        return self._matrix(
            (s, s, [a * u for u in units], [(m, tuple(map(operator.add, m, c))) for m in mons])
            for s in range(self.rank) for c, a in w.terms.items()
        )

    def zero(self):
        return (self.ring.zero,) * self.rank

    def add(self, a, b):
        # a sum of reduced polynomials is reduced
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def act(self, r, a):
        return tuple(self.algebra.reduce(x * r) for x in a)

    def phi(self, a):
        out = []
        for row in self.kern:
            acc = self.ring.zero
            for k, y in zip(row, a):
                if k and y:
                    acc = acc + k * y
            out.append(self.algebra.reduce(self.ring.cartier(acc)))
        return tuple(out)

    def phi_iter(self, a, k):
        for _ in range(k):
            a = self.phi(a)
        return a

    def eq(self, a, b):
        return all(x == y for x, y in zip(a, b))

    def format(self, a):
        if self.rank == 1:
            return self.ring.format(a[0])
        return "(" + ", ".join(self.ring.format(x) for x in a) + ")"

    def space(self):
        return self._space

    def structure_check(self):
        """The twist law phi(x_i^p y) = x_i phi(y) as Phi M(x_i^p) = M(x_i)
        Phi on the whole carrier, and Phi's columns against phi on six
        sampled basis vectors."""
        p = self.ring.field.p
        for x in self.ring.gens():
            if product(self.Phi, self.times(x**p), p) != product(self.times(x), self.Phi, p):
                raise StructureError("structure map violates the p-th power twist law")
        sample = list(itertools.islice(self._space.basis_elems(), 6))
        if flatten(map(self.phi, sample), self._space, p) != self.Phi.first_columns(len(sample)):
            raise StructureError("structure matrix disagrees with the structure map")

    def __repr__(self):
        return "ArtinianCartierModule(%r, rank=%d)" % (self.algebra, self.rank)


def standard_module(algebra, rank=1):
    return ArtinianCartierModule(algebra, rank=rank)


def zero_structure_module(algebra, rank=1):
    return scaled_module(algebra, 0, rank)


def scaled_module(algebra, lam, rank=1):
    """cmatrix = lam * I."""
    cm = [[lam if s == t else 0 for s in range(rank)] for t in range(rank)]
    return ArtinianCartierModule(algebra, rank=rank, cmatrix=cm)


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

    with kernel[S][t][s] = cmatrix[t][s] * prod_(i not in S) fi^(p-1).
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
        # the wedge resolution of R/(x1^a1..xd^ad): x1^a1, ..., xd^ad is a
        # regular sequence once every exponent is >= 1
        exps = module.algebra.exponents
        if any(a < 1 for a in exps):
            raise ValueError("the cone needs every exponent >= 1, got %s" % ",".join(map(str, exps)))
        self.fs = [x**a for x, a in zip(ring.gens(), exps)]
        self.length = self.d + 1
        units = ring.field.power_basis
        self.kernel, self.lifts = {}, {}
        for j in range(self.d + 1):
            for S in subsets(self.d, j):
                outside = ring.monomial(tuple(0 if i in S else a * (self.p - 1) for i, a in enumerate(exps)))
                self.kernel[S] = [[k * outside for k in row] for row in module.cmatrix]
                # kernel[S][t][s]'s terms a*x^c as (c, digits of (a*u)^(1/p) per unit u)
                self.lifts[S] = [
                    [[(c, unit_digits((a * u).pth_root() for u in units)) for c, a in k.terms.items()]
                     for k in row]
                    for row in self.kernel[S]
                ]

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
        return [("C", S, s, a) for S in subsets(self.d, n - 1) for s in rank for a in digits] + [
            ("D", S, s) for S in subsets(self.d, n) for s in rank
        ]

    def hom_space(self, n, nspace):
        """Flat coordinates of Hom(spot n, N), values in `nspace`: a right
        R{F}-linear map is fixed by its values at the generators of spot n,
        so the keys are `generator_keys(n)`."""
        return keyed(self.generator_keys(n), nspace)

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
        random generators per spot that has any."""
        rng = random.Random(seed)
        mons = monomials_box(self.d, (self.p,) * self.d)
        for n in range(1, self.length + 1):
            gens = self.generators(n)
            for _ in range(4 if gens else 0):
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
        for S in subsets(cone.d, size)
        for s in range(cone.module.rank)
        for i in range(dfmax + 1)
    ]
    # cap is the largest exponent allowed, inclusive
    return keyed(keys, PolySpace.box(cone.ring, cap + 1))


def _flatten_diff(cone, n, dom, cap, dfmax):
    """Flatten d_n from the window `dom` by index arithmetic; the codomain
    window is the (cap, dfmax) one, grown to fit the images.  The column of
    u*x^m at key (part, S, s, i) holds `ConeComplex.differential`'s terms:
    per (sign, l, T) of the wedge boundary, x^(m + a_l*e_l) at (part, T, s,
    i) with value sign*u, negated on part "C"; on part "C" also the lift
    (a*u)^(1/p) * x^((c+m+1)/p - 1) at ("D", S, t, i) for each term a*x^c
    of kernel[S][t][s] with p dividing every c+m+1, and the F-shift -u*x^m
    at ("D", S, s, i+1).  No two terms of a column share a row."""
    field = cone.ring.field
    p, e = cone.p, field.e
    mons = dom.inner.mons
    signed = {1: unit_digits(field.power_basis), -1: unit_digits(-u for u in field.power_basis)}
    up = [[m[:l] + (m[l] + a,) + m[l + 1 :] for m in mons] for l, a in enumerate(cone.module.algebra.exponents)]

    @functools.cache
    def lift(c):  # per m, the lift's exponent (c+m+1)/p - 1, or None off the congruence
        tops = ([x + y + 1 for x, y in zip(c, m)] for m in mons)
        return [tuple(x // p - 1 for x in t) if all(x % p == 0 for x in t) else None for t in tops]

    groups = []  # per (key, m), in dom's order: [(row key, exponent, digits per unit)]
    for part, S, s, i in dom.keys:
        flip = -1 if part == "C" else 1
        terms = [((part, T, s, i), up[l], signed[flip * sign]) for sign, l, T in wedge_boundary(S)]
        if part == "C":
            terms += [(("D", S, t, i), lift(c), ds) for t, row in enumerate(cone.lifts[S]) for c, ds in row[s]]
            terms.append((("D", S, s, i + 1), mons, signed[-1]))
        for j in range(len(mons)):
            groups.append([(key, exps[j], ds) for key, exps, ds in terms if exps[j] is not None])
    keys = {key for hits in groups for key, _, _ in hits}
    exps = {exp for hits in groups for _, exp, _ in hits}
    cap = max([cap] + [max(exp, default=0) for exp in exps])
    cod = cone_window(cone, n - 1, cap, max([dfmax] + [key[3] for key in keys]))
    at = {key: cod.at(key) for key in keys}
    pos = {exp: cod.inner.index[exp] * e for exp in exps}
    rows = [{} for _ in range(cod.dim())]
    for col, (hits, k) in enumerate(itertools.product(groups, range(e))):
        for key, exp, ds in hits:
            for t, x in ds[k]:
                rows[at[key] + pos[exp] + t][col] = x
    return SparseMatrix(rows, dom.dim()), cod


def _augment_matrix(module, dom, dfmax):
    """The matrix of `ConeComplex.augment` on the spot-0 window `dom`: the
    column of u*x^m at ("D", (), s, i) is column (s, m, u) of Phi^i when x^m
    lies in the carrier's box, and zero otherwise."""
    p, n, box = module.ring.field.p, module.space().dim(), module.algebra.space
    powers = [SparseMatrix([{r: 1} for r in range(n)], n)]  # (Phi^i)^T, whose rows are Phi^i's columns
    while len(powers) <= dfmax:
        powers.append(product(powers[-1], module.Phi.T, p))
    at = [box.index.get(m) for m in dom.inner.mons]
    cols = [powers[i].rows[s * box.dim() + j * box.e + k] if j is not None else {}
            for _, _, s, i in dom.keys for j in at for k in range(box.e)]
    return SparseMatrix(cols, n).T


def cone_acyclicity_report(cone, cap, dfmax, max_growth=3):
    """Windowed exactness sweep of the cone over the augmentation.

    At each inner spot, every cycle supported in the (cap, dfmax) window must
    be a boundary from a grown window; at the top spot the differential must
    have no kernel in the window; at spot 0 the augmentation kernel must be
    hit.  Growth proceeds in steps of the largest defining exponent.
    """
    module = cone.module
    p = cone.p
    step = max((*module.algebra.exponents, 1))
    report = {"cap": cap, "dfmax": dfmax, "spots": [], "passed": True}

    def hit_by_next(n, cycles, cyc_space):
        """Can each cycle (a row of coords in cyc_space) be written as
        d_(n+1) of an element from a grown window?"""
        for g in range(1, max_growth + 1):
            dom = cone_window(cone, n + 1, cap + g * step, dfmax)
            A, cod = _flatten_diff(cone, n + 1, dom, cap, dfmax)
            if solve(A, reembed(cycles, cyc_space, cod), p) is not None:
                return True, g
        return False, max_growth

    for n in range(cone.length + 1):
        dom = cone_window(cone, n, cap, dfmax)
        if n:
            A = _flatten_diff(cone, n, dom, cap, dfmax)[0]
        else:  # spot 0 is measured by the augmentation
            A = _augment_matrix(module, dom, dfmax)
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


# -- the dual complex --------------------------------------------------------


def _reads(cone, n):
    """The dual differential Hom(spot n) -> Hom(spot n+1), indexed by what
    each basis functional reads: a functional is one key k with one inner
    value b, so it reads only the terms of the bounded differentials that
    name k.  Returns k -> [(generator key, F-degree i, coefficient w)], with
    each twisted term's digits taken once."""
    ring = cone.ring
    reads = {}
    for gkey, g in cone.generators(n + 1):
        for (part, S, s, i), h in cone.differential(n + 1, g).items():
            if part == "D":
                reads.setdefault(("D", S, s), []).append((gkey, i, h))
                continue
            for b, w in ring.frobenius_digits(h).items():
                if w:
                    reads.setdefault(("C", S, s, b), []).append((gkey, i, w))
    return reads


def _dual_matrix(cone, target, n):
    """The dual differential Hom(spot n) -> Hom(spot n+1), values in the
    Artinian carrier `target`, in the layouts of `hom_space`: the block from
    key k to generator g is the sum of Phi^i M(w) over k's `_reads` terms
    (g, i, w), which is what right R{F}-linearity gives."""
    p, nt, reads = cone.p, target.space().dim(), _reads(cone, n)
    cod = cone.hom_space(n + 1, target.space())

    @functools.cache  # few (i, w) pairs recur across the keys
    def columns(i, w):  # the columns of Phi^i M(w)
        blockT = target.times(w).T
        for _ in range(i):
            blockT = product(blockT, target.Phi.T, p)
        return blockT.rows

    cols = []
    for k in cone.generator_keys(n):
        block = [{} for _ in range(nt)]
        for g, i, w in reads.get(k, ()):
            at = cod.offset[g]
            for col, row in zip(block, columns(i, w)):
                for r, v in row.items():
                    col[at + r] = (col.get(at + r, 0) + v) % p
        cols.extend({r: v for r, v in col.items() if v} for col in block)
    return SparseMatrix(cols, cod.dim()).T


def ext_dims_artinian(cone, target, jmax):
    """Exact Ext dimensions over R{F} against an Artinian target, one per
    spot 0..jmax (0 beyond d+1): the cohomology of the dual complex."""
    mats = [_dual_matrix(cone, target, n) for n in range(min(jmax, cone.length) + 1)]
    dims = complex_dims(mats, cone.p)
    return dims + [0] * (jmax + 1 - len(dims))


def ext_dim_free_target(cone, j, cap=2, gap=None, max_rounds=3):
    """Ext^j against the free target R itself, structure map the digit
    projection C, computed on degree caps with a stability protocol.

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

    The boundary span is built from the cycles outward.  Its rows are
    (spot-j generator key g, value monomial m) pairs and its columns fall
    into small connected blocks; a block that meets no cycle row adds the
    same rank to the boundaries and to cycles plus boundaries, so it cancels
    in q(L).  A breadth-first walk from the cycles' rows collects the rest:
    row (g, m), read through a term (k, i, c) of `_reads` (x^c a monomial of
    the coefficient), names the one functional k -> x^b with phi^i(x^(c+b))
    = x^m, b = p^i*m + p^i - 1 - c componentwise, kept when 0 <= b <= p*L +
    gap.  Rows are numbered as reached, and each image is reduced into one
    echelon form as it is taken.  The cycles and the closure at cap L-1 lie
    inside those at cap L, so cap L resumes the walk and the elimination of
    cap L-1: a functional turned away only by the bound waits for a larger
    one, and q(L) = rank(cycles + B) - rank(B) is the number of cycles that
    survive reduction against a copy of the boundaries' pivot rows B.
    """
    if j > cone.length:
        return {"dim": 0, "stable": True, "structural_zero": True, "caps": []}
    field = cone.ring.field
    p, e = field.p, field.e
    if gap is None:
        gap = p + sum(cone.module.algebra.exponents)
    units = field.power_basis
    reads = (_reads(cone, j), _reads(cone, j - 1) if j else {})  # values at spot j+1, at spot j
    # the generator keys of spots j-1..j+1 by number, so that the walk hashes ints
    ids = {n: {key: x for x, key in enumerate(cone.generator_keys(n))} for n in range(max(j - 1, 0), j + 2)}
    # per side: functional k -> [(p^i, (c+1) mod p^i -> [(generator, c+1,
    # (u*e + t, digit t of (a*u)^(1/p^i)) per unit u)])], one entry per term
    # a*x^c of a coefficient
    tables = ({}, {})
    for table, side, n in zip(tables, reads, (j, j - 1)):
        for k, terms in side.items():
            by = {}
            for gkey, i, w in terms:
                for c, a in w.terms.items():
                    roots = [a * u for u in units]
                    for _ in range(i):
                        roots = [v.pth_root() for v in roots]
                    flat = [(u * e + t, x) for u, v in enumerate(roots) for t, x in enumerate(v.val) if x]
                    c1, step = tuple(x + 1 for x in c), p**i
                    res = tuple(x % step for x in c1)
                    by.setdefault(step, {}).setdefault(res, []).append((ids[n + 1][gkey], c1, flat))
            table[ids[n][k]] = list(by.items())
    usedby = {}  # spot-j generator -> [(functional k, p^i, c+1)]
    for k, terms in reads[1].items():
        for gkey, i, w in terms:
            uses = usedby.setdefault(ids[j][gkey], [])
            uses.extend((ids[j - 1][k], p**i, tuple(x + 1 for x in c)) for c in w.terms)

    def image(table, k, b, at, order):
        """The flat images of the functionals k -> x^b * u, one row per unit
        u; a row key met for the first time is numbered in `at` and appended
        to `order`.  phi^i(a*x^c * x^b * u) is (a*u)^(1/p^i) * x^m, m =
        (c+b+1)/p^i - 1, when p^i divides every c+b+1, and zero otherwise."""
        sums = {}  # row key -> its nonzero (u*e + t, digit) pairs
        for step, groups in table.get(k, ()):
            for gkey, c1, flat in groups.get(tuple([-x % step for x in b]), ()):
                key = (gkey, tuple([(x + y) // step - 1 for x, y in zip(c1, b)]))
                if key in sums:  # two terms meet at one row key
                    acc = dict(sums[key])
                    for ut, x in flat:
                        acc[ut] = (acc.get(ut, 0) + x) % p
                    flat = [(ut, x) for ut, x in acc.items() if x]
                sums[key] = flat
        rows = [{} for _ in units]
        for key, acc in sums.items():
            if not acc:
                continue
            r = at.get(key)
            if r is None:
                r = at[key] = len(at)
                order.append(key)
            for ut, x in acc:
                rows[ut // e][r * e + ut % e] = x
        return rows

    # the boundary walk, resumed by every cap: row key -> row number, the
    # row keys in that order, how many of them are walked, the functionals
    # taken, those turned away by the bound only, and the echelon form of
    # the images taken
    at, queue, walked, done, waiting, piv = {}, [], 0, set(), {}, {}

    def q(L):
        nonlocal walked
        # cap L is the largest exponent allowed, inclusive
        dom = [(k, m) for k in range(len(ids[j])) for m in monomials_box(cone.d, (L + 1,) * cone.d)]
        at0 = {}
        cols = [row for k, m in dom for row in image(tables[0], k, m, at0, [])]
        ker = kernel_basis(SparseMatrix(cols, len(at0) * e).T, p)  # exact cycles
        if j == 0 or not ker.rows:
            return len(ker.rows)
        for key in dict.fromkeys(dom[c // e] for y in ker.rows for c in y):
            if key not in at:
                at[key] = len(at)
                queue.append(key)
        lift = [{at[dom[c // e]] * e + c % e: v for c, v in y.items()} for y in ker.rows]
        big, named = p * L + gap, list(waiting)
        waiting.clear()
        while True:
            for k, b in named:
                if (k, b) in done or min(b, default=0) < 0:  # a negative b stays out at every cap
                    continue
                if max(b, default=0) > big:
                    waiting[(k, b)] = None
                    continue
                done.add((k, b))
                echelon(image(tables[1], k, b, at, queue), p, piv)
            if walked == len(queue):  # the queue grows while it is walked
                break
            gkey, m = queue[walked]
            walked += 1
            uses = usedby.get(gkey, ())
            named = [(k, tuple([step * (x + 1) - y for x, y in zip(m, c1)])) for k, step, c1 in uses]
        return len(echelon(lift, p, dict(piv))) - len(piv)

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
    """Ext^j over R{F} of the module against the target, via the cone: the
    target is the module's ring (the free target, `caps` as in
    `ext_dim_free_target`) or an Artinian carrier."""
    cone = ConeComplex(module)
    if isinstance(target, PolyRing):
        return ext_dim_free_target(cone, j, **caps)
    dims = ext_dims_artinian(cone, target, j)
    return {"dim": dims[j], "stable": True, "structural_zero": j > cone.length, "caps": []}


# -- transpose and the unitalization tower ------------------------------------


def unit_transpose_map(module):
    """tau(m) = (phi(x^a m))_a over the digit tuples a, flattened over F_p:
    the blocks Phi M(x^a) stacked in digit order.  Returns (matrix, digits)."""
    ring, p = module.ring, module.ring.field.p
    digits = _digit_tuples(p, ring.d)
    rows = [row for a in digits for row in product(module.Phi, module.times(ring.monomial(a)), p).rows]
    return SparseMatrix(rows, module.space().dim()), digits


def unitalize_report(module, levels):
    """The unitalization tower: level l holds tensors indexed by l digit
    tuples with entries in the module; the transition fans the transpose out
    along a fresh index.  Reports per-level dimensions and transition ranks
    (and their composite), all over F_p."""
    tmat, digits = unit_transpose_map(module)
    p, nd, mdim = module.ring.field.p, len(digits), tmat.ncols

    def level_dim(l):
        return (nd**l) * mdim

    def transition_matrix(l):
        """Flat matrix of t_l: level l -> level l+1.  Level l is laid out as
        (index tuple, module coordinate), so t_l applies the transpose to
        each index tuple's block and appends the fresh index last: the
        block-diagonal matrix with one copy of the transpose's per tuple."""
        rows = [{b * mdim + j: v for j, v in row.items()} for b in range(nd**l) for row in tmat.rows]
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

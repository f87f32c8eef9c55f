"""Checks on the cone and the unit transpose that no task reports.

`ConeComplex` is `frobext.cartier.ConeComplex` with the cone's symbolic
differential: elements are key -> polynomial dicts, and `differential`,
`augment`, the right action `act_ring` and `act_F` and the symbolic
`generators` work on them by polynomial arithmetic.  It is the reference for
the index rule `ConeComplex.rule`, the library's one definition of d.  It
also counts generators per spot, and its `koszul` is the Koszul complex of
`koszul_reference`, which carries the whole-element differential.
`reads_reference` is `frobext.cartier._reads` built from the symbolic images
of the generators.  `_dual_images` evaluates the dual differential's
functionals through a carrier's symbolic `act` and `phi_iter`: the reference for `frobext.cartier._dual_matrix`, which builds
the same matrix from the carrier's Phi and M(w).  `FreeTarget` is the free
target R as such a carrier, through polynomial products and the Cartier
map: the whole-matrix reference for `ext_dim_free_target`, which computes
the same images by index arithmetic.  `whole_matrix_q` is that reference's
q(L), with `intersection_dim` of two row spans, and is independent of the
closure walk.  `ext_split_check` is AC4's second way
to the Ext table: the plain and twisted plain-ring blocks of the dual
complex, each picked out of the cone's keys and `_reads` terms by part, and
the cross block between them.  `flatten_diff` flattens a cone window by
pushing each basis vector through the symbolic `ConeComplex.differential`:
the reference for `frobext.cartier._flatten_diff`, which writes the same
columns by index arithmetic, with the (cap, dfmax) window's rows first and
only the other rows that some column reaches.  `unit_transpose_report` gives the
rank of the unit transpose and `free_transpose_roundtrip` checks that on the
free rank-one module the transpose is digit reversal: `unitalize` reports
only the tower built on that transpose.
"""

from frobext import cartier
from frobext.cartier import (
    _digit_tuples,
    _reads,
    cone_window,
    ext_dims_artinian,
    unit_transpose_map,
)
from frobext.koszul import wedge_boundary
from frobext.linalg import complex_dims, echelon, flatten, kernel_basis, keyed, rank, rref_transform
from frobext.poly import PolySpace, add_at

from dense import reembed
from koszul_reference import KoszulComplex
from two_step_reference import frob_power


class ConeComplex(cartier.ConeComplex):
    """`frobext.cartier.ConeComplex` with its symbolic differential.  An
    element is a dict (part, S, s, i) -> nonzero polynomial g, the term
    g . e_(S,s) (x) F^i, and `differential` writes d by polynomial
    arithmetic on the regular sequence fl = xl^al and kernel[S][t][s] =
    cmatrix[t][s] * prod_(i not in S) fi^(p-1): the reference for the index
    rule `ConeComplex.rule`."""

    def __init__(self, module):
        super().__init__(module)
        ring, exps = self.ring, module.algebra.exponents
        self.fs = [x**a for x, a in zip(ring.gens(), exps)]
        self.kernel = {}
        for S in self.lifts:
            outside = ring.monomial(tuple(0 if i in S else a * (self.p - 1) for i, a in enumerate(exps)))
            self.kernel[S] = [[k * outside for k in row] for row in module.cmatrix]
        self.koszul = KoszulComplex(ring, self.fs)

    def differential(self, n, z):
        """d_n: spot n -> spot n-1."""
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
                add_at(out, ("D", S, t, i), self.ring.cartier(self.kernel[S][t][s] * g))
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

    def generators(self, n):
        """(key, element) for each right-module generator of spot n."""
        ring = self.ring
        gens = []
        for key in self.generator_keys(n):
            g = ring.monomial(key[3], ring.field.one) if key[0] == "C" else ring.one
            gens.append((key, {key[:3] + (0,): g}))
        return gens

    def generator_count(self, n):
        """Wedge-level generators at spot n (twisted + plain)."""
        return self.module.rank * (self.koszul.rank(n - 1) + self.koszul.rank(n))


class FreeTarget:
    """Dual-complex values in the polynomial ring itself, structure map the
    digit projection C.  Flat spaces are degree-capped boxes."""

    def __init__(self, ring):
        self.ring = ring

    def zero(self):
        return self.ring.zero

    def add(self, a, b):
        return a + b

    def eq(self, a, b):
        return a == b

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


def reads_reference(cone, n):
    """`frobext.cartier._reads` from the symbolic differential: each
    generator's image under d_(n+1), a plain term read whole and a twisted
    one split into its Frobenius digits."""
    reads = {}
    for gkey, g in cone.generators(n + 1):
        for (part, S, s, i), h in cone.differential(n + 1, g).items():
            if part == "D":
                reads.setdefault(("D", S, s), []).append((gkey, i, h))
                continue
            for b, w in cone.ring.frobenius_digits(h).items():
                if w:
                    reads.setdefault(("C", S, s, b), []).append((gkey, i, w))
    return reads


def _image(target, terms, b):
    """Generator -> the nonzero value sum phiN^i(w * b) over a functional's
    terms, for inner value b in the carrier `target`: what right
    R{F}-linearity gives it (tests/test_cartier.py checks this against the
    direct evaluation)."""
    img = {}
    for gkey, i, w in terms:
        v = target.phi_iter(target.act(w, b), i)
        img[gkey] = target.add(img[gkey], v) if gkey in img else v
    return {gkey: v for gkey, v in img.items() if not target.eq(v, target.zero())}


def _dual_images(cone, target, n, dom_space):
    """Images of the dual differential Hom(spot n) -> Hom(spot n+1) on the
    flat basis of dom_space, each a key -> value dict."""
    reads = _reads(cone, n)
    basis = list(dom_space.inner.basis_elems())
    return [_image(target, reads.get(key, ()), b) for key in dom_space.keys for b in basis]


def intersection_dim(U, V, p):
    """dim(span U intersect span V), for the row spans.  V is eliminated
    once and U's rows are then reduced against V's pivot rows: each that
    does not vanish adds one to dim(span U + span V)."""
    du = rank(U, p)
    R, pivots = rref_transform(V, p)
    if du == 0 or not pivots:
        return 0
    dsum = len(echelon(U.rows, p, dict(zip(pivots, R.rows))))
    return du + len(pivots) - dsum


def whole_matrix_q(cone, target, j, L, gap):
    """q(L) of `ext_dim_free_target` on the whole boundary matrix: every
    spot-(j-1) functional up to cap p*L + gap, flattened into value boxes
    wide enough for every image.  The reference for the closure walk;
    `target` is a `FreeTarget`."""
    p = cone.p

    def value_cap(images):
        return max([L] + [max(exp) for img in images for v in img.values() for exp in v.terms])

    dom = cone.hom_space(j, target.space(L))
    images = _dual_images(cone, target, j, dom)
    cod = cone.hom_space(j + 1, target.space(value_cap(images)))
    ker = kernel_basis(flatten(images, cod, p), p)  # exact cycles with values capped at L
    if j == 0 or ker.shape[0] == 0:
        return ker.shape[0]
    prev_images = _dual_images(cone, target, j - 1, cone.hom_space(j - 1, target.space(p * L + gap)))
    amb = cone.hom_space(j, target.space(value_cap(prev_images)))
    lift = reembed(ker, dom, amb)
    return lift.shape[0] - intersection_dim(lift, flatten(prev_images, amb, p).T, p)


def flatten_diff(cone, n, dom, cap, dfmax):
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


def _block_space(cone, n, nspace, part):
    """Hom(spot n, N) on the generators of one part ("C" or "D") only."""
    return keyed([k for k in cone.generator_keys(n) if k[0] == part], nspace)


def _block_images(cone, target, n, dom_space, part):
    """The dual differential's images of dom_space's flat basis, read only
    at the spot-(n+1) generators of `part`."""
    reads = {k: [t for t in terms if t[0][0] == part] for k, terms in _reads(cone, n).items()}
    basis = list(dom_space.inner.basis_elems())
    return [_image(target, reads.get(key, ()), b) for key in dom_space.keys for b in basis]


def _block_dims(cone, target, spots, part):
    """Cohomology dimensions of the diagonal block of `part` of the dual
    complex, on the given consecutive spots."""
    nspace = target.space()
    mats = []
    for n in spots:
        dom = _block_space(cone, n, nspace, part)
        cod = _block_space(cone, n + 1, nspace, part)
        mats.append(flatten(_block_images(cone, target, n, dom, part), cod, nspace.p))
    return complex_dims(mats, nspace.p)


def ext_r_dims(module, ntarget):
    """Ext over the plain ring via the wedge resolution, Artinian target:
    the "D" block of the cone's dual complex, on spots 0..d."""
    cone = cartier.ConeComplex(module)
    return _block_dims(cone, ntarget, range(cone.d + 1), "D")


def ext_r_twisted_dims(module, ntarget):
    """Ext over the plain ring of the p-th power relabeling of the module:
    the "C" block of the cone's dual complex, on spots 1..d+1, free on
    (wedge, digit) pairs.  Its differential is minus the wedge boundary,
    which changes no kernel or image dimension."""
    cone = cartier.ConeComplex(module)
    return _block_dims(cone, ntarget, range(1, cone.d + 2), "C")


def _cross_block_is_zero(cone, target):
    """The connecting leg of the dual differential, plain-part functionals
    read at twisted-part generators, must vanish when both structure maps
    are zero."""
    nspace = target.space()
    for n in range(cone.length):
        dom = _block_space(cone, n, nspace, "D")
        if any(_block_images(cone, target, n, dom, "C")):
            return False
    return True


def ext_split_check(module, nmodule):
    """Compare the twisted-ring Ext dims with the direct sum of the two
    plain-ring contributions, spot by spot.  When both structure maps vanish
    the connecting leg of the dual differential is identically zero and the
    comparison must be an equality."""
    cone = cartier.ConeComplex(module)
    jmax = cone.length
    lhs = ext_dims_artinian(cone, nmodule, jmax)
    plain = ext_r_dims(module, nmodule)
    twisted = ext_r_twisted_dims(module, nmodule)

    def at(arr, j):
        return arr[j] if 0 <= j < len(arr) else 0

    rhs = [at(plain, j) + at(twisted, j - 1) for j in range(jmax + 1)]
    cross_zero = None
    # both structure maps vanish: every cmatrix entry is zero
    if not any(v for m in (module, nmodule) for row in m.cmatrix for v in row):
        cross_zero = _cross_block_is_zero(cone, nmodule)
    return {
        "dims": lhs,
        "plain": plain,
        "twisted_shifted": [at(twisted, j - 1) for j in range(jmax + 1)],
        "sum": rhs,
        "split": lhs == rhs,
        "cross_block_zero": cross_zero,
    }


def unit_transpose_report(module):
    A = unit_transpose_map(module)[0]
    m, n = A.shape
    r = rank(A, module.ring.field.p)
    return {"domain_dim": n, "codomain_dim": m, "rank": r, "injective": r == n, "surjective": r == m}


def free_transpose_roundtrip(ring, cap):
    """For the rank-one free module with the plain digit projection, the
    transpose is digit reversal: tau(f)_a = digit_(p-1-a)(f), with inverse
    (m_a) -> sum_a m_a^p x^(p-1-a).  Checked exactly on the capped box."""
    p = ring.field.p
    digits = _digit_tuples(p, ring.d)

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

"""The Koszul complex as a complex: its differential on whole elements,
d.d = 0, the quotient algebra and window-truncated exactness.

`KoszulComplex` is the complex on a sequence of pure powers of distinct
variables, built on the wedge basis of `frobext.koszul` (`subsets` and
`wedge_boundary`), with the exponent of each variable in the sequence
(`pure_exponents`).  The program itself reads only those two functions:
the mapping cone assembles its differential from their terms and checks
d.d = 0 on its own generators.
"""

from frobext import koszul
from frobext.koszul import wedge_boundary
from frobext.linalg import flatten, kernel_basis, keyed, matrix_of_map, reembed, solve
from frobext.poly import PolySpace, add_at

from artinian_reference import ArtinianAlgebra


class KoszulComplex:
    def __init__(self, ring, fs):
        self.ring = ring
        self.fs = [ring.coerce(f) for f in fs]
        self.k = len(self.fs)
        # each entry is unit * x_i^a for its own i: a is x_i's exponent
        self.pure_exponents = [0] * ring.d
        for f in self.fs:
            (exp,) = f.terms
            for i, a in enumerate(exp):
                self.pure_exponents[i] += a

    def subsets(self, j):
        return koszul.subsets(self.k, j)

    def rank(self, j):
        return len(self.subsets(j))

    def differential(self, z):
        """d on an element of any spot, a dict S -> polynomial."""
        out = {}
        for S, g in z.items():
            for sign, l, T in wedge_boundary(S):
                add_at(out, T, self.fs[l] * g * sign)
        return out

    def d_squared_is_zero(self):
        """d(d(e_S)) = 0 for every generator e_S; d is R-linear, so this is
        d . d = 0."""
        one = self.ring.one
        return not any(
            self.differential(self.differential({S: one}))
            for j in range(2, self.k + 1)
            for S in self.subsets(j)
        )

    def quotient_algebra(self):
        if self.k != self.ring.d:
            raise ValueError("quotient algebra needs a full system of parameters")
        return ArtinianAlgebra(self.ring, self.pure_exponents)


def koszul_window_report(K, cap):
    """Exactness of the Koszul complex measured on exponent-box windows.

    Every cycle whose monomials fit in box(cap) must be a boundary coming
    from box(cap + growth), growth the largest defining exponent.  Also
    checks that spot-0 homology matches the quotient algebra: the ideal part
    of the window is exactly the image of d_1.  Returns a dict report.
    """
    ring = K.ring
    p = ring.field.p
    growth = max(K.pure_exponents) if any(K.pure_exponents) else 1
    small = PolySpace.box(ring, cap)
    big = PolySpace.box(ring, cap + growth)
    bigger = PolySpace.box(ring, cap + 2 * growth)

    def flat_d(j, box, cod_box):
        """d_j from the spot-j window on `box` into the spot-(j-1) one on
        `cod_box`, and the domain window."""
        dom = keyed(K.subsets(j), box)
        cod = keyed(K.subsets(j - 1), cod_box)
        return matrix_of_map(dom.basis_elems(), K.differential, cod, p).mat, dom

    report = {"cap": cap, "growth": growth, "spots": {}, "passed": True}
    for j in range(1, K.k + 1):
        dj, dom = flat_d(j, small, big)
        cycles = kernel_basis(dj, p)
        if j == K.k:
            ok = cycles.shape[0] == 0
            report["spots"][j] = {"cycles": int(cycles.shape[0]), "hit": ok}
            report["passed"] = report["passed"] and ok
            continue
        dnext, _ = flat_d(j + 1, big, bigger)
        # re-express the small-window cycles in the `bigger` coordinates that
        # dnext maps into, then ask for simultaneous preimages
        ok = True
        if cycles.shape[0]:
            ok = solve(dnext, reembed(cycles, dom, keyed(K.subsets(j), bigger)), p) is not None
        report["spots"][j] = {"cycles": int(cycles.shape[0]), "hit": bool(ok)}
        report["passed"] = report["passed"] and bool(ok)
    # spot 0: window homology = quotient algebra
    if K.k == ring.d:
        A = K.quotient_algebra()
        d1, _ = flat_d(1, small, big)
        ideal = [
            ring.monomial(m)
            for m in small.mons
            if any(b >= a for b, a in zip(m, K.pure_exponents))
        ]
        ok0 = True
        if ideal:
            ok0 = solve(d1, flatten(ideal, big, p).T, p) is not None
        window_quotient = len(small.mons) - len(ideal)
        if all(cap >= a for a in K.pure_exponents):
            # the window contains the whole algebra, so dims must agree
            ok0 = ok0 and window_quotient == A.dim_fq
        report["spots"][0] = {
            "ideal_monomials_hit": bool(ok0),
            "window_quotient_dim_fq": window_quotient,
            "algebra_dim_fq": A.dim_fq,
        }
        report["passed"] = report["passed"] and bool(ok0)
    return report

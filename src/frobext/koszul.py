"""Koszul complexes on monomial-like regular sequences, with exact d.d = 0
checks and window-truncated exactness reports.

The differential uses the lexicographic wedge basis: the spot-j generators
are the sorted j-element subsets S of {0..k-1}, and

    d(e_S) = sum_l (-1)^(l) f_(S[l]) e_(S minus S[l])     (l = 0-based slot)

An element of spot j is a dict S -> nonzero polynomial, the sum of the
terms g . e_S; `linalg.keyed` on `subsets(j)` gives such dicts their flat
coordinates.  The mapping cone over R{F} reads its two wedge copies from
here.
"""

from __future__ import annotations

from itertools import combinations

from .artinian import ArtinianAlgebra
from .linalg import flatten, kernel_basis, keyed, matrix_of_map, reembed, solve
from .poly import PolySpace, add_at


def wedge_boundary(S):
    """The terms of d(e_S): (sign, dropped index, remaining tuple)."""
    return [((-1) ** idx, l, S[:idx] + S[idx + 1 :]) for idx, l in enumerate(S)]


def _monomial_like(ring, f):
    """Return (variable index, exponent) when f is unit * x_i^a, else None."""
    f = ring.coerce(f)
    if len(f.terms) != 1:
        return None
    (exp, coeff), = f.terms.items()
    nz = [i for i, a in enumerate(exp) if a]
    if len(nz) != 1:
        return None
    return nz[0], exp[nz[0]]


class KoszulComplex:
    """The Koszul complex K(f_0, ..., f_{k-1}) over R.

    Only monomial-like sequences (pure powers of distinct variables, unit
    coefficients allowed) are accepted.  Such a sequence is regular, so the
    constructor's check, which rejects every other entry, certifies
    regularity without general ideal machinery.
    """

    def __init__(self, ring, fs):
        self.ring = ring
        self.fs = [ring.coerce(f) for f in fs]
        self.k = len(self.fs)
        seen = {}
        self.pure_exponents = [0] * ring.d
        for f in self.fs:
            info = _monomial_like(ring, f)
            if info is None:
                raise ValueError(
                    "sequence entry %r is not a pure power of a single variable" % (f,)
                )
            var, a = info
            if var in seen:
                raise ValueError(
                    "sequence repeats the variable %r and fails the regularity check"
                    % (ring.var_names[var],)
                )
            if a == 0:
                raise ValueError("sequence entry %r is a unit; not a regular sequence" % (f,))
            seen[var] = a
            self.pure_exponents[var] = a

    def subsets(self, j):
        """The generators e_S of spot j, lexicographic; none outside 0..k."""
        if j < 0 or j > self.k:
            return []
        return list(combinations(range(self.k), j))

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
            targets = reembed(cycles, dom, keyed(K.subsets(j), bigger)).T
            ok = solve(dnext, targets, p) is not None
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
            ok0 = solve(d1, flatten(ideal, big, p), p) is not None
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

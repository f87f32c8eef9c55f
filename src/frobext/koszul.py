"""Koszul complexes on monomial-like regular sequences, with exact d.d = 0
checks and window-truncated exactness reports.

The differential uses the lexicographic wedge basis: the spot-j basis is the
sorted list of j-element subsets of {0..k-1}, and

    d(e_S) = sum_l (-1)^(l) f_(S[l]) e_(S minus S[l])     (l = 0-based slot)

Matrices are stored as dense lists of polynomial entries, rows indexed by the
codomain basis.
"""

from __future__ import annotations

from itertools import combinations

from .artinian import ArtinianAlgebra
from .linalg import flatten, kernel_basis, matrix_of_map, reembed, solve, tuple_space
from .poly import PolySpace


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
        self.basis = [list(combinations(range(self.k), j)) for j in range(self.k + 1)]

    def rank(self, j):
        if j < 0 or j > self.k:
            return 0
        return len(self.basis[j])

    def differential(self, j):
        """Matrix of d_j : K_j -> K_{j-1}, rows = K_{j-1} basis, as polys."""
        if j < 1 or j > self.k:
            return [[self.ring.zero] * self.rank(j) for _ in range(self.rank(max(j - 1, 0)))]
        rows = {S: i for i, S in enumerate(self.basis[j - 1])}
        mat = [[self.ring.zero] * self.rank(j) for _ in range(self.rank(j - 1))]
        for col, S in enumerate(self.basis[j]):
            for slot, idx in enumerate(S):
                T = tuple(x for x in S if x != idx)
                sign = -1 if slot % 2 else 1
                mat[rows[T]][col] = mat[rows[T]][col] + sign * self.fs[idx]
        return mat

    def d_squared_is_zero(self):
        for j in range(2, self.k + 1):
            a = self.differential(j)
            b = self.differential(j - 1)
            for r in range(self.rank(j - 2)):
                for c in range(self.rank(j)):
                    acc = self.ring.zero
                    for m in range(self.rank(j - 1)):
                        acc = acc + b[r][m] * a[m][c]
                    if acc:
                        return False
        return True

    def quotient_algebra(self):
        if self.k != self.ring.d:
            raise ValueError("quotient algebra needs a full system of parameters")
        return ArtinianAlgebra(self.ring, self.pure_exponents)


def flatten_poly_matrix(mat, domain_space, codomain_space):
    """FpLinearMap of a polynomial matrix acting on tuple coordinates.

    domain/codomain are PolySpaces shared by all components; mat is a list of
    rows of polynomials.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    ring = domain_space.ring
    dom = tuple_space(domain_space, cols, ring.zero)
    cod = tuple_space(codomain_space, rows, ring.zero)

    def ap(tup):
        out = []
        for r in range(rows):
            acc = ring.zero
            for c in range(cols):
                if mat[r][c] and tup[c]:
                    acc = acc + mat[r][c] * tup[c]
            out.append(acc)
        return tuple(out)

    return matrix_of_map(dom.basis_elems(), ap, cod, dom.p)


def koszul_window_report(K, cap, growth=None):
    """Exactness of the Koszul complex measured on exponent-box windows.

    Every cycle whose monomials fit in box(cap) must be a boundary coming
    from box(cap + growth).  Also checks that spot-0 homology matches the
    quotient algebra: the ideal part of the window is exactly the image of
    d_1.  Returns a dict report.
    """
    ring = K.ring
    p = ring.field.p
    if growth is None:
        growth = max(K.pure_exponents) if any(K.pure_exponents) else 1
    small = PolySpace.box(ring, cap)
    big = PolySpace.box(ring, cap + growth)
    bigger = PolySpace.box(ring, cap + 2 * growth)
    report = {"cap": cap, "growth": growth, "spots": {}, "passed": True}
    for j in range(1, K.k + 1):
        dj = flatten_poly_matrix(K.differential(j), small, big)
        cycles = kernel_basis(dj.mat, p)
        if j == K.k:
            ok = cycles.shape[0] == 0
            report["spots"][j] = {"cycles": int(cycles.shape[0]), "hit": ok}
            report["passed"] = report["passed"] and ok
            continue
        dnext = flatten_poly_matrix(K.differential(j + 1), big, bigger)
        # re-express the small-window cycles in the `bigger` coordinates that
        # dnext maps into, then ask for simultaneous preimages
        ok = True
        if cycles.shape[0]:
            small_t = tuple_space(small, K.rank(j), ring.zero)
            bigger_t = tuple_space(bigger, K.rank(j), ring.zero)
            targets = reembed(cycles, small_t, bigger_t).T
            ok = solve(dnext.mat, targets, p) is not None
        report["spots"][j] = {"cycles": int(cycles.shape[0]), "hit": bool(ok)}
        report["passed"] = report["passed"] and bool(ok)
    # spot 0: window homology = quotient algebra
    if K.k == ring.d:
        A = K.quotient_algebra()
        d1 = flatten_poly_matrix(K.differential(1), small, big)
        ideal = [
            ring.monomial(m)
            for m in small.mons
            if any(b >= a for b, a in zip(m, K.pure_exponents))
        ]
        ok0 = True
        if ideal:
            ok0 = solve(d1.mat, flatten(ideal, big, p), p) is not None
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

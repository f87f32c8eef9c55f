"""Koszul complexes on monomial-like regular sequences: the regularity
check, the wedge basis and the terms of its differential.

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

    def subsets(self, j):
        """The generators e_S of spot j, lexicographic; none outside 0..k."""
        if j < 0 or j > self.k:
            return []
        return list(combinations(range(self.k), j))

"""The wedge (Koszul) basis: the generators of each spot and the terms of the
differential.

The differential of the Koszul complex on f_0, ..., f_(k-1) uses the
lexicographic wedge basis: the spot-j generators are the sorted j-element
subsets S of {0..k-1}, and

    d(e_S) = sum_l (-1)^(l) f_(S[l]) e_(S minus S[l])     (l = 0-based slot)

An element of spot j is a dict S -> nonzero polynomial, the sum of the
terms g . e_S; `linalg.keyed` on `subsets(k, j)` gives such dicts their flat
coordinates.  The mapping cone over R{F} reads its two wedge copies from
here.
"""

from __future__ import annotations

from itertools import combinations


def subsets(k, j):
    """The generators e_S of spot j on k entries, lexicographic; none
    outside 0..k."""
    return list(combinations(range(k), j)) if j >= 0 else []


def wedge_boundary(S):
    """The terms of d(e_S): (sign, dropped index, remaining tuple)."""
    return [((-1) ** idx, l, S[:idx] + S[idx + 1 :]) for idx, l in enumerate(S)]

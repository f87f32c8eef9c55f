"""The dual tail map as whole-window matrices: the references that
`frobext.skew.in_image_hdual`, which solves only on the closure of b, must
match.

`hdual_matrix` pushes every basis vector of the unknowns (s, t_1, ..., t_d)
through `h_dual_apply` with `matrix_of_map`, the symbolic flattening.
`h_dual_matrix` writes the same matrix by index arithmetic, as
`in_image_hdual` did before it walked from b's rows.  `hdual_system` sizes
the spaces as `in_image_hdual` does and returns that matrix with the
target's coordinates: the system A x = b that an `hdual-membership` report
answers.  `hdual_report` answers it on the whole window and writes the
report `in_image_hdual` must give.  `grlex_unrank` inverts
`frobext.poly.grlex_index`, so a certificate index names its row.
"""

from math import comb

from frobext.linalg import SparseMatrix, keyed, matrix_of_map, solve_with_certificate, support, tuple_space
from frobext.poly import PolySpace, unit_digits
from frobext.skew import format_seq, h_dual_apply, residue_trace

from dense import coords


def hdual_matrix(ring, window, dom_poly, cod_poly):
    lo, hi = window
    dom = tuple_space(keyed(range(lo, hi + 1), dom_poly), ring.d + 1, {})
    cod = keyed(range(lo, hi + 2), cod_poly)
    return matrix_of_map(dom.basis_elems(), lambda st: h_dual_apply(ring, st[0], st[1:]), cod, cod.p).mat


def h_dual_matrix(ring, slots, dom_poly, cod_poly):
    """The matrix of `h_dual_apply` from (s, t_1..t_d) on `slots` slots of
    `dom_poly` to slots + 1 slots of `cod_poly` (holding every image), in
    `matrix_of_map`'s order, by index arithmetic: unit c times x^a at slot j
    gives (-1)^d F(c) x^(p*a) at j, -(-1)^d c x^a at j+1 (s), c x^(a+e_i) at j (t_i)."""
    d, p, e = ring.d, dom_poly.p, dom_poly.e
    units, index, n = ring.field.power_basis, cod_poly.index, cod_poly.dim()
    up = unit_digits(-c.frobenius() if d % 2 else c.frobenius() for c in units)
    down = unit_digits(c if d % 2 else -c for c in units)
    ones, mons = unit_digits(units), dom_poly.mons
    # per block, per monomial a: the (row offset, per-unit digits) of its terms
    blocks = [[((index[tuple(p * x for x in a)] * e, up), (n + index[a] * e, down)) for a in mons]]
    blocks += [[((index[a[:i] + (a[i] + 1,) + a[i + 1 :]] * e, ones),) for a in mons] for i in range(d)]
    rows, col = [{} for _ in range((slots + 1) * n)], 0
    for block in blocks:
        for j in range(0, slots * n, n):
            for terms in block:
                for k in range(e):
                    for at, digits in terms:
                        for t, x in digits[k]:
                            rows[j + at + t][col] = x
                    col += 1
    return SparseMatrix(rows, col)


def _spaces(ring, target, window, degree_bound):
    p, B = ring.field.p, degree_bound
    top = max((f.total_degree() for f in target.values()), default=0)
    dom_poly = PolySpace.total_degree(ring, B)
    cod_poly = PolySpace.total_degree(ring, max(p * B, B + 1, top))
    return dom_poly, cod_poly, keyed(range(window[0], window[1] + 2), cod_poly)


def hdual_system(ring, target, window, degree_bound):
    dom_poly, cod_poly, cod = _spaces(ring, target, window, degree_bound)
    return hdual_matrix(ring, window, dom_poly, cod_poly), coords(cod, target)


def hdual_report(ring, target, window, degree_bound):
    """`in_image_hdual`'s report, from `hdual_system` solved whole."""
    (lo, hi), p = window, ring.field.p
    dom_poly = _spaces(ring, target, window, degree_bound)[0]
    A, b = hdual_system(ring, target, window, degree_bound)
    b = SparseMatrix([{i: v for i, v in enumerate(b) if v}], len(b))
    x, cert = solve_with_certificate(A, b, p)
    head = {"window": [lo, hi], "degree_bound": degree_bound}
    trace, proven = residue_trace(ring, target)
    if x is not None:
        s, *ts = tuple_space(keyed(range(lo, hi + 1), dom_poly), ring.d + 1, {}).from_row(x.rows[0])
        witness = {"witness_s": format_seq(ring, s), "witness_t": [format_seq(ring, t) for t in ts]}
        return {"verdict": "SAT", **head, **witness, "proven": False}
    trace_str = {str(j): ring.field.format_elem(v) for j, v in sorted(trace.items())}
    return {"verdict": "UNSAT", **head, "certificate": support(cert), "residue_trace": trace_str, "proven": proven}


def grlex_unrank(index, d):
    """The exponent tuple at `index` in `monomials_total_degree`'s order:
    its degree n first, then each entry in turn, skipping the monomials of
    degree n that are lex-smaller."""
    n = 0
    while comb(n + d, d) <= index:
        n += 1
    index -= comb(n + d - 1, d) if n else 0
    exp = []
    for k in range(d - 1, 0, -1):  # k entries follow this one
        a = 0
        while index >= (below := comb(n - a + k - 1, k - 1)):
            index -= below
            a += 1
        exp.append(a)
        n -= a
    return tuple(exp + [n] if d else exp)

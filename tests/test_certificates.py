"""Every certificate in the regress corpus and the hdual gates, checked from
its report alone.

A report writes an UNSAT certificate y as its nonzero [index, value] pairs.
For each corpus entry that carries one, the system A x = b it refutes is
rebuilt from the scenario through the tests' reference assembly (symbolic
flattenings, with frobext's eliminator switched off), and the pairs are
checked against it: y @ A = 0 and y @ b != 0, and densified they are the
first row y of the dense oracle's left kernel of A with y @ b != 0.  The
hdual gates' systems are too large to rebuild, so their certificates are
checked on the columns they meet.
"""

import glob
import json
import os
from math import comb

import numpy as np
import pytest

from frobext import linalg
from frobext.cli import (
    Scenario,
    build_ring,
    parse_entries,
    parse_module,
    parse_module_elem,
    parse_scalar,
    parse_window,
)
from frobext.linalg import keyed, matrix_of_map
from frobext.poly import PolySpace, grlex_index
from frobext.rational import RationalBase, u_divmod
from frobext.skew import h_dual_apply, residue_trace

from artin_schreier_reference import limit_matrix
from dense import coords, dense_kernel_rows, dense_rref
from hdual_reference import grlex_unrank, hdual_system
from rational_reference import BoundedRationalSpace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
GATES = os.path.join(os.path.dirname(__file__), os.pardir, "gates")


def hdual(sc):
    ring = build_ring(sc)
    target = {j: f for j, f in parse_entries(sc, ring, "target").items() if f}
    return hdual_system(ring, target, parse_window(sc, "window"), sc.int("degree_bound", 3))


def limit_as_solve(sc):
    # F(z) - z = u from level n of the limit carrier to level n*p
    module = parse_module(sc, build_ring(sc), "module")
    u = parse_module_elem(sc, module, "target").normalize()
    ering = module.ering
    p = ering.ring.field.p
    n = max(sc.int("level_bound", 4), u.level if u else 1)
    cod = PolySpace.box(ering.ring, n * p)
    return limit_matrix(ering, n), cod.coords(u.raise_to(n * p).numer)


def rational(sc):
    # F(z) - z = 1/(t-a) - 1/(t-b) on the hand-laid bounded fraction slices
    ring = build_ring(sc)
    p = ring.field.p
    a, b = (ring.coerce(parse_scalar(sc, ring, k)) for k in "ab")
    t = ring.gens()[0]
    base = RationalBase(ring, (t - a) * (t - b))
    target = base.fn(u_divmod(base.D, t - a)[0] - u_divmod(base.D, t - b)[0], 1)
    N, B = sc.int("level_bound", 3), sc.int("degree_bound", 3)
    dom = BoundedRationalSpace(base, N, B)
    cod = BoundedRationalSpace(base, N * p, max(B * p, B + 1))
    return matrix_of_map(dom.basis_elems(), lambda z: z.pth_power() - z, cod, p).mat, cod.coords(target)


def shift_split(sc):
    # y_j - y_(j+1)^p on slots -n-1..n, and sum y_j, against (0, ..., 0, 1)
    ring = build_ring(sc)
    p, n, B = ring.field.p, sc.int("n", 3), sc.int("degree_bound", 2)
    slots = list(range(-n - 1, n + 1))

    def split(z):
        out = {j: z.get(j, ring.zero) - z.get(j + 1, ring.zero).frobenius() for j in slots}
        out["sum"] = sum(z.values(), ring.zero)
        return out

    dom = keyed(range(-n, n + 1), PolySpace.total_degree(ring, B))
    cod = keyed(slots + ["sum"], PolySpace.total_degree(ring, p * B))
    return matrix_of_map(dom.basis_elems(), split, cod, p).mat, coords(cod, {"sum": ring.one})


@pytest.mark.parametrize(
    "name,key,system",
    [
        ("hdual-z0-unsat", "certificate", hdual),
        ("as-solve-socle", "certificate", limit_as_solve),
        ("as-solve-socle-f256", "certificate", limit_as_solve),
        ("rational-f4", "certificate", rational),
        ("shift-ses-n3", "split_window_certificate", shift_split),
    ],
)
def test_corpus_certificate_refutes_its_system(name, key, system, monkeypatch):
    with open(os.path.join(CORPUS, name + ".expected.json"), encoding="utf-8") as fh:
        pairs = json.load(fh)[key]
    path = os.path.join(CORPUS, name + ".scenario")
    with open(path, encoding="utf-8") as fh:
        sc = Scenario(path, fh.read())

    def no_elimination(*args):
        raise AssertionError("the reference assembly eliminated a matrix")

    monkeypatch.setattr(linalg, "rref_transform", no_elimination)
    monkeypatch.setattr(linalg, "echelon", no_elimination)  # rank and kernel_basis eliminate through it alone
    A, b = system(sc)
    p = build_ring(sc).field.p
    A, b = np.asarray(A), np.array(b, dtype=np.int64)
    assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})
    assert all(0 < v < p for _, v in pairs)
    y = np.zeros(A.shape[0], dtype=np.int64)
    for i, v in pairs:
        y[i] = v
    assert not ((y @ A) % p).any()
    assert (y @ b) % p
    Rt, pivt = dense_rref(A.T, p)
    assert y.tolist() == next(row for row in dense_kernel_rows(Rt, pivt, p) if (row @ b) % p).tolist()


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(GATES, "*", "hdual-*.scenario"))), ids=os.path.basename
)
def test_gate_hdual_certificate_refutes_the_columns_it_meets(path):
    # the gates' windows are too wide for the whole system, so the report is
    # checked alone: its verdict against the residue trace, y @ b != 0, and
    # y @ A = 0 on every column whose image meets y's support.  Column
    # (k, i, a) (x^a times a unit in slot i of s, k = 0, or of t_k) sends
    # x^a to x^(p*a) at i and x^a at i+1 (s) or to x^(a+e_k) at i (t_k), so
    # it meets row (j, m) only when i is j-1 or j and a is m/p, m or m-e_k
    with open(path, encoding="utf-8") as fh:
        sc = Scenario(path, fh.read())
    with open(path[: -len(".scenario")] + ".expected.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    ring = build_ring(sc)
    (lo, hi), B = parse_window(sc, "window"), sc.int("degree_bound", 3)
    p, e, d = ring.field.p, ring.field.e, ring.d
    target = {j: f for j, f in parse_entries(sc, ring, "target").items() if f}
    trace, proven = residue_trace(ring, target)
    assert (rep["verdict"], rep["proven"]) == ("UNSAT", proven)
    assert rep["residue_trace"] == {str(j): ring.field.format_elem(v) for j, v in sorted(trace.items())}
    top = max(f.total_degree() for f in target.values())
    slot = comb(max(p * B, B + 1, top) + d, d) * e
    y = {(lo + i // slot, grlex_unrank(i % slot // e, d), i % e): v for i, v in rep["certificate"]}
    assert [(j - lo) * slot + grlex_index(m) * e + t for j, m, t in y] == [i for i, _ in rep["certificate"]]

    def dot(seq):
        return sum(v * f.terms[m].val[t] for (j, m, t), v in y.items() if m in (f := seq.get(j, ring.zero)).terms) % p

    assert dot(target)
    met = set()
    for j, m, _ in y:
        below = [m[:k] + (m[k] - 1,) + m[k + 1 :] for k in range(d) if m[k]]
        fits = [a for a in [m, tuple(x // p for x in m)] + below if sum(a) <= B]
        met.update((k, i, a) for k in range(d + 1) for i in (j - 1, j) if lo <= i <= hi for a in fits)
    for k, i, a in met:
        for c in ring.field.power_basis:
            seqs = [{} for _ in range(d + 1)]
            seqs[k][i] = ring.monomial(a, c)
            assert dot(h_dual_apply(ring, seqs[0], seqs[1:])) == 0, (k, i, a)

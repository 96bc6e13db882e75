"""Lie triple systems given by structure constants on basis triples."""

from __future__ import annotations

import itertools
from typing import Sequence

from .exact import basis_vec, is_zero_vec, vec, vec_add, ZERO
from .report import Certificate, Report


def _combine(coeffs, vectors, n: int) -> tuple:
    """sum_m coeffs[m] vectors[m], skipping zero coefficients and entries."""
    out = [ZERO] * n
    for c, w in zip(coeffs, vectors):
        if c:
            for s, x in enumerate(w):
                if x:
                    out[s] += c * x
    return tuple(out)


class LieTriple:
    """A trilinear bracket Q^n x Q^n x Q^n -> Q^n."""

    __slots__ = ("dim", "table")

    def __init__(self, table: Sequence[Sequence[Sequence[Sequence]]]):
        n = len(table)
        tab = tuple(tuple(tuple(vec(cell) for cell in row) for row in plane)
                    for plane in table)
        for plane in tab:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise ValueError("triple table must be n x n x n x n")
            for row in plane:
                if any(len(cell) != n for cell in row):
                    raise ValueError("triple table must be n x n x n x n")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "table", tab)

    def __setattr__(self, name, value):
        raise AttributeError("LieTriple is immutable")

    @staticmethod
    def from_function(n: int, fn) -> "LieTriple":
        es = [basis_vec(n, i) for i in range(n)]
        return LieTriple([[[fn(es[i], es[j], es[k]) for k in range(n)]
                           for j in range(n)] for i in range(n)])

    def __call__(self, x, y, z):
        n = self.dim
        out = [ZERO] * n
        for i, a in enumerate(x):
            if a == 0:
                continue
            for j, b in enumerate(y):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(z):
                    if c == 0:
                        continue
                    cell = self.table[i][j][k]
                    f = ab * c
                    for s in range(n):
                        if cell[s]:
                            out[s] += f * cell[s]
        return tuple(out)

    def is_zero(self) -> bool:
        return all(is_zero_vec(cell) for plane in self.table
                   for row in plane for cell in row)

    def check(self) -> Certificate:
        """The three Lie-triple-system axioms, each with a witness.

        The derivation axiom is contracted on the structure constants:
        with d = L(e_u, e_v, .), both sides on (e_i, e_j, e_k) are sums of
        table cells weighted by entries of d and of the table.
        """
        n = self.dim
        reports = []

        alt = None
        for i, j, k in itertools.product(range(n), repeat=3):
            if not is_zero_vec(vec_add(self.table[i][j][k],
                                       self.table[j][i][k])):
                alt = (i, j, k)
                break
        reports.append(Report("alternating", alt is None,
                              "L(x,y,z) == -L(y,x,z)", witness=alt))

        cyc = None
        for i, j, k in itertools.combinations(range(n), 3):
            s = vec_add(vec_add(self.table[i][j][k], self.table[j][k][i]),
                        self.table[k][i][j])
            if not is_zero_vec(s):
                cyc = (i, j, k)
                break
        reports.append(Report("cyclic", cyc is None,
                              "L(x,y,z) + L(y,z,x) + L(z,x,y) == 0",
                              witness=cyc))

        der = None
        t = self.table
        # the images of e_m under x -> L(x,e_j,e_k) and x -> L(e_i,x,e_k)
        first = [[[t[m][j][k] for m in range(n)] for k in range(n)]
                 for j in range(n)]
        second = [[[t[i][m][k] for m in range(n)] for k in range(n)]
                  for i in range(n)]
        for u, v in itertools.product(range(n), repeat=2):
            d = t[u][v]                # d[x] = L(e_u, e_v, e_x)
            if all(is_zero_vec(cell) for cell in d):
                continue               # every term of the axiom vanishes
            for i, j, k in itertools.product(range(n), repeat=3):
                lhs = _combine(t[i][j][k], d, n)
                rhs = vec_add(vec_add(_combine(d[i], first[j][k], n),
                                      _combine(d[j], second[i][k], n)),
                              _combine(d[k], t[i][j], n))
                if lhs != rhs:
                    der = (u, v, i, j, k)
                    break
            if der:
                break
        reports.append(Report(
            "derivation", der is None,
            "L(u,v,L(x,y,z)) == L(L(u,v,x),y,z) + L(x,L(u,v,y),z)"
            " + L(x,y,L(u,v,z))", witness=der))
        return Certificate("lie_triple_system", tuple(reports))

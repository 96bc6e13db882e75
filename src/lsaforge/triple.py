"""Lie triple systems given by structure constants on basis triples."""

from __future__ import annotations

import itertools
from typing import Sequence

from .exact import basis_vec, is_zero_vec, vec, vec_add, ZERO
from .report import Certificate, Report


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
        """The three Lie-triple-system axioms, each with a witness."""
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
        es = [basis_vec(n, t) for t in range(n)]
        for u, v in itertools.product(range(n), repeat=2):
            if der:
                break
            for i, j, k in itertools.product(range(n), repeat=3):
                lhs = self(es[u], es[v], self.table[i][j][k])
                rhs = vec_add(vec_add(
                    self(self.table[u][v][i], es[j], es[k]),
                    self(es[i], self.table[u][v][j], es[k])),
                    self(es[i], es[j], self.table[u][v][k]))
                if lhs != rhs:
                    der = (u, v, i, j, k)
                    break
        reports.append(Report(
            "derivation", der is None,
            "L(u,v,L(x,y,z)) == L(L(u,v,x),y,z) + L(x,L(u,v,y),z)"
            " + L(x,y,L(u,v,z))", witness=der))
        return Certificate("lie_triple_system", tuple(reports))

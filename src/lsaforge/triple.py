"""Lie triple systems given by structure constants on basis triples."""

from __future__ import annotations

import itertools
from typing import Sequence

from .algebra import Algebra, _int_product
from .exact import (ZERO, _as_fractions, _int_combine, _int_rows, is_zero_vec,
                    vec)
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
    def compose(bilinear: Algebra, action: Algebra) -> "LieTriple":
        """L(x,y,z) = action(bilinear(x,y), z): each cell of the integer
        view of bilinear in the left slot of that of action, over the
        product of the two denominators."""
        n = bilinear.dim
        if action.dim != n:
            raise ValueError("dimension mismatch")
        d1, cells = bilinear._int_view()
        d2, act = action._int_view()
        return LieTriple([[[_as_fractions(_int_product(act, cell, ((k, 1),)),
                                          d1 * d2) for k in range(n)]
                           for cell in row] for row in cells])

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

        Each axiom is read off the integer view of the table: cells[c]
        lists the nonzero (s, D L_s) of cell c = (i n + j) n + k, D the
        common denominator.  The derivation axiom is contracted on it:
        with d = L(e_u, e_v, .), both sides on (e_i, e_j, e_k) are sums of
        cells weighted by entries of cells, all over D^2.
        """
        n = self.dim
        cells = _int_rows([x for plane in self.table for row in plane
                           for cell in row for x in cell], n ** 3, n)[1]

        def at(i, j, k):
            return (i * n + j) * n + k

        def nonzero(terms):            # the sum of y cells[c] over (c, y)
            return any(_int_combine(cells, terms, n))

        reports = []
        alt = next((t for t in itertools.product(range(n), repeat=3)
                    if nonzero(((at(*t), 1), (at(t[1], t[0], t[2]), 1)))),
                   None)
        reports.append(Report("alternating", alt is None,
                              "L(x,y,z) == -L(y,x,z)", witness=alt))

        cyc = next((t for t in itertools.combinations(range(n), 3)
                    if nonzero([(at(*t[c:], *t[:c]), 1) for c in range(3)])),
                   None)
        reports.append(Report("cyclic", cyc is None,
                              "L(x,y,z) + L(y,z,x) + L(z,x,y) == 0",
                              witness=cyc))

        der = None
        for u, v in itertools.product(range(n), repeat=2):
            d = cells[at(u, v, 0):at(u, v, 0) + n]   # d[x] = L(e_u, e_v, e_x)
            if not any(d):
                continue               # every term of the axiom vanishes
            for i, j, k in itertools.product(range(n), repeat=3):
                # L(L(u,v,x),y,z) + L(x,L(u,v,y),z) + L(x,y,L(u,v,z))
                # - L(u,v,L(x,y,z)), as one combination of cells
                terms = [(at(u, v, x), -y) for x, y in cells[at(i, j, k)]]
                terms += [(at(m, j, k), y) for m, y in d[i]]
                terms += [(at(i, m, k), y) for m, y in d[j]]
                terms += [(at(i, j, m), y) for m, y in d[k]]
                if nonzero(terms):
                    der = (u, v, i, j, k)
                    break
            if der:
                break
        reports.append(Report(
            "derivation", der is None,
            "L(u,v,L(x,y,z)) == L(L(u,v,x),y,z) + L(x,L(u,v,y),z)"
            " + L(x,y,L(u,v,z))", witness=der))
        return Certificate("lie_triple_system", tuple(reports))

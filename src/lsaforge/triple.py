"""Lie triple systems given by structure constants on basis triples."""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Sequence

from .algebra import Algebra
from .exact import (_as_fractions, _dense, _int_rows, _int_vec, _reduced,
                    _scatter, _set_slots, _settled, _Stored, vec)
from .report import Certificate, Report


class LieTriple(_Stored):
    """A trilinear bracket Q^n x Q^n x Q^n -> Q^n.

    Stored like an Algebra: one denominator D and, in cell
    c = (i n + j) n + k, the nonzero (s, D L_s) of L(e_i, e_j, e_k);
    equality and hashing compare it, and `table` is built on first read.
    """

    __slots__ = ("dim", "_den", "_cells", "_table")
    _SHAPE = ("dim",)

    def __init__(self, table: Sequence[Sequence[Sequence[Sequence]]]):
        n = len(table)
        tab = tuple(tuple(tuple(vec(cell) for cell in row) for row in plane)
                    for plane in table)
        if any(len(plane) != n or any(len(row) != n or any(
                len(cell) != n for cell in row) for row in plane)
               for plane in tab):
            raise ValueError("triple table must be n x n x n x n")
        _set_slots(self, (n,) + _int_rows(
            [x for plane in tab for row in plane for cell in row
             for x in cell], n ** 3, n) + (tab,))

    @staticmethod
    def _of(n: int, den: int, cells) -> "LieTriple":
        """The triple with L(e_i, e_j, e_k)_s = x / den over the (s, x) of
        cells[(i n + j) n + k], by increasing s."""
        return _set_slots(object.__new__(LieTriple),
                          (n,) + _reduced(den, cells) + (None,))

    @property
    def table(self) -> tuple:
        """table[i][j][k][s] = L(e_i, e_j, e_k)_s as Fractions, built on
        first read."""
        if self._table is None:
            n, den, cells = self.dim, self._den, self._cells
            object.__setattr__(self, "_table", tuple(tuple(tuple(
                _dense(den, cells[(i * n + j) * n + k], n) for k in range(n))
                for j in range(n)) for i in range(n)))
        return self._table

    @staticmethod
    def compose(bilinear: Algebra, action: Algebra) -> "LieTriple":
        """L(x,y,z) = action(bilinear(x,y), z): each nonzero cell of the
        integer form of bilinear pushed through the nonzero cells of that
        of action, over the product of the two denominators."""
        n = bilinear.dim
        if action.dim != n:
            raise ValueError("dimension mismatch")
        d1, cells = bilinear._int_view()
        d2, act = action._int_view()
        cols = list(zip(*act))          # cols[k][a] = action(e_a, e_k)
        reach = [{k for k, cell in enumerate(row) if cell} for row in act]
        out = [()] * n ** 3
        for ij, cell in enumerate(c for row in cells for c in row):
            for k in {k for a, _ in cell for k in reach[a]}:
                out[ij * n + k] = _settled(_scatter(defaultdict(int), cell,
                                                    cols[k]))
        return LieTriple._of(n, d1 * d2, out)

    def __call__(self, x, y, z):
        n = self.dim
        if any(len(v) != n for v in (x, y, z)):
            raise ValueError("vector length mismatch")
        (dx, xs), (dy, ys), (dz, zs) = map(_int_vec, (x, y, z))
        terms = [((i * n + j) * n + k, a * b * c)
                 for i, a in xs for j, b in ys for k, c in zs]
        return _as_fractions(_scatter([0] * n, terms, self._cells),
                             self._den * dx * dy * dz)

    def check(self) -> Certificate:
        """The three Lie-triple-system axioms, each with a witness.

        Each axiom is read off the stored cells.  The derivation axiom is
        contracted on them: with d = L(e_u, e_v, .), both sides on
        (e_i, e_j, e_k) are sums of cells weighted by entries of cells,
        all over D^2.
        """
        n, cells = self.dim, self._cells

        def at(i, j, k):
            return (i * n + j) * n + k

        def nonzero(terms):            # the sum of y cells[c] over (c, y)
            return any(_scatter(defaultdict(int), terms, cells).values())

        # only the triples of nonzero cells, sorted like a witness, can fail
        stored = [t for t, cell in zip(
            itertools.product(range(n), repeat=3), cells) if cell]
        reports = []
        alt = next((t for t in sorted({(*sorted(u[:2]), u[2]) for u in stored})
                    if nonzero(((at(*t), 1), (at(t[1], t[0], t[2]), 1)))),
                   None)
        reports.append(Report("alternating", alt is None,
                              "L(x,y,z) == -L(y,x,z)", witness=alt))

        cyc = next((t for t in sorted({tuple(sorted(u)) for u in stored
                                       if len(set(u)) == 3})
                    if nonzero([(at(*t[c:], *t[:c]), 1) for c in range(3)])),
                   None)
        reports.append(Report("cyclic", cyc is None,
                              "L(x,y,z) + L(y,z,x) + L(z,x,y) == 0",
                              witness=cyc))

        der = None
        for u, v in itertools.product(range(n), repeat=2):
            d = cells[at(u, v, 0):at(u, v, 0) + n]   # d[x] = L(e_u, e_v, e_x)
            support = [x for x, cell in enumerate(d) if cell]
            if not support:
                continue               # every term of the axiom vanishes
            # so do those of an empty cell with no index in d's support
            near = {t for x in support for a, b in itertools.product(
                range(n), repeat=2) for t in ((x, a, b), (a, x, b), (a, b, x))}
            for i, j, k in sorted(near.union(stored)):
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

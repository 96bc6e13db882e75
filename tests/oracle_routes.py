"""Reference routes for the contracted identity checks.

The library evaluates its identity checks as contractions on structure
constants and memoized left multiplications.  This module keeps the
routes they replaced, written with dense loops over the tables and plain
lists for matrices, so that the tests can compare verdicts and witnesses
of two independent computations.  Nothing here is used by the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)


# -- dense linear algebra -----------------------------------------------------

def dense_dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def dense_apply(m, v) -> tuple:
    """Mat.apply as one dense dot per row."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(dense_dot(m.row(i), v) for i in range(m.rows))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _basis(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _matvec(a, v):
    return tuple(dense_dot(row, v) for row in a)


# -- products and left multiplications ----------------------------------------

def product(alg, u, v) -> tuple:
    n = alg.dim
    return tuple(sum((u[i] * v[j] * alg.table[i][j][k]
                      for i in range(n) for j in range(n)), ZERO)
                 for k in range(n))


def is_antisymmetric(alg) -> bool:
    n = alg.dim
    return all(alg.table[i][j] == tuple(-x for x in alg.table[j][i])
               for i in range(n) for j in range(n))


def bracket(alg, u, v) -> tuple:
    """The bracket attached to a product: the product itself when it is
    antisymmetric, the commutator otherwise."""
    if is_antisymmetric(alg):
        return product(alg, u, v)
    return _sub(product(alg, u, v), product(alg, v, u))


def left_mult(alg, u):
    """L_u as rows, its column j computed as the product u . e_j."""
    n = alg.dim
    cols = [product(alg, u, _basis(n, j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ad(alg, u):
    n = alg.dim
    cols = [bracket(alg, u, _basis(n, j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def curvature(alg, u, v):
    """K(u,v) = [L_u, L_v] - L_[u,v] (commutator bracket), as rows."""
    lu, lv = left_mult(alg, u), left_mult(alg, v)
    lbr = left_mult(alg, _sub(product(alg, u, v), product(alg, v, u)))
    uv, vu = _matmul(lu, lv), _matmul(lv, lu)
    return [[uv[i][j] - vu[i][j] - lbr[i][j] for j in range(alg.dim)]
            for i in range(alg.dim)]


# -- predicates: each returns the first witness, or None ----------------------

def _associator(alg, u, v, w):
    return _sub(product(alg, product(alg, u, v), w),
                product(alg, u, product(alg, v, w)))


def left_symmetric(alg):
    n = alg.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        if j <= i:
            continue
        e = [_basis(n, t) for t in (i, j, k)]
        if _associator(alg, e[0], e[1], e[2]) != \
                _associator(alg, e[1], e[0], e[2]):
            return (i, j, k)
    return None


def associative(alg):
    n = alg.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        e = [_basis(n, t) for t in (i, j, k)]
        if any(_associator(alg, e[0], e[1], e[2])):
            return (i, j, k)
    return None


def commutative(alg):
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            if alg.table[i][j] != alg.table[j][i]:
                return (i, j)
    return None


def _jacobi(alg, br):
    """First basis triple whose cyclic sum [[u,v],w] is nonzero, for the
    bilinear map br."""
    n = alg.dim
    for i, j, k in itertools.combinations(range(n), 3):
        u, v, w = _basis(n, i), _basis(n, j), _basis(n, k)
        s = _add(_add(br(br(u, v), w), br(br(v, w), u)), br(br(w, u), v))
        if any(s):
            return (i, j, k)
    return None


def jacobi_antisym(alg):
    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            if alg.table[i][j] != tuple(-x for x in alg.table[j][i]):
                return (i, j)
    return _jacobi(alg, lambda u, v: product(alg, u, v))


def lie_admissible(alg):
    """The cyclic curvature sum through L matrices, and the commutator
    Jacobi identity; the two must agree."""
    n = alg.dim
    via_curvature = None
    for i, j, k in itertools.combinations(range(n), 3):
        u, v, w = _basis(n, i), _basis(n, j), _basis(n, k)
        s = _add(_add(_matvec(curvature(alg, u, v), w),
                      _matvec(curvature(alg, v, w), u)),
                 _matvec(curvature(alg, w, u), v))
        if any(s):
            via_curvature = (i, j, k)
            break
    via_jacobi = _jacobi(alg, lambda u, v: _sub(product(alg, u, v),
                                                product(alg, v, u)))
    if (via_curvature is None) != (via_jacobi is None):
        raise AssertionError("curvature and Jacobi routes disagree")
    return via_curvature if via_curvature is not None else via_jacobi


PREDICATES = {
    "left_symmetric": left_symmetric,
    "associative": associative,
    "commutative": commutative,
    "abelian": commutative,
    "lie_admissible": lie_admissible,
    "jacobi_antisym": jacobi_antisym,
}


# -- Lie triple systems -------------------------------------------------------

def lie_triple_witnesses(lts):
    """Witnesses of the alternating, cyclic and derivation axioms, the
    derivation evaluated through LieTriple.__call__ on basis vectors."""
    n = lts.dim
    t = lts.table
    alt = next(((i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                if any(_add(t[i][j][k], t[j][i][k]))), None)
    cyc = next(((i, j, k) for i, j, k in itertools.combinations(range(n), 3)
                if any(_add(_add(t[i][j][k], t[j][k][i]), t[k][i][j]))), None)
    es = [_basis(n, s) for s in range(n)]
    der = None
    for u, v in itertools.product(range(n), repeat=2):
        for i, j, k in itertools.product(range(n), repeat=3):
            lhs = lts(es[u], es[v], t[i][j][k])
            rhs = _add(_add(lts(t[u][v][i], es[j], es[k]),
                            lts(es[i], t[u][v][j], es[k])),
                       lts(es[i], es[j], t[u][v][k]))
            if lhs != rhs:
                der = (u, v, i, j, k)
                break
        if der:
            break
    return {"alternating": alt, "cyclic": cyc, "derivation": der}


# -- forms --------------------------------------------------------------------

def form_value(omega, u, v) -> Fraction:
    """Bilinear.value: u^T G v."""
    return dense_dot(u, dense_apply(omega.matrix, v))


def is_two_cocycle(omega, lie):
    """(passed, witness) of the cyclic cocycle sum, after the Jacobi and
    skew preconditions."""
    jac = jacobi_antisym(lie)
    if jac is not None:
        return False, jac
    if omega.kind != "skew":
        return False, None
    n = lie.dim
    for i, j, k in itertools.combinations(range(n), 3):
        u, v, w = _basis(n, i), _basis(n, j), _basis(n, k)
        s = (form_value(omega, product(lie, u, v), w)
             + form_value(omega, product(lie, v, w), u)
             + form_value(omega, product(lie, w, u), v))
        if s != 0:
            return False, (i, j, k)
    return True, None


def is_invariant_form(omega, alg):
    n = alg.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        u, v, w = _basis(n, i), _basis(n, j), _basis(n, k)
        if form_value(omega, product(alg, u, v), w) \
                + form_value(omega, v, product(alg, u, w)) != 0:
            return False, (i, j, k)
    return True, None


def levi_civita_table(lie, metric):
    """2<u.v,w> = <[u,v],w> + <[w,u],v> + <[w,v],u>, solved cell by cell."""
    n = lie.dim
    g = metric.matrix
    g_inv = g.inverse().row_list()
    half = Fraction(1, 2)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            u, v = _basis(n, i), _basis(n, j)
            cov = tuple(
                form_value(metric, product(lie, u, v), w)
                + form_value(metric, product(lie, w, u), v)
                + form_value(metric, product(lie, w, v), u)
                for w in (_basis(n, a) for a in range(n)))
            row.append(tuple(half * x for x in _matvec(g_inv, cov)))
        table.append(row)
    return table


def nijenhuis_table(a, alg):
    """N_A(u,v) = [Au,Av] - A[Au,v] - A[u,Av] + A^2 [u,v] on basis pairs."""
    n = alg.dim
    rows = a.row_list()
    a2 = _matmul(rows, rows)

    def br(u, v):
        return bracket(alg, u, v)

    table = []
    for i in range(n):
        row = []
        for j in range(n):
            u, v = _basis(n, i), _basis(n, j)
            au, av = _matvec(rows, u), _matvec(rows, v)
            t = _sub(br(au, av), _matvec(rows, br(au, v)))
            t = _sub(t, _matvec(rows, br(u, av)))
            row.append(_add(t, _matvec(a2, br(u, v))))
        table.append(row)
    return table

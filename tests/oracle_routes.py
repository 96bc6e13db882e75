"""Reference routes for the contracted identity checks.

The library evaluates its identity checks as contractions on structure
constants and memoized left multiplications, and its elimination, trace
forms, changes of basis, matrix products, torsions, Levi-Civita products
and tensor invariance over integer numerators.  This module keeps
the routes they replaced, written over Fraction with dense loops over
the tables and plain lists for matrices, so that the tests can compare
verdicts, witnesses and values of two independent computations.  The
`dense_*` predicates are the integer routes over every basis triple
that the library's sweeps over nonzero cells replaced, and so are the
dense routes of the twist certificate (`dense_levi_civita`,
`dense_two_cocycle`, `dense_eigenspace_lines`, `dense_compose`,
`dense_invariance`, `dense_derivation`, `dense_nijenhuis` and
`dense_commutator`): dense lists over every basis pair or triple where
the library accumulates from nonzero cells.
The subspace routes (intersection, complement, symplectic orthogonal,
the powers of a product) and the Lagrangian complements of the
associative normalizer are Fraction loops over basis vectors.
The certificate routes keep the eigenspaces as `Subspace`s tested with
`contains`, and the r-matrix routes the five-term bracket placed slot by
slot.  The derived products (the Yang-Baxter, delta and O defects, the
symplectic and Theta "circ" products, the derivation law, the Lie triple
systems and the dual product of a Yang-Baxter solution) are evaluated
here as the bilinear maps of their formulas on basis vectors, and so
are the commutator, opposite, coaction, block, phase-space, semidirect
and graded tensor products.  Nothing here is used by the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from lsaforge.algebra import (Algebra, Endo, _int_product, _left_slot,
                              _mat, _rep_columns)
from lsaforge.exact import (Mat, Subspace, _int_combine, _reduced, _set_slots,
                            _sparse, _unpacked, common_denominator)
from lsaforge.forms import _gram
from lsaforge.report import _bool_report, failing, passing
from lsaforge.triple import LieTriple

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


def bracket(alg, u, v) -> tuple:
    """The commutator u.v - v.u of the product."""
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


# -- the dense integer routes that the sparse predicate sweeps replaced -------
#
# Each visits every basis triple with dense lists of ints read off the
# integer view of the algebra: D^2 times the identity's value (D the
# denominator), which has the verdict and witness of the identity itself.

def _dense_associator(alg):
    """(i, j, k) -> D^2 ((e_i.e_j).e_k - e_i.(e_j.e_k)) as a list of ints."""
    cells = alg._int_view()[1]

    def ass(i, j, k):
        return [a - b for a, b in
                zip(_int_product(cells, cells[i][j], ((k, 1),)),
                    _int_product(cells, ((i, 1),), cells[j][k]))]
    return ass


def dense_left_symmetric(alg):
    ass = _dense_associator(alg)
    return next(((i, j, k) for i, j, k in itertools.product(
        range(alg.dim), repeat=3) if j > i and ass(i, j, k) != ass(j, i, k)),
        None)


def dense_associative(alg):
    ass = _dense_associator(alg)
    return next((t for t in itertools.product(range(alg.dim), repeat=3)
                 if any(ass(*t))), None)


def dense_jacobi(br):
    """First basis triple whose cyclic sum of D^2 [[e_i,e_j],e_k] is
    nonzero, for the product of br, antisymmetric or not."""
    cells = br._cells

    def bb(i, j, k):
        return _int_product(cells, cells[i][j], ((k, 1),))
    return next(((i, j, k) for i, j, k in itertools.combinations(
        range(br.dim), 3) if any(a + b + c for a, b, c in zip(
            bb(i, j, k), bb(j, k, i), bb(k, i, j)))), None)


def dense_curvature(alg):
    """First basis triple whose cyclic sum of D^2 K(e_i,e_j)e_k is
    nonzero, with D^2 K(e_i,e_j)e_k = D^2 (ass(e_j,e_i,e_k) -
    ass(e_i,e_j,e_k))."""
    ass = _dense_associator(alg)

    def curv(i, j, k):
        return [a - b for a, b in zip(ass(j, i, k), ass(i, j, k))]

    return next(((i, j, k) for i, j, k in itertools.combinations(
        range(alg.dim), 3) if any(a + b + c for a, b, c in zip(
            curv(i, j, k), curv(j, k, i), curv(k, i, j)))), None)


# -- the dense routes that the sparse twist certificate replaced --------------
#
# Copies of the integer routes of `forms._levi_civita`, `forms._two_cocycle`,
# the eigenspace lines of `phase._para_kahler`, `LieTriple.compose`, the scan
# of `invariance_check` and the derivation axiom of `LieTriple.check` as they
# were before they accumulated from nonzero cells only.

def _int_apply(rows, ints) -> list:
    """The integer matrix with sparse rows (j, a_ij) times the dense
    integer vector ints."""
    out = []
    for row in rows:
        s = 0
        for j, a in row:
            s += a * ints[j]
        out.append(s)
    return out


def _kills(rows, vecs) -> bool:
    """Whether the integer rows (sparse) map each integer vector to 0."""
    return not any(any(_int_apply(rows, v)) for v in vecs)


def dense_levi_civita(lie, metric):
    """levi_civita after its preconditions: the integer form of the bracket
    contracted with the integer Gram matrix, the integer inverse last
    (symmetric, so its rows are its columns)."""
    n = lie.dim
    den, cells = lie._int_view()
    dg, grows = _gram(metric, lie)._int_view()
    di, irows = metric.matrix.inverse()._int_view()
    # gc[i][j][w] = D d_G <[e_i,e_j], e_w>, the cell times G (symmetric)
    gc = [[_int_combine(grows, cell, n) for cell in row] for row in cells]
    return Algebra._of(2 * den * dg * di, [[_sparse(_int_combine(
        irows, _sparse([gc[i][j][w] + gc[w][i][j] + gc[w][j][i]
                        for w in range(n)]), n))
        for j in range(n)] for i in range(n)], lie.basis)


def dense_two_cocycle(omega, lie):
    """is_two_cocycle after its preconditions, over the integer views of
    the bracket and of the Gram matrix (the sum is linear in each)."""
    anchor = "omega([u,v],w) + omega([v,w],u) + omega([w,u],v) == 0"
    n, cells = lie.dim, lie._int_view()[1]
    g = _unpacked(_gram(omega, lie)._int_view()[1], n)  # ~ omega(e_a, e_b)

    def pair(cell, k):                              # ~ omega(cell, e_k)
        return sum(x * g[a][k] for a, x in cell)
    for i, j, k in itertools.combinations(range(n), 3):
        if pair(cells[i][j], k) + pair(cells[j][k], i) + pair(cells[k][i], j):
            return failing("is_two_cocycle", anchor, witness=(i, j, k))
    return passing("is_two_cocycle", anchor)


def dense_eigenspace_lines(sign, shifted, basis, lie, lc, m, o):
    """The subalgebra, isotropic, lagrangian and lc_stable reports of the
    eigenspace ker S (S = shifted, basis its kernel basis), each asking a
    product to vanish: S (a.b), B^t G B, B^t Omega B and S L_u B."""
    n = lie.dim
    cells, lc_cells = lie._int_view()[1], lc._int_view()[1]
    grows, orows = m._int_view()[1], o._int_view()[1]
    reports = []
    srows = shifted._int_view()[1]
    dense = [common_denominator(b)[1] for b in basis]
    sparse = [_sparse(b) for b in dense]
    reports.append(_bool_report("subalgebra_" + sign, _kills(
        srows, (_int_product(cells, a, b) for a in sparse for b in sparse)),
        "[g^e, g^e] <= g^e"))
    reports.append(_bool_report("isotropic_" + sign, _kills(
        sparse, (_int_apply(grows, b) for b in dense)), "<g^e, g^e> == 0"))
    reports.append(_bool_report(
        "lagrangian_" + sign, len(basis) * 2 == n and _kills(
            sparse, (_int_apply(orows, b) for b in dense)),
        "omega(g^e, g^e) == 0 at half dimension"))
    reports.append(_bool_report("lc_stable_" + sign, _kills(
        srows, (_int_product(lc_cells, ((i, 1),), b)
                for i in range(n) for b in sparse)),
        "u . g^e <= g^e for the Levi-Civita product"))
    return reports


def dense_compose(bilinear, action):
    """L(x,y,z) = action(bilinear(x,y), z): each cell of the integer
    form of bilinear in the left slot of that of action, over the
    product of the two denominators."""
    n = bilinear.dim
    if action.dim != n:
        raise ValueError("dimension mismatch")
    d1, cells = bilinear._int_view()
    d2, act = action._int_view()
    return _set_slots(object.__new__(LieTriple), (n,) + _reduced(
        d1 * d2, [_sparse(_int_product(act, cell, ((k, 1),)))
                  for row in cells for cell in row for k in range(n)])
        + (None,))


def dense_nijenhuis(a, alg):
    """nijenhuis as slot contractions into dense integer lists: every
    cell of [Ae_i, e_b] and of the torsion a length-n list made sparse."""
    n = alg.dim
    m = Endo(alg, _mat(a)).matrix                      # checks the shape
    den, cells = alg._int_view()
    da, cols = m.transpose()._int_view()               # A e_j, as ints
    left = _left_slot(cells, cols)                      # [A e_i, e_b]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            # A[e_i,e_j] - [Ae_i,e_j] - [e_i,Ae_j] over D d_A, then A of
            # it plus [Ae_i,Ae_j] over D d_A^2
            inner = _int_product(cells, ((i, -1),), cols[j])
            for k, x in left[i][j]:
                inner[k] -= x
            for k, x in cells[i][j]:
                for c, y in cols[k]:
                    inner[c] += x * y
            outer = _int_product(left, ((i, 1),), cols[j])
            row.append(_sparse([p + q for p, q in zip(
                outer, _int_combine(cols, _sparse(inner), n))]))
        table.append(row)
    return Algebra._of(den * da * da, table, alg.basis)


def dense_commutator(alg):
    """commutator_algebra with every cell a dense `_int_combine` list of
    the two stored cells, made sparse."""
    c, n = alg._cells, alg.dim
    return Algebra._of(alg._den, [
        [_sparse(_int_combine(pair, ((0, 1), (1, -1)), n))
         for pair in zip(row, col)]
        for row, col in zip(c, zip(*c))], alg.basis)


def dense_invariance(tensor, reps, alg, name="invariance"):
    """invariance_check's sum into a dense list of every position, scanned
    for the first nonzero entry."""
    if isinstance(tensor, Algebra):
        sizes = (tensor.dim,) * 3
        rows = [cell for row in tensor._int_view()[1] for cell in row]
    else:
        sizes = (tensor.rows, tensor.cols)
        rows = tensor._int_view()[1]
    order = len(sizes)
    n = alg.dim
    # the last index of an entry is its position in a row of the view
    support = [(p * n + k, x) for p, row in enumerate(rows) for k, x in row]
    strides = [n ** (order - 1 - s) for s in range(order)]
    anchor = "sum over slots of %s action == 0" % (tuple(reps),)
    slots = {tag: _rep_columns(tag, alg) for tag in set(reps)}
    slots = [slots[tag] for tag in reps]
    common = lcm(*(d for _, d, _ in slots))
    for m in range(n):
        total = [0] * n ** order
        for (sign, d, cols), stride in zip(slots, strides):
            f = sign * (common // d)
            for pos, x in support:
                b = pos // stride % n
                base = pos - b * stride
                for a, y in cols[m][b]:
                    total[base + a * stride] += f * x * y
        pos = next((p for p, val in enumerate(total) if val), None)
        if pos is not None:
            return failing(name, anchor, witness=(m,) + tuple(
                pos // stride % n for stride in strides))
    return passing(name, anchor)


def dense_derivation(lts):
    """The derivation witness of LieTriple.check, every triple visited for
    each (u, v) with L(e_u, e_v, .) nonzero."""
    n, cells = lts.dim, lts._cells

    def at(i, j, k):
        return (i * n + j) * n + k

    def nonzero(terms):            # the sum of y cells[c] over (c, y)
        return any(_int_combine(cells, terms, n))

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
    return der


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
    """u^T G v, the value of exact.form_value."""
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
    """N_A(u,v) = [Au,Av] - A[Au,v] - A[u,Av] + A^2 [u,v] on basis pairs,
    the product of alg read as the bracket."""
    n = alg.dim
    rows = a.row_list()
    a2 = _matmul(rows, rows)

    def br(u, v):
        return product(alg, u, v)

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


# -- representations on tensors -----------------------------------------------

def _tensor_entry(tensor, index) -> Fraction:
    """T[index] of a Mat (T[i][j] = m[i, j]) or of an Algebra (T[i][j][k]
    = the e_k coordinate of e_i . e_j)."""
    if isinstance(tensor, Mat):
        return tensor[index]
    i, j, k = index
    return tensor.table[i][j][k]


def invariance_check(tensor, reps, alg):
    """(passed, witness) of invariance_check: for each basis X the matrix
    of each slot's tag (L_X or ad_X, built through product, and minus
    its transpose for a _dual tag) is applied to that index of the
    tensor, the slots are summed, and the first nonzero entry in
    row-major order is the witness (X, index)."""
    n = alg.dim
    for m in range(n):
        mats = []
        for tag in reps:
            mat = (ad if tag.startswith("ad") else left_mult)(alg, _basis(n, m))
            if tag.endswith("_dual"):
                mat = [[-mat[b][a] for b in range(n)] for a in range(n)]
            mats.append(mat)
        for index in itertools.product(range(n), repeat=len(reps)):
            s = ZERO
            for slot, mat in enumerate(mats):
                for b in range(n):
                    moved = index[:slot] + (b,) + index[slot + 1:]
                    s += mat[index[slot]][b] * _tensor_entry(tensor, moved)
            if s:
                return False, (m,) + index
    return True, None


def _psi_apply(t, l_mat, ad_mat):
    """(L (x) ad) action on a matrix t: l on the first index, ad on the
    second."""
    n = len(t)
    return [[sum((l_mat[p][r] * t[r][q] + ad_mat[q][r] * t[p][r]
                  for r in range(n)), ZERO) for q in range(n)]
            for p in range(n)]


def cocycle_witness(alg, other):
    """The 1-cocycle law xi([X,Y]) == Psi(X) xi(Y) - Psi(Y) xi(X) of
    phase._cocycle_witness, entry by entry, xi_k[a][b] = <e_a* . e_b*,
    e_k> read off other's table and Psi = L (x) ad of alg."""
    n = alg.dim
    xi = [[[other.table[a][b][k] for b in range(n)] for a in range(n)]
          for k in range(n)]
    es = [_basis(n, i) for i in range(n)]
    ls = [left_mult(alg, e) for e in es]
    ads = [ad(alg, e) for e in es]
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(alg, es[i], es[j])
            rhs_a = _psi_apply(xi[j], ls[i], ads[i])
            rhs_b = _psi_apply(xi[i], ls[j], ads[j])
            for p in range(n):
                for q in range(n):
                    lhs = sum((br[k] * xi[k][p][q] for k in range(n)), ZERO)
                    if lhs != rhs_a[p][q] - rhs_b[p][q]:
                        return (i, j, p, q)
    return None


# -- r-matrices on a left-symmetric algebra ------------------------------------

def dual_product_table(alg, rm):
    """<a.b, e_k> = r(L_k^t a, b) + r(a, ad_k^t b) on the basis covectors,
    L and ad the left multiplications of the product and of its
    commutator, r(a, b) = a^t R b: table[a][b] is the vector a.b."""
    n = alg.dim
    rows = rm.row_list()
    cols = [[rows[p][b] for p in range(n)] for b in range(n)]
    cells = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        lk, adk = left_mult(alg, _basis(n, k)), ad(alg, _basis(n, k))
        for a in range(n):
            for b in range(n):
                # L_k^t e_a is row a of L_k, ad_k^t e_b is row b of ad_k
                cells[a][b][k] = (dense_dot(lk[a], cols[b])
                                  + dense_dot(rows[a], adk[b]))
    return tuple(tuple(tuple(cell) for cell in row) for row in cells)


def delta_table(alg, rm):
    """Delta(r)(a,b) = r_#([a,b]) - [r_#(a), r_#(b)] on the basis
    covectors, r_# = R^t, [a,b] the commutator of the dual product and
    [x,y] that of alg."""
    n = alg.dim
    rows = rm.row_list()
    dual = dual_product_table(alg, rm)
    sharp = [[rows[p][q] for p in range(n)] for q in range(n)]   # R^t

    def cell(a, b):
        br_dual = _sub(dual[a][b], dual[b][a])
        return _sub(_matvec(sharp, br_dual),
                    bracket(alg, rows[a], rows[b]))
    return tuple(tuple(cell(a, b) for b in range(n)) for a in range(n))


def rr_bracket(alg, rm):
    """The five-term bracket [[r,r]] = r13.r12 - r23.r21 + [r23,r12]
    - [r13,r21] - [r13,r23] over Fraction, R = rm: for every two nonzero
    entries of R, each component of a product or bracket of basis vectors
    is placed through an index list of its three slots."""
    n = alg.dim
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    pairs = [(i, j, rm[i, j]) for i in range(n) for j in range(n) if rm[i, j]]
    tab = alg.table
    br = [[_sub(tab[i][j], tab[j][i]) for j in range(n)] for i in range(n)]

    def acc(sign, vpos, v, p, q):
        # place vector v in slot vpos and basis indices p, q in the others
        for s, comp in enumerate(v):
            if comp:
                idx = [None, None, None]
                idx[vpos] = s
                rest = [t for t in range(3) if t != vpos]
                idx[rest[0]], idx[rest[1]] = p, q
                out[idx[0]][idx[1]][idx[2]] += sign * comp

    for (i, j, wi) in pairs:
        for (k, l, wk) in pairs:
            w = wi * wk
            prod = tab[i][k]                    # e_i . e_k
            brak = br[i][l]                     # [e_i, e_l]
            # r13.r12 = sum a_i.a_k (x) b_k (x) b_i
            acc(w, 0, prod, l, j)
            # r23.r21 = sum b_l (x) a_i.a_k (x) b_j  (minus sign)
            acc(-w, 1, prod, l, j)
            # [r23, r12] = sum a_k (x) [a_i, b_l] (x) b_j
            acc(w, 1, brak, k, j)
            # [r13, r21] = sum [a_i, b_l] (x) a_k (x) b_j  (minus sign)
            acc(-w, 0, brak, k, j)
            # [r13, r23] = sum a_i (x) a_k (x) [b_j, b_l]  (minus sign)
            acc(-w, 2, br[j][l], i, k)
    return out


def coadjoint_rr_table(lie, rm):
    """[r,r](a,b) = r_#([a,b]*) - [r_#(a), r_#(b)] on the basis covectors
    of a Lie algebra stored as its bracket, r_#(e_a) row a of R and
    [a,b]* = row a of ad_{r_#(e_b)} - row b of ad_{r_#(e_a)}, each ad
    built through product."""
    n = lie.dim
    rows = [tuple(row) for row in rm.row_list()]
    sharp = [[rows[p][q] for p in range(n)] for q in range(n)]   # R^t
    ads = [left_mult(lie, rows[i]) for i in range(n)]

    def cell(a, b):
        dual = _sub(ads[b][a], ads[a][b])
        return _sub(_matvec(sharp, dual), product(lie, rows[a], rows[b]))
    return tuple(tuple(cell(a, b) for b in range(n)) for a in range(n))


def is_quasi_s(alg, rm):
    """L_X S + S L_X^t == 0 for the skew part S of R, and Delta(r)
    invariant: for every basis X, L_X applied to each of the first two
    slots of Delta(r) and ad_X to the third sum to zero."""
    n = alg.dim
    rows = rm.row_list()
    skew = [[(rows[i][j] - rows[j][i]) / 2 for j in range(n)]
            for i in range(n)]
    d = delta_table(alg, rm)
    for m in range(n):
        lm, adm = left_mult(alg, _basis(n, m)), ad(alg, _basis(n, m))
        ls = _matmul(lm, skew)            # S L_X^t is minus its transpose
        if any(ls[i][j] - ls[j][i] for i in range(n) for j in range(n)):
            return False
        for a, b, c in itertools.product(range(n), repeat=3):
            s = sum((lm[a][p] * d[p][b][c] + lm[b][p] * d[a][p][c]
                     + adm[c][p] * d[a][b][p] for p in range(n)), ZERO)
            if s:
                return False
    return True


# -- the exact kernel and constructions -----------------------------------------

def rref(m):
    """Mat.rref by Gauss-Jordan over Fraction, the first nonzero entry of
    the leftmost unsettled column as pivot: (rows as lists, pivots)."""
    rows = m.row_list()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def _right_mult(alg, u):
    """R_u as rows, its column j computed as the product e_j . u."""
    n = alg.dim
    cols = [product(alg, _basis(n, j), u) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def trace_forms(alg):
    """(tr(L_i L_j), tr(R_i R_j)) as rows, through matrix products."""
    n = alg.dim
    es = [_basis(n, i) for i in range(n)]
    forms = []
    for mult in (left_mult, _right_mult):
        ms = [mult(alg, e) for e in es]
        forms.append([[_trace(_matmul(ms[i], ms[j])) for j in range(n)]
                      for i in range(n)])
    return tuple(forms)


def _inverse(rows):
    """The inverse of a square matrix given as rows, read off the reduced
    form of [a | 1]."""
    n = len(rows)
    red, _ = rref(Mat.from_rows([list(rows[i]) + [Fraction(int(i == j))
                                                  for j in range(n)]
                                 for i in range(n)]))
    return [row[n:] for row in red]


def conjugate_table(alg, p):
    """p^-1 ((p e_i) . (p e_j)) through product."""
    n = alg.dim
    pr = p.row_list()
    pinv = _inverse(pr)
    cols = [tuple(pr[i][j] for i in range(n)) for j in range(n)]
    return [[_matvec(pinv, product(alg, cols[i], cols[j])) for j in range(n)]
            for i in range(n)]


# -- subspaces and the Lagrangian steps of the associative normalizer ---------
#
# Each route returns spanning vectors (or, for dual_lagrangian, the basis
# itself) as tuples of Fractions; the tests compare the library's
# Subspace with `Subspace(n, vectors)` of these.

def _omega(gram, u, v) -> Fraction:
    """u^T G v for the Gram matrix G."""
    return dense_dot(u, dense_apply(gram, v))


def _rank(vectors) -> int:
    return len(rref(Mat.from_rows([list(v) for v in vectors]))[1]) \
        if vectors else 0


def _combine(coeffs, vectors, n) -> tuple:
    """sum c v over the pairs of coeffs and vectors, in Q^n."""
    out = (ZERO,) * n
    for c, v in zip(coeffs, vectors):
        out = _add(out, tuple(c * x for x in v))
    return out


def _columns(vectors, n):
    """The vectors as the columns of n rows."""
    return [[v[i] for v in vectors] for i in range(n)]


def product_subspaces(alg):
    """Spanning vectors of UU, DUU, SUU and of the powers U^1..U^4, every
    one a product of basis vectors through product."""
    n = alg.dim
    es = [_basis(n, i) for i in range(n)]
    pairs = [(product(alg, x, y), product(alg, y, x)) for x in es for y in es]
    powers = [es, [xy for xy, _ in pairs]]
    for k in (3, 4):
        powers.append([product(alg, a, b) for i in range(1, k)
                       for a in Subspace(n, powers[i - 1]).basis
                       for b in Subspace(n, powers[k - i - 1]).basis])
    return {"UU": powers[1], "DUU": [_sub(x, y) for x, y in pairs],
            "SUU": [_add(x, y) for x, y in pairs], "powers": powers}


def complement_in(s, other):
    """Subspace.complement_in by one rank test per basis vector of other:
    the vectors that enlarge the span, in order."""
    current, chosen = list(s.basis), []
    for b in other.basis:
        if _rank(current + [b]) > _rank(current):
            current.append(b)
            chosen.append(b)
    return chosen


def intersect(s, t):
    """Subspace.intersect: sum x_i a_i over the kernel vectors (x, y) of
    [A | B], A and B the two bases as columns."""
    n, p = s.ambient, s.dim
    if p == 0 or t.dim == 0:
        return []
    stacked = Mat.from_rows(_columns(s.basis + t.basis, n))
    return [_combine(k[:p], s.basis, n) for k in _kernel(stacked)]


def symp_orthogonal(gram, s):
    """symp_orthogonal: the kernel of the rows G b over s's basis."""
    n = gram.rows
    if s.dim == 0:
        return [_basis(n, i) for i in range(n)]
    return _kernel(Mat.from_rows([list(dense_apply(gram, b))
                                  for b in s.basis]))


def lagrangian_complement(gram, lag):
    """exact.lagrangian_complement by Fraction loops: the echelon
    complement c_j, its omega-dual basis d_j = sum_k (P^-1)_kj c_k with
    P_ij = omega(l_i, c_j), and w_j = d_j - 1/2 sum_k omega(d_j, d_k) l_k."""
    n, p, ls = gram.rows, lag.dim, lag.basis
    comp = complement_in(lag, Subspace(n, [_basis(n, i) for i in range(n)]))
    coeff = _inverse([[_omega(gram, l, c) for c in comp] for l in ls])
    duals = [_combine([coeff[k][j] for k in range(p)], comp, n)
             for j in range(p)]
    half = Fraction(1, 2)
    return [_sub(d, _combine([half * _omega(gram, d, e) for e in duals], ls,
                             n)) for d in duals]


def dual_lagrangian(gram, iso_basis, ambient_basis):
    """catalog._dual_lagrangian by Fraction loops: the coordinates of the
    iso vectors in the ambient basis, the Lagrangian complement w0_t of
    their span for the restricted form, mapped back, and w_j = -sum_t
    (P^-1)_tj w0_t with P_ij = omega(v_i, w0_j)."""
    n, m, k = gram.rows, len(ambient_basis), len(iso_basis)
    coords = []
    for v in iso_basis:
        red, pivots = rref(Mat.from_rows([row + [v[i]] for i, row in
                                          enumerate(_columns(ambient_basis,
                                                             n))]))
        x = [ZERO] * m
        for r, c in enumerate(pivots):
            x[c] = red[r][m]
        coords.append(x)
    sub_gram = Mat(m, m, [_omega(gram, a, b) for a in ambient_basis
                          for b in ambient_basis])
    comp = Subspace(m, lagrangian_complement(sub_gram, Subspace(m, coords)))
    w0 = [_combine(c, ambient_basis, n) for c in comp.basis]
    coeff = _inverse([[_omega(gram, v, w) for w in w0] for v in iso_basis])
    return [_combine([-coeff[t][j] for t in range(k)], w0, n)
            for j in range(k)]


# -- certificates --------------------------------------------------------------

def _kernel(m):
    """Mat.kernel_basis read off the Fraction rref: one vector per free
    column."""
    red, pivots = rref(m)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [ZERO] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def _transpose(a):
    return [list(col) for col in zip(*a)]


def xi_isomorphism(src, dst, xi):
    """(passed, witness) of the xi_isomorphism line: xi invertible, then
    xi applied to each cell i < j of src against the product in dst of
    columns i and j of xi."""
    n = src.dim
    if xi.rows != xi.cols or len(rref(xi)[1]) != xi.rows:
        return False, None
    cols = [tuple(xi.row(r)[c] for r in range(xi.rows)) for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if dense_apply(xi, src.table[i][j]) != \
                    product(dst, cols[i], cols[j]):
                return False, (i, j)
    return True, None


def parallel_witness(lie, metric, m):
    """The first (i,) with L_i m != m L_i, L_i the left multiplications
    of the Levi-Civita product built through product, as list matrices;
    None where m is parallel."""
    n = lie.dim
    lc = SimpleNamespace(dim=n, table=levi_civita_table(lie, metric))
    mr = m.row_list()
    return next(((i,) for i in range(n)
                 if _matmul(left_mult(lc, _basis(n, i)), mr)
                 != _matmul(mr, left_mult(lc, _basis(n, i)))), None)


def para_kahler_reports(lie, metric, k):
    """(name, passed, witness) of each line of verify_para_kahler: Jacobi
    through dense products, matrices as lists, the Levi-Civita product
    and the torsion cell by cell, and each eigenspace a Subspace tested
    with contains on products of its basis vectors."""
    n = lie.dim
    jac = jacobi_antisym(lie)
    out = [("bracket", jac is None, jac),
           ("metric", metric.kind == "symmetric"
            and len(rref(metric.matrix)[1]) == n, None)]
    if not (out[0][1] and out[1][1]):
        return out
    kr, g = k.row_list(), metric.matrix.row_list()
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out.append(("involution", _matmul(kr, kr) == ident, None))
    spaces = []
    for val in (1, -1):
        shifted = type(k).from_rows([[kr[i][j] - val * ident[i][j]
                                      for j in range(n)] for i in range(n)])
        spaces.append(Subspace(n, _kernel(shifted)))
    plus, minus = spaces
    out.append(("eigenspace_split",
                plus.dim == minus.dim and plus.dim * 2 == n, None))
    kt = _transpose(kr)
    skew = [[a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(_matmul(kt, g), _matmul(g, kr))]
    out.append(("metric_skew_k", not any(map(any, skew)), None))
    lc = SimpleNamespace(dim=n, table=levi_civita_table(lie, metric))
    bad = parallel_witness(lie, metric, k)
    out.append(("parallel_k", bad is None, bad))
    out.append(("torsion_k", not any(any(cell) for row in nijenhuis_table(k, lie)
                                     for cell in row), None))
    omega = _matmul(kt, g)
    antisym = omega == [[-x for x in col] for col in _transpose(omega)]
    omat = type(k).from_rows(omega)
    out.append(("omega_skew", antisym and len(rref(omat)[1]) == n, None))
    if antisym:
        passed, witness = is_two_cocycle(
            SimpleNamespace(kind="skew", matrix=omat), lie)
        out.append(("omega_cocycle", passed, witness))
    for sign, space in (("plus", plus), ("minus", minus)):
        pairs = [(a, b) for a in space.basis for b in space.basis]
        out.append(("subalgebra_" + sign,
                    all(space.contains(product(lie, a, b)) for a, b in pairs),
                    None))
        out.append(("isotropic_" + sign,
                    all(form_value(metric, a, b) == 0 for a, b in pairs),
                    None))
        out.append(("lagrangian_" + sign,
                    all(dense_dot(a, _matvec(omega, b)) == 0 for a, b in pairs)
                    and space.dim * 2 == n, None))
        out.append(("lc_stable_" + sign,
                    all(space.contains(product(lc, _basis(n, i), b))
                        for i in range(n) for b in space.basis), None))
    return out


def twist_reports(tw):
    """(name, passed, witness) of each line of a twist's certificate:
    xi_isomorphism, the para-Kahler lines of the twisted data and the
    Lie-triple-system axioms."""
    out = [("xi_isomorphism",) + xi_isomorphism(tw.twisted, tw.bracket_r,
                                                 tw.xi)]
    out += para_kahler_reports(tw.twisted, tw.metric_r, tw.k_r)
    witnesses = lie_triple_witnesses(tw.lts)
    out += [(name, witnesses[name] is None, witnesses[name])
            for name in ("alternating", "cyclic", "derivation")]
    return out


# -- derived products: the formulas on basis vectors -------------------------

def table_from_function(n, fn):
    """The table of the bilinear map fn on basis pairs, cells as tuples."""
    es = [_basis(n, i) for i in range(n)]
    return tuple(tuple(tuple(fn(x, y)) for y in es) for x in es)


def triple_from_function(n, fn):
    """The Lie triple system of the trilinear map fn on basis triples."""
    es = [_basis(n, i) for i in range(n)]
    return LieTriple([[[fn(es[i], es[j], es[k]) for k in range(n)]
                       for j in range(n)] for i in range(n)])


def _rows_apply(m):
    return lambda v: dense_apply(m, v)


def _on(table):
    """A table of cells read as an algebra, for product."""
    return SimpleNamespace(dim=len(table), table=table)


def yb_table(a, lie):
    """YB(A)(X,Y) = A[AX,Y] + A[X,AY] - [AX,AY], the bracket the product
    of lie."""
    ap = _rows_apply(a)

    def defect(x, y):
        ax, ay = ap(x), ap(y)
        t = _add(ap(product(lie, ax, y)), ap(product(lie, x, ay)))
        return _sub(t, product(lie, ax, ay))
    return table_from_function(lie.dim, defect)


def delta_op_table(a, alg):
    """delta(A)(X,Y) = X.A(Y) - Y.A(X) - A([X,Y])."""
    ap = _rows_apply(a)

    def defect(x, y):
        t = _sub(product(alg, x, ap(y)), product(alg, y, ap(x)))
        return _sub(t, ap(bracket(alg, x, y)))
    return table_from_function(alg.dim, defect)


def o_op_table(a, alg):
    """O(A)(X,Y) = [AX,AY] - (A(AX.Y) - A(AY.X))."""
    ap = _rows_apply(a)

    def defect(x, y):
        ax, ay = ap(x), ap(y)
        t = _sub(bracket(alg, ax, ay), ap(product(alg, ax, y)))
        return _add(t, ap(product(alg, ay, x)))
    return table_from_function(alg.dim, defect)


def oeq_witness(a, alg, tamper=None):
    """The first basis pair where O(A) != N_A + A delta(A), each map by
    its formula; tamper, a table, is added to N_A."""
    n = alg.dim
    o, dl = o_op_table(a, alg), delta_op_table(a, alg)
    nij = nijenhuis_table(a, _on(table_from_function(
        n, lambda x, y: bracket(alg, x, y))))
    for i in range(n):
        for j in range(n):
            rhs = _add(nij[i][j], dense_apply(a, dl[i][j]))
            if tamper is not None:
                rhs = _add(rhs, tamper[i][j])
            if o[i][j] != rhs:
                return (i, j)
    return None


def myb_witness(a, lie, t):
    """The first basis pair where YB(A) != t [,]."""
    n = lie.dim
    got = yb_table(a, lie)
    return next(((i, j) for i in range(n) for j in range(n)
                 if got[i][j] != tuple(t * c for c in lie.table[i][j])), None)


def abelian_witness(lie, s, para=False):
    """The first basis pair where [Sx, Sy] != [x, y] (!= -[x, y] with
    para=True)."""
    n = lie.dim
    sign = -1 if para else 1
    return next(((i, j) for i in range(n) for j in range(n)
                 if product(lie, dense_apply(s, _basis(n, i)),
                            dense_apply(s, _basis(n, j)))
                 != tuple(sign * c for c in lie.table[i][j])), None)


def derivation_witness(d, alg):
    """The first basis pair where D(u.v) != D(u).v + u.D(v)."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            u, v = _basis(n, i), _basis(n, j)
            rhs = _add(product(alg, dense_apply(d, u), v),
                       product(alg, u, dense_apply(d, v)))
            if dense_apply(d, product(alg, u, v)) != rhs:
                return (i, j)
    return None


def symp_circ_table(dot, a, diff):
    """X°Y = X.(diff Y) - (AX).Y."""
    return table_from_function(dot.dim, lambda x, y: _sub(
        product(dot, x, dense_apply(diff, y)),
        product(dot, dense_apply(a, x), y)))


def theta_circ_table(alg, theta, a):
    """The Theta "circ" product from its formula: [AX,Y] + A(Y.X) + Q(X,Y)
    for skew theta, Y.AX + AX.Y - A(Y.X) + P(X,Y) for symmetric, with
    Q_t(X,Y) = -P_t(X,Y) = -omega(delta(A^s - A^a)(Theta^-t e_t, Y), X);
    A^s - A^a is the adjoint G^-1 A^t G, G the matrix of theta."""
    n = alg.dim
    g = theta.matrix
    adj = _matmul(_matmul(g.inverse().row_list(), _transpose(a.row_list())),
                  g.row_list())
    dl = delta_op_table(Mat.from_rows(adj), alg)
    theta_inv = g.transpose().inverse()
    ap = _rows_apply(a)
    sign = -1 if theta.kind == "skew" else 1

    def circ(x, y):
        corr = []
        for t in range(n):
            pre = dense_apply(theta_inv, _basis(n, t))
            corr.append(sign * form_value(theta, product(_on(dl), pre, y), x))
        if theta.kind == "skew":
            base = _add(bracket(alg, ap(x), y), ap(product(alg, y, x)))
        else:
            base = _sub(_add(product(alg, y, ap(x)), product(alg, ap(x), y)),
                        ap(product(alg, y, x)))
        return _add(base, tuple(corr))
    return table_from_function(n, circ)


def composed_triple(bilinear_table, alg):
    """L(x,y,z) = alg(B(x,y), z) for the table of a bilinear map B."""
    return triple_from_function(alg.dim, lambda x, y, z: product(
        alg, product(_on(bilinear_table), x, y), z))


def twist_triple(u, delta_table_):
    """L(a,b,c) = -L_x^t c with x = Delta(r)(a,b), L_x built through
    product."""
    n = u.dim

    def minus_lt(a, b, c):
        lx = left_mult(u, product(_on(delta_table_), a, b))
        return tuple(-dense_dot([row[k] for row in lx], c) for k in range(n))
    return triple_from_function(n, minus_lt)


def cybe_dual_product_table(lie, b):
    """a.c = -ad_{r_#(a)}^t c on the basis covectors, r_# = b^t and ad
    the left multiplication of lie (stored as its bracket) built through
    product."""
    n = lie.dim
    zs = [dense_apply(b.transpose(), _basis(n, a)) for a in range(n)]
    return tuple(tuple(tuple(-x for x in _matvec(_transpose(left_mult(lie, z)),
                                                  _basis(n, c)))
                       for c in range(n)) for z in zs)


# -- products built from other products, through product ----------------------

def commutator_table(alg):
    return table_from_function(alg.dim, lambda x, y: bracket(alg, x, y))


def swapped_table(alg):
    """(x, y) -> y . x."""
    return table_from_function(alg.dim, lambda x, y: product(alg, y, x))


def coaction_table(alg, sign):
    """(x, a) -> sign L_x^t a, L_x built through product."""
    return table_from_function(alg.dim, lambda x, a: tuple(
        sign * c for c in _matvec(_transpose(left_mult(alg, x)), a)))


def blocks_table(grid, n):
    """The product on V + V' whose block grid[p][q] = (f, g), algebras or
    None, gives the V- and V'-parts of the product of part p by part q."""
    def prod(x, y):
        out = [ZERO] * (2 * n)
        for p, q in itertools.product(range(2), repeat=2):
            xs, ys = x[p * n:p * n + n], y[q * n:q * n + n]
            for shift, alg in zip((0, n), grid[p][q]):
                if alg is not None:
                    for k, c in enumerate(product(alg, xs, ys)):
                        out[shift + k] += c
        return tuple(out)
    return table_from_function(2 * n, prod)


def graded_table(base, grades):
    """The graded tensor product of base with e_1..e_grades: the part of
    grade i+1 of x times the part of grade j+1 of y through product,
    placed at grade i+j+2, nothing past grades."""
    m = base.dim

    def prod(x, y):
        out = [ZERO] * (m * grades)
        for i, j in itertools.product(range(grades), repeat=2):
            if i + j + 1 < grades:
                xy = product(base, x[i * m:i * m + m], y[j * m:j * m + m])
                for k, c in enumerate(xy):
                    out[(i + j + 1) * m + k] += c
        return tuple(out)
    return table_from_function(m * grades, prod)


def phase_table(u, dual):
    """(X+a).(Y+b) = X.Y - L_a^t Y - L_X^t b + a.b on U + U*, L_a the left
    multiplication of dual."""
    n = u.dim

    def prod(x, y):
        xu, xa, yu, yb = x[:n], x[n:], y[:n], y[n:]
        la_t = _matvec(_transpose(left_mult(dual, xa)), yu)
        lx_t = _matvec(_transpose(left_mult(u, xu)), yb)
        return _sub(product(u, xu, yu), la_t) + _sub(product(dual, xa, yb),
                                                     lx_t)
    return table_from_function(2 * n, prod)


def semidirect_table(u, corner):
    """[X+a, Y+b] = [X,Y] - L_X^t b + L_Y^t a + corner(a,b) on U + U*,
    with the commutator and left multiplications of u and corner a table
    or None."""
    n = u.dim

    def br(x, y):
        xu, xa, yu, yb = x[:n], x[n:], y[:n], y[n:]
        top = bracket(u, xu, yu)
        if corner is not None:
            top = _add(top, product(_on(corner), xa, yb))
        return top + _sub(_matvec(_transpose(left_mult(u, yu)), xa),
                          _matvec(_transpose(left_mult(u, xu)), yb))
    return table_from_function(2 * n, br)

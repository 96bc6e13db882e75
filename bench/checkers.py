"""Output checkers written independently of lsaforge's predicates.

Every checker works on plain data: a structure-constant table ``T`` with
``T[i][j]`` the coordinate vector of ``e_i . e_j``, and matrices as lists
of rows, all over ``fractions.Fraction``.  A checker raises ``CheckError``
naming the first violated property and returns ``None`` otherwise.
Nothing here calls into lsaforge: the benchmark extracts tables and Gram
matrices from the program's outputs and hands them to these functions.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckError(Exception):
    """An output of the program violates a property it must have."""


def fail(message: str):
    raise CheckError(message)


# -- plain linear algebra -----------------------------------------------------

def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt]
            for row in a]


def matvec(m, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in m]


def rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def inverse(m):
    n = len(m)
    aug = [list(row) + e for row, e in zip(m, identity(n))]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            fail("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


# -- structure constants ------------------------------------------------------

def sparse(table):
    """Per basis pair, the nonzero (coordinate, value) entries."""
    return [[tuple((k, c) for k, c in enumerate(cell) if c) for cell in row]
            for row in table]


def product(sp, u, v):
    """Product of two coordinate vectors under a sparse table."""
    out = [ZERO] * len(sp)
    for i, a in enumerate(u):
        if not a:
            continue
        row = sp[i]
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for k, c in row[j]:
                out[k] += ab * c
    return out


def _times_basis(sp, coeffs, k, left: bool):
    """(sum_a coeffs[a] e_a) . e_k, or e_k . (that vector) when left is
    False, from the sparse entries of the coefficient vector."""
    out = [ZERO] * len(sp)
    for a, c in coeffs:
        cell = sp[a][k] if left else sp[k][a]
        for s, x in cell:
            out[s] += c * x
    return out


def commutator_table(table):
    n = len(table)
    return [[[x - y for x, y in zip(table[i][j], table[j][i])]
             for j in range(n)] for i in range(n)]


def check_antisymmetric(table, what="bracket"):
    n = len(table)
    for i in range(n):
        for j in range(i, n):
            if any(x != -y for x, y in zip(table[i][j], table[j][i])):
                fail("%s is not antisymmetric at %s" % (what, (i, j)))


def check_jacobi(table, what="bracket"):
    """Antisymmetry and the cyclic Jacobi sum on every basis triple."""
    check_antisymmetric(table, what)
    sp = sparse(table)
    for i, j, k in itertools.combinations(range(len(table)), 3):
        total = [a + b + c for a, b, c in zip(
            _times_basis(sp, sp[i][j], k, True),
            _times_basis(sp, sp[j][k], i, True),
            _times_basis(sp, sp[k][i], j, True))]
        if any(total):
            fail("%s violates Jacobi at %s" % (what, (i, j, k)))


def _associator(sp, i, j, k):
    left = _times_basis(sp, sp[i][j], k, True)
    right = _times_basis(sp, sp[j][k], i, False)
    return [a - b for a, b in zip(left, right)]


def left_symmetric_witness(table):
    sp = sparse(table)
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        if j > i and _associator(sp, i, j, k) != _associator(sp, j, i, k):
            return (i, j, k)
    return None


def lie_admissible_witness(table):
    try:
        check_jacobi(commutator_table(table), "commutator")
    except CheckError as exc:
        return str(exc)
    return None


def left_mult(table, k):
    """Matrix of x -> e_k . x (columns are the images of basis vectors)."""
    n = len(table)
    return [[table[k][b][a] for b in range(n)] for a in range(n)]


def right_mult(table, k):
    n = len(table)
    return [[table[b][k][a] for b in range(n)] for a in range(n)]


def invariant_form_witness(table, gram):
    """g(u.v, w) + g(v, u.w) == 0 on basis triples."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        s = sum((table[i][j][a] * gram[a][k] for a in range(n)), ZERO) \
            + sum((gram[j][a] * table[i][k][a] for a in range(n)), ZERO)
        if s != 0:
            return (i, j, k)
    return None


def conjugate(table, p):
    """Structure constants in the basis given by the columns of p."""
    n = len(table)
    pinv = inverse(p)
    sp = sparse(table)
    cols = transpose(p)
    return [[matvec(pinv, product(sp, cols[i], cols[j])) for j in range(n)]
            for i in range(n)]


def check_metric(gram, what="metric"):
    if gram != transpose(gram):
        fail("%s is not symmetric" % what)
    if rank(gram) != len(gram):
        fail("%s is degenerate" % what)


def check_para_complex(gram, k):
    """K^2 == Id and g(K., K.) == -g."""
    n = len(k)
    if matmul(k, k) != identity(n):
        fail("K_r^2 is not the identity")
    minus = [[-x for x in row] for row in gram]
    if matmul(matmul(transpose(k), gram), k) != minus:
        fail("metric_r(K., K.) != -metric_r")


def check_intertwines(src, dst, xi):
    """xi([e_i, e_j]_src) == [xi e_i, xi e_j]_dst for all basis pairs."""
    n = len(src)
    sp = sparse(dst)
    cols = transpose(xi)
    for i in range(n):
        for j in range(i + 1, n):
            if matvec(xi, src[i][j]) != product(sp, cols[i], cols[j]):
                fail("xi does not intertwine the brackets at %s" % ((i, j),))


def levi_civita_witness(lie, gram, dot):
    """The Levi-Civita product is the torsion-free product whose left
    multiplications are skew for the metric; both properties pin it down."""
    n = len(lie)
    for i in range(n):
        for j in range(n):
            torsion = [x - y for x, y in zip(dot[i][j], dot[j][i])]
            if torsion != list(lie[i][j]):
                return "torsion at %s" % ((i, j),)
    bad = invariant_form_witness(dot, gram)
    if bad is not None:
        return "left multiplication not skew at %s" % (bad,)
    return None


def phase_table(table):
    """Extended product on U + U* with the zero dual product:
    (X+a).(Y+b) = X.Y - L_X^t(b)."""
    n = len(table)
    zero = [ZERO] * n
    out = [[[ZERO] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = list(table[i][j]) + zero
        for b in range(n):
            out[i][n + b] = zero + [-table[i][x][b] for x in range(n)]
    return out


# -- quasi-S verdict from the definition --------------------------------------

def is_quasi_s(table, r) -> bool:
    """r in U (x) U (matrix R[i][j] = r(e_i*, e_j*)) is quasi-S when its skew
    part is invariant under left multiplications and
    Delta(r)(a, b) = r_#([a, b]_*) - [r_# a, r_# b] is invariant under
    (L, L, ad), with [x, y] = x.y - y.x the commutator of U and
    <a.b, X> = r(L_X^t a, b) + r(a, ad_X^t b) the induced product on U*."""
    n = len(table)
    ls = [left_mult(table, k) for k in range(n)]
    ads = [[[x - y for x, y in zip(lrow, rrow)]
            for lrow, rrow in zip(ls[k], right_mult(table, k))]
           for k in range(n)]
    rt = transpose(r)
    skew = [[(r[i][j] - r[j][i]) / 2 for j in range(n)] for i in range(n)]
    for k in range(n):
        inv = matmul(ls[k], skew)
        inv2 = matmul(skew, transpose(ls[k]))
        if any(x + y for ra, rb in zip(inv, inv2) for x, y in zip(ra, rb)):
            return False
    comps = [[[x + y for x, y in zip(ra, rb)] for ra, rb in
              zip(matmul(ls[k], r), matmul(r, transpose(ads[k])))]
             for k in range(n)]
    bracket = sparse(commutator_table(table))
    rs_cols = transpose(rt)
    delta = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            dual_br = [comps[k][a][b] - comps[k][b][a] for k in range(n)]
            first = matvec(rt, dual_br)
            second = product(bracket, rs_cols[a], rs_cols[b])
            delta[a][b] = [x - y for x, y in zip(first, second)]
    for m in range(n):
        lm, adm = ls[m], ads[m]
        for a, b, c in itertools.product(range(n), repeat=3):
            s = sum((lm[a][x] * delta[x][b][c] for x in range(n) if lm[a][x]),
                    ZERO)
            s += sum((lm[b][x] * delta[a][x][c] for x in range(n) if lm[b][x]),
                     ZERO)
            s += sum((adm[c][x] * delta[a][b][x] for x in range(n)
                      if adm[c][x]), ZERO)
            if s != 0:
                return False
    return True


# -- models of associative algebras with an invariant symplectic form ---------

def _std_symplectic(rows, off: int, q: int):
    for t in range(0, q, 2):
        rows[off + t][off + t + 1] = ONE
        rows[off + t + 1][off + t] = -ONE


def type_one_model(p: int, q: int, m_maps, n_maps):
    """First model on V + I + V*: V*.V* -> V through m, I.V* -> V through n."""
    n = 2 * p + q
    dual = p + q
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(p):
        for b in range(p):
            table[dual + a][dual + b][:p] = m_maps[a][b]
    for i in range(q):
        for b in range(p):
            table[p + i][dual + b][:p] = n_maps[i][b]
    gram = [[ZERO] * n for _ in range(n)]
    for k in range(p):
        gram[k][dual + k] = -ONE
        gram[dual + k][k] = ONE
    _std_symplectic(gram, p, q)
    return table, gram


def type_two_model(dims, a_maps, b_maps, c_maps, d_maps, f_map):
    """Second model on V0 + V1 + I0 + I1 + V* (the cube is nonzero)."""
    p0, p1, q0, q1 = dims
    p = p0 + p1
    n = 2 * p + q0 + q1
    dual = p + q0 + q1
    s0 = [[ZERO] * q0 for _ in range(q0)]
    _std_symplectic(s0, 0, q0)
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(p1):
        for b in range(p0):
            table[p0 + k][dual + b][:p0] = a_maps[k][b]
    for k in range(q0):
        for b in range(p0):
            table[p + k][dual + b][:p0] = b_maps[k][b]
    for a in range(p):
        for k in range(q0):
            table[dual + a][p + k][:p0] = [
                sum((s0[k][t] * f_map[a][l][t] for t in range(q0)), ZERO)
                for l in range(p0)]
    for k in range(q1):
        for a in range(p):
            table[p + q0 + k][dual + a][:p] = c_maps[k][a]
    for a in range(p):
        for b in range(p):
            cell = table[dual + a][dual + b]
            cell[:p] = d_maps[a][b]
            if b < p0:
                cell[p:p + q0] = f_map[a][b]
    gram = [[ZERO] * n for _ in range(n)]
    for k in range(p):
        gram[k][dual + k] = -ONE
        gram[dual + k][k] = ONE
    _std_symplectic(gram, p, q0)
    _std_symplectic(gram, p + q0, q1)
    return table, gram


def model_from_params(family: str, params: dict):
    """Model table and Gram matrix for reported normalizer parameters given
    as plain nested lists (see the workload's extraction)."""
    if family == "assoc_type_one":
        return type_one_model(params["dim_v"], params["dim_i"], params["m"],
                              params["n"])
    if family == "assoc_type_two":
        dims = (params["dim_v0"], params["dim_v1"], params["dim_i0"],
                params["dim_i1"])
        return type_two_model(dims, params["a"], params["b"], params["c"],
                              params["d"], params["f"])
    fail("unknown family %r" % family)


def span_basis(vectors):
    """Echelon basis of the span of some vectors."""
    basis = []
    for v in vectors:
        v = list(v)
        for b, pivot in basis:
            if v[pivot]:
                f = v[pivot] / b[pivot]
                v = [x - f * y for x, y in zip(v, b)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((v, pivot))
    return [b for b, _ in basis]


def check_nilpotency(table):
    """U^4 == 0 and (U^2)^2 == 0 for an associative table: U^4 = U^3 . U
    and (U^2)^2 = U^2 . U^2 are spanned by products of spanning vectors."""
    n = len(table)
    sp = sparse(table)
    square = span_basis(cell for row in table for cell in row)
    cube = span_basis(_times_basis(sp, sp[i][j], k, True)
                      for i, j, k in itertools.product(range(n), repeat=3))
    basis = identity(n)
    if any(any(product(sp, c, e)) for c in cube for e in basis):
        fail("U^4 != 0")
    if any(any(product(sp, u, v)) for u in square for v in square):
        fail("(U^2)^2 != 0")


def check_normal_form(table, gram, family, expected_family, params, p):
    """The reported family is the generating one and the reported change of
    basis carries (table, gram) exactly onto the model with the reported
    parameters."""
    if family != expected_family:
        fail("normalizer reported %s for a %s instance"
             % (family, expected_family))
    model_table, model_gram = model_from_params(family, params)
    if conjugate(table, p) != model_table:
        fail("change of basis does not carry the instance onto the model")
    if matmul(matmul(transpose(p), gram), p) != model_gram:
        fail("change of basis does not carry the form onto the model form")


# -- structure files ----------------------------------------------------------

def read_structure(text: str):
    """(labels, table, table2, forms) from a structure file's JSON text;
    forms maps a name to its Gram matrix."""
    raw = json.loads(text)
    labels = raw["basis"]
    index = {lab: i for i, lab in enumerate(labels)}
    n = raw["dim"]
    if len(labels) != n:
        fail("basis length differs from dim")

    def table(entries):
        out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for entry in entries:
            cell = out[index[entry["left"]]][index[entry["right"]]]
            for lab, val in entry["result"].items():
                cell[index[lab]] = Fraction(val)
        return out

    forms = {name: [[Fraction(x) for x in row] for row in spec["matrix"]]
             for name, spec in raw.get("forms", {}).items()}
    second = table(raw["product2"]) if "product2" in raw else None
    return labels, table(raw.get("product", [])), second, forms

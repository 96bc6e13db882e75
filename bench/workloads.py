"""The benchmark's workloads.

Each builder takes the freshly imported ``lsaforge`` package, a seeded
``random.Random`` and a scratch directory, generates its inputs, and
returns the operations that make up one round.  An operation's ``call``
is the timed call into lsaforge; it may read what earlier operations of
the same round left in the shared ``ctx`` dict, and returns its output
together with whatever inputs the check needs.  ``check`` validates that
output with the independent checkers, outside the timed section, and
``digest`` projects it to plain data, so that later rounds only have to
reproduce the first round's checked output.

Checks and digests read attributes of lsaforge objects and never call
their methods, so that a traced run counts only the program's own work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checkers as ck

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any]


# -- seeded input helpers -----------------------------------------------------

def rand_fraction(rng, bound: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3)))


def rand_nonzero(rng, bound: int = 3) -> Fraction:
    while True:
        x = rand_fraction(rng, bound)
        if x:
            return x


def zero_table(n: int):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def rows(mat):
    """Rows of an lsaforge Mat, read from its attributes."""
    return [list(mat.data[i * mat.cols:(i + 1) * mat.cols])
            for i in range(mat.rows)]


def plain(table):
    return [[list(cell) for cell in row] for row in table]


def rand_transvections(gram, rng, steps: int = 4):
    """Product of transvections x -> x + t form(x, v) v; each preserves the
    skew form with Gram matrix gram."""
    n = len(gram)
    total = ck.identity(n)
    done = 0
    while done < steps:
        v = [rand_fraction(rng, 2) for _ in range(n)]
        if not any(v):
            continue
        t = rand_fraction(rng, 2)
        gv = ck.matvec(gram, v)
        step = [[(ONE if i == j else ZERO) + t * v[i] * gv[j]
                 for j in range(n)] for i in range(n)]
        total = ck.matmul(total, step)
        done += 1
    if ck.matmul(ck.matmul(ck.transpose(total), gram), total) != gram:
        raise AssertionError("transvections fail to preserve the form")
    return total


def _report_digest(out):
    rep = out[-1]
    return rep.passed, rep.witness


def _twist_check(tw):
    ck.check_jacobi(tw.twisted.table, "twisted bracket")
    ck.check_intertwines(tw.twisted.table, tw.bracket_r.table, rows(tw.xi))
    gram = rows(tw.metric_r.matrix)
    ck.check_metric(gram, "metric_r")
    ck.check_para_complex(gram, rows(tw.k_r))
    if not all(rep.passed for rep in tw.cert.reports):
        ck.fail("twist certificate does not pass")


def _twist_digest(tw):
    return (tw.twisted.table, tw.bracket_r.table, tw.xi.data,
            tw.metric_r.matrix.data, tw.k_r.data)


# -- dim16_certs --------------------------------------------------------------

def _lc_check(out):
    lie, metric, dot = out
    bad = ck.levi_civita_witness(lie.table, rows(metric.matrix), dot.table)
    if bad is not None:
        ck.fail("not the Levi-Civita product: %s" % bad)
    if ck.left_symmetric_witness(dot.table) is not None:
        ck.fail("the metric is not flat: Levi-Civita product not left "
                "symmetric")


def _quadratic_check(q):
    ck.check_jacobi(q.lie.table, "quadratic bracket")
    ck.check_metric(rows(q.metric.matrix))
    if not all(rep.passed for rep in q.cert.reports):
        ck.fail("quadratic certificate does not pass")


def _phase_check(ps):
    if plain(ps.extended.table) != ck.phase_table(ps.u.table):
        ck.fail("extended product differs from the phase-space formula")


def _verdict_op(lsa, predicate, own):
    def call(ctx):
        ext = ctx["phase"].extended
        return ext, lsa.check(ext, predicate)

    def check(out):
        ext, rep = out
        if rep.passed != (own(ext.table) is None):
            ck.fail("%s verdict %s disagrees with the benchmark's"
                    % (predicate, rep.passed))

    return Op(predicate + "_phase16", call, check, _report_digest)


def _plane_twist(lsa, rng):
    """Twist of the abelian plane by the inverse of a seeded flat metric.
    The Levi-Civita product of any metric on the abelian plane is the zero
    product, the plane itself.  The metric has no zero entry, so every such
    twist contracts a dense r and costs the same."""
    while True:
        x, y, z = (rand_nonzero(rng, 2) for _ in range(3))
        det = x * z - y * y
        if det:
            break
    plane = lsa.Algebra(zero_table(2))
    r = lsa.Tensor2(plane, lsa.Mat.from_rows([[z / det, -y / det],
                                              [-y / det, x / det]]))
    return Op("twist_plane", lambda ctx: lsa.twisted_structures(plane, r),
              _twist_check, _twist_digest)


# Plane twists before each large operation of dim16_certs: op_p50_ms is then
# a median of many small samples spread over the round, even in a one-round
# run, instead of the mean of two mid-sized operations.
PLANE_TWISTS_PER_LARGE_OP = 3


def dim16_certs(lsa, rng, workdir):
    """Criterion-03 flat-metric instances: the abelian plane with seeded
    metrics and the quadratic symplectic algebra over a seeded copy of the
    two-dimensional non-abelian Lie algebra, [e_a, e_b] = c e_a with the
    order of a, b and the nonzero c drawn from the seed.  Its Levi-Civita
    product has a 16-dimensional double and phase space."""
    a, b = rng.choice(((0, 1), (1, 0)))
    c = rand_nonzero(rng, 2)
    table = zero_table(2)
    table[a][b][a] = c
    table[b][a][a] = -c
    aff = lsa.Algebra(table)

    def quadratic(ctx):
        ctx["q"] = lsa.build_quadratic_symplectic(aff, 2)
        return ctx["q"]

    def lc_aff(ctx):
        q = ctx["q"]
        ctx["dot"] = lsa.levi_civita(q.lie, q.metric)
        return q.lie, q.metric, ctx["dot"]

    def twist_aff(ctx):
        dot = ctx["dot"]
        r = lsa.Tensor2(dot, ctx["q"].metric.matrix.inverse())
        return lsa.twisted_structures(dot, r)

    def phase(ctx):
        ctx["phase"] = lsa.build_phase(ctx["dot"])
        return ctx["phase"]

    large = [
        Op("quadratic_aff", quadratic, _quadratic_check,
           lambda q: (q.lie.table, q.metric.matrix.data)),
        Op("levi_civita_aff", lc_aff, _lc_check, lambda out: out[-1].table),
        Op("twist_aff16", twist_aff, _twist_check, _twist_digest),
        Op("build_phase16", phase, _phase_check,
           lambda ps: ps.extended.table),
        _verdict_op(lsa, "left_symmetric", ck.left_symmetric_witness),
        _verdict_op(lsa, "lie_admissible", ck.lie_admissible_witness),
    ]
    ops = []
    for op in large:
        ops.extend(_plane_twist(lsa, rng)
                   for _ in range(PLANE_TWISTS_PER_LARGE_OP))
        ops.append(op)
    return ops


# -- quasi_s_search -----------------------------------------------------------

# Draws per algebra dimension.  The median operation then falls in the middle
# of the Heisenberg classify_r calls: the dimension-two classify-only calls
# sit below it, and the dimension-two twists together with the dimension-4
# and dimension-6 calls above it, in equal numbers.
DRAWS_BY_DIM = {2: 5, 3: 6, 4: 3, 6: 3}
HEISENBERG = "heisenberg"


def heisenberg_table():
    table = zero_table(3)
    table[0][1][2] = ONE
    table[1][0][2] = -ONE
    return table


def _search_op(lsa, name, alg, r, twist):
    def call(ctx):
        cls = lsa.classify_r(alg, r)
        tw = lsa.twisted_structures(alg, r) if twist and cls.is_quasi_s \
            else None
        return cls, tw

    def check(out):
        cls, tw = out
        if cls.is_quasi_s != ck.is_quasi_s(alg.table, rows(r.matrix)):
            ck.fail("quasi-S verdict %s disagrees with the definition"
                    % cls.is_quasi_s)
        if tw is not None:
            _twist_check(tw)

    def digest(out):
        cls, tw = out
        return cls.is_quasi_s, cls.is_s, None if tw is None \
            else _twist_digest(tw)

    return Op("search_" + name, call, check, digest)


def quasi_s_search(lsa, rng, workdir):
    """Criterion 04(ii): seeded tensors r over the catalog algebras and the
    Heisenberg product; classify_r on each, and the twist of every r found
    to be quasi-S.  Each r has exactly n*n//5 zero entries at seeded
    places (the criterion's sampler gives one in five on average), so
    that the cost of a round does not swing with the seed.  Quasi-S draws
    on the Heisenberg product are classified but not twisted: their twist
    fails through fault F1 on some seeds only, and F1 has its own
    operation, the twist by r = 0."""
    algebras = [(entry.name, entry.alg) for entry in lsa.catalog_algebras()]
    heis = lsa.Algebra(heisenberg_table())
    algebras.append((HEISENBERG, heis))
    ops = []
    for draw in range(max(DRAWS_BY_DIM.values())):
        for name, alg in algebras:
            n = alg.dim
            if draw >= DRAWS_BY_DIM[n]:
                continue
            zeros = set(rng.sample(range(n * n), n * n // 5))
            entries = [ZERO if k in zeros else rand_nonzero(rng, 2)
                       for k in range(n * n)]
            r = lsa.Tensor2(alg, lsa.Mat(n, n, entries))
            ops.append(_search_op(lsa, name, alg, r, name != HEISENBERG))
    zero_r = lsa.Tensor2(heis, lsa.Mat(3, 3, [ZERO] * 9))
    ops.append(Op("twist_heisenberg_r0 (F1)",
                  lambda ctx: lsa.twisted_structures(heis, zero_r),
                  _twist_check, _twist_digest))
    return ops


# -- normalize_assoc ----------------------------------------------------------

TYPE_ONE_SHAPES = ((1, 0), (1, 2), (2, 0), (2, 2))   # (dim V, dim I)
# Second-model instances after each first-model one.  Three of the twelve
# operations are smaller than the six-dimensional ones, so the median
# operation is one of the second model, whose cost varies little with the
# seed, while the cost of the (2, 2) first model does.
TYPE_TWO_PER_SHAPE = 2


def rand_sym(rng, n: int, bound: int = 2):
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rand_fraction(rng, bound)
    return m


def type_one_params(rng, p, q):
    while True:
        m = [rand_sym(rng, p) for _ in range(p)]
        n = [rand_sym(rng, p) for _ in range(q)]
        if any(x for mat in m + n for row in mat for x in row):
            return {"dim_v": p, "dim_i": q, "m": m, "n": n}


def type_two_params(rng):
    """The six-dimensional solved family of the second model: four free
    parameters, the rest forced by the model's constraint equations."""
    a00, a10, d00, e00 = (rand_fraction(rng) for _ in range(4))
    return {"dim_v0": 1, "dim_v1": 1, "dim_i0": 2, "dim_i1": 0,
            "a": [[[ONE]]], "b": [[[-a00]], [[1 - a10]]], "c": [],
            "d": [[[d00, a00], [a00, -ONE]], [[e00, a10], [a10, ZERO]]],
            "f": [[[ONE, ZERO]], [[ZERO, ONE]]]}


def reported_params(params):
    """Normalizer parameters as plain nested lists."""
    out = {}
    for key, val in params.items():
        if isinstance(val, int):
            out[key] = val
        elif key == "f":
            out[key] = [[list(cell) for cell in row] for row in val]
        else:
            out[key] = [rows(mat) for mat in val]
    return out


def _normalize_op(lsa, family, table, gram):
    alg = lsa.Algebra(table)
    omega = lsa.Bilinear(lsa.Mat.from_rows(gram), "skew")

    def check(cid):
        ck.check_normal_form(table, gram, cid.family, family,
                             reported_params(cid.params),
                             rows(cid.change_of_basis.matrix))
        ck.check_nilpotency(table)

    return Op("normalize_" + family,
              lambda ctx: lsa.normalize_assoc_symp(alg, omega), check,
              lambda cid: (cid.family, cid.change_of_basis.matrix.data))


def normalize_assoc(lsa, rng, workdir):
    """Criterion 09: associative algebras with an invariant symplectic form,
    built from seeded model parameters (each first-model shape once, each
    followed by two of the solved second-model family) and moved by a
    seeded symplectic change of basis."""
    ops = []
    for p, q in TYPE_ONE_SHAPES:
        instances = [("assoc_type_one", type_one_params(rng, p, q))]
        instances += [("assoc_type_two", type_two_params(rng))
                      for _ in range(TYPE_TWO_PER_SHAPE)]
        for family, params in instances:
            table, gram = ck.model_from_params(family, params)
            move = rand_transvections(gram, rng)
            ops.append(_normalize_op(lsa, family, ck.conjugate(table, move),
                                     gram))
    return ops


# -- cli_small ----------------------------------------------------------------

def write_structure(path, table, forms=None, table2=None, tensors=None):
    n = len(table if table is not None else forms["omega"][1])
    labels = ["e%d" % (i + 1) for i in range(n)]

    def entries(tab):
        out = []
        for i in range(n):
            for j in range(n):
                result = {labels[k]: str(x) for k, x in enumerate(tab[i][j])
                          if x}
                if result:
                    out.append({"left": labels[i], "right": labels[j],
                                "result": result})
        return out

    def fmt(m):
        return [[str(x) for x in row] for row in m]

    obj = {"dim": n, "basis": labels}
    if table is not None:
        obj["product"] = entries(table)
    if table2 is not None:
        obj["product2"] = entries(table2)
    if forms:
        obj["forms"] = {name: {"kind": kind, "matrix": fmt(m)}
                        for name, (kind, m) in forms.items()}
    if tensors:
        obj["tensors"] = {name: fmt(m) for name, m in tensors.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)


def nonabelian2(a):
    t = zero_table(2)
    t[0][1][0], t[1][0][0], t[1][1][1] = a, -a, a
    return t


def abelian2(a):
    t = zero_table(2)
    t[1][1][0] = a
    return t


def compat_family1(a, b):
    """Left multiplications L1 = [[0, a], [0, 0]], L2 = [[-a, -b], [0, a]]
    for the first product and L2 = [[0, b], [0, 0]] for the second."""
    bullet, circ = zero_table(2), zero_table(2)
    bullet[0][1] = [a, ZERO]
    bullet[1][0] = [-a, ZERO]
    bullet[1][1] = [-b, a]
    circ[1][1] = [b, ZERO]
    return bullet, circ


def rand_sl2(rng):
    """A seeded unimodular 2x2 matrix; it preserves the area form."""
    s, t = rand_fraction(rng, 2), rand_fraction(rng, 2)
    return ck.matmul([[ONE, t], [ZERO, ONE]], [[ONE, ZERO], [s, ONE]])


OMEGA2 = [[ZERO, ONE], [-ONE, ZERO]]


def run_cli(lsa, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lsa.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(lsa, argv, expect_code, check_extra=None, artifact=None):
    """One lsaforge command.  It passes when it exits with the documented
    code (0 all checks pass, 1 a check fails, 2 bad input) without an
    uncaught exception; artifacts are re-read from disk and re-checked."""
    def call(ctx):
        code, out, err = run_cli(lsa, argv)
        text = None
        if artifact is not None and os.path.exists(artifact):
            with open(artifact, encoding="utf-8") as handle:
                text = handle.read()
        return code, out, text

    def check(result):
        code, out, text = result
        if code != expect_code:
            ck.fail("exit code %s, expected %s" % (code, expect_code))
        if expect_code != 2 and not out.startswith("# lsaforge report\n"):
            ck.fail("report header missing")
        if artifact is not None and text is None:
            ck.fail("no artifact written")
        if check_extra is not None:
            check_extra(out, text)

    return Op(" ".join(map(os.path.basename, argv[:2])), call, check,
              lambda result: result)


def _expect_line(line):
    def check(out, text):
        if line not in out.splitlines():
            ck.fail("report lacks the line %r" % line)
    return check


def cli_small(lsa, rng, workdir):
    """A fixed script of lsaforge commands on seeded dimension-2 and
    dimension-4 structure files written at set-up; every command re-reads
    its files from disk."""
    a = rand_nonzero(rng)
    a_ab = rand_nonzero(rng)
    fa, fb = rand_nonzero(rng), rand_nonzero(rng)
    m11, n1, n2 = rand_nonzero(rng), rand_fraction(rng), rand_fraction(rng)
    move, move_ab = rand_sl2(rng), rand_sl2(rng)
    r = [[rand_fraction(rng, 2) for _ in range(2)] for _ in range(2)]

    def path(name):
        return os.path.join(workdir, name)

    omega = {"omega": ("skew", OMEGA2)}
    nab = nonabelian2(a)
    nab_moved = ck.conjugate(nab, move)
    write_structure(path("nab.json"), nab, omega)
    write_structure(path("nab_moved.json"), nab_moved, omega)
    write_structure(path("ab_moved.json"), ck.conjugate(abelian2(a_ab),
                                                        move_ab), omega)
    bullet, circ = compat_family1(fa, fb)
    write_structure(path("pair.json"), bullet, omega, table2=circ)
    assoc, assoc_gram = ck.type_one_model(1, 2, [[[m11]]], [[[n1]], [[n2]]])
    write_structure(path("assoc4.json"), assoc,
                    {"omega": ("skew", assoc_gram)})
    write_structure(path("noproduct.json"), None, omega, tensors={"r": r})

    def check_emitted(out, text):
        _, table, _, forms = ck.read_structure(text)
        if table != nab or forms["omega"] != OMEGA2:
            ck.fail("emitted instance differs from the family at a=%s" % a)

    def check_phase(out, text):
        _, table, _, forms = ck.read_structure(text)
        if table != ck.phase_table(nab_moved):
            ck.fail("phase artifact differs from the phase-space formula")
        if ck.left_symmetric_witness(table) is not None:
            ck.fail("phase artifact is not left symmetric")
        if ck.invariant_form_witness(table, forms["omega0"]) is not None:
            ck.fail("omega0 is not invariant on the phase artifact")

    def check_normal(family, source, model):
        def check(out, text):
            _expect_line("PASS normalize  family=%s" % family)(out, text)
            _, table, _, _ = ck.read_structure(text)
            change = [[Fraction(x) for x in row] for row in
                      json.loads(text)["endos"]["change_of_basis"]]
            if ck.conjugate(source, change) != table:
                ck.fail("artifact is not the input moved by change_of_basis")
            if table != model(table):
                ck.fail("artifact is not a %s model" % family)
        return check

    seed = ["--seed", str(rng.randint(0, 9999))]
    return [
        _cli_op(lsa, ["catalog", "list"] + seed, 0,
                _expect_line("dim2_nonabelian  a=1")),
        _cli_op(lsa, ["catalog", "emit", "dim2_nonabelian", "--param",
                      "a=%s" % a, "--out", path("emit.json")] + seed, 0,
                check_emitted, path("emit.json")),
        _cli_op(lsa, ["check", path("nab.json"), "--pred", "left_symmetric"]
                + seed, 0),
        _cli_op(lsa, ["check", path("nab.json"), "--pred", "commutative"]
                + seed, 1),
        _cli_op(lsa, ["check", path("nab_moved.json"), "--pred",
                      "invariant:omega"] + seed, 0),
        _cli_op(lsa, ["check", path("assoc4.json"), "--pred", "associative"]
                + seed, 0),
        _cli_op(lsa, ["check", path("assoc4.json"), "--pred",
                      "invariant:omega"] + seed, 0),
        _cli_op(lsa, ["check", path("pair.json"), "--pred",
                      "lie_admissible"] + seed, 0),
        _cli_op(lsa, ["build", "phase", path("nab_moved.json"), "--out",
                      path("phase.json")] + seed, 0, check_phase,
                path("phase.json")),
        _cli_op(lsa, ["check", path("phase.json"), "--pred",
                      "left_symmetric"] + seed, 0),
        _cli_op(lsa, ["classify", "compat2", path("pair.json")] + seed, 0,
                _expect_line("PASS classify  kind=compat_family1")),
        _cli_op(lsa, ["normalize", "dim2", path("nab_moved.json"), "--out",
                      path("norm_nab.json")] + seed, 0,
                check_normal("dim2_nonabelian", nab_moved,
                             lambda t: nonabelian2(t[0][1][0])),
                path("norm_nab.json")),
        _cli_op(lsa, ["normalize", "dim2", path("ab_moved.json"), "--out",
                      path("norm_ab.json")] + seed, 0,
                check_normal("dim2_abelian",
                             ck.conjugate(abelian2(a_ab), move_ab),
                             lambda t: abelian2(t[1][1][0])),
                path("norm_ab.json")),
        # F2: a file with no product must be rejected with exit code 2
        _cli_op(lsa, ["build", "twist", path("noproduct.json")] + seed, 2),
    ]


WORKLOADS = {
    "dim16_certs": dim16_certs,
    "quasi_s_search": quasi_s_search,
    "normalize_assoc": normalize_assoc,
    "cli_small": cli_small,
}

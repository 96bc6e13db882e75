"""Random structure files through every command of the CLI.

Each drawn file has dim 1 to 4 and random product, product2, forms,
endos, tensors and triple sections: zero, random or antisymmetric
products, skew and symmetric forms, and up to two malformed values mixed
in (wrong types, bad rationals, unknown labels, wrong shapes).  Every
check, build, normalize, classify and lts form runs on it through
`cli.run`, which must end in one of the documented exit codes 0
(passed), 1 (a check failed) or 2 (bad input), with neither a traceback
nor an internal error on stderr.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lsaforge import cli
from lsaforge.algebra import PREDICATES
from lsaforge.exact import format_rational

RATIONALS = [Fraction(p, q) for p in (-3, -1, 0, 1, 2, 40) for q in (1, 2, 7)]
JUNK = st.sampled_from([None, True, 3, 1.5, "x", "1/0", "", "1.5", [], {},
                        [["1"]], "e9"])


def _negated(value):
    """The negated rational string; anything else as it is."""
    if not isinstance(value, str) or not value:
        return value
    return value[1:] if value.startswith("-") else "-" + value


@st.composite
def structure_files(draw):
    dim = draw(st.integers(1, 4))
    labels = ["e%d" % (i + 1) for i in range(dim)]
    faults = [draw(st.sampled_from((0, 0, 1, 2)))]

    def bad():                 # at most `faults` malformed values
        if faults[0] and draw(st.integers(0, 5)) == 0:
            faults[0] -= 1
            return True
        return False

    def rational(x=None):
        if bad():
            return draw(JUNK)
        return format_rational(draw(st.sampled_from(RATIONALS))
                               if x is None else x)

    def label(i=None):
        if bad():
            return draw(JUNK)
        return labels[i] if i is not None else draw(st.sampled_from(labels))

    def result():
        keys = labels + ["e9"] if bad() else labels
        return {draw(st.sampled_from(keys)): rational()
                for _ in range(draw(st.integers(0, 2)))}

    def matrix(kind=None):
        if bad():
            return draw(JUNK)
        m = [[draw(st.sampled_from(RATIONALS)) for _ in range(dim)]
             for _ in range(dim)]
        sign = {"skew": -1, "symmetric": 1}.get(kind)
        if sign is not None:
            m = [[m[i][j] if i <= j else sign * m[j][i] for j in range(dim)]
                 for i in range(dim)]
            if sign < 0:
                for i in range(dim):
                    m[i][i] = Fraction(0)
        return [[rational(x) for x in row] for row in m]

    def product():
        shape = draw(st.sampled_from(("zero", "random", "antisymmetric")))
        index = st.integers(0, dim - 1)
        pairs = [] if shape == "zero" else draw(st.lists(
            st.tuples(index, index), unique=True, max_size=2 * dim))
        entries = []
        for i, j in pairs:
            if shape == "antisymmetric" and i >= j:
                continue
            res = result()
            entries.append({"left": label(i), "right": label(j),
                            "result": res})
            if shape == "antisymmetric":
                entries.append({"left": label(j), "right": label(i),
                                "result": {k: _negated(v)
                                           for k, v in res.items()}})
        return entries if not bad() else draw(JUNK)

    obj = {"dim": draw(JUNK) if bad() else dim,
           "basis": draw(JUNK) if bad() else labels}
    for name in ("product", "product2"):
        if name == "product" or draw(st.booleans()):
            obj[name] = product()
    if draw(st.booleans()):
        obj["forms"] = {name: {"kind": kind if not bad() else draw(JUNK),
                               "matrix": matrix(kind)}
                        for name, kind in (("omega", "skew"),
                                           ("metric", "symmetric"),
                                           ("theta", draw(st.sampled_from(
                                               ("skew", "symmetric")))),
                                           ("r", "symmetric"))
                        if draw(st.booleans())}
    for section, names in (("endos", ("a", "d")), ("tensors", ("r", "b"))):
        if draw(st.booleans()):
            obj[section] = {name: matrix() for name in names
                            if draw(st.booleans())}
    if draw(st.booleans()):
        obj["triple"] = [{"first": label(), "second": label(),
                          "third": label(), "result": result()}
                         for _ in range(draw(st.integers(0, dim)))]
    if bad():
        obj[draw(st.sampled_from(("extra", "forms", "endos")))] = draw(JUNK)
    return obj


def _forms(path, dual):
    """Every command form of the CLI on the structure file path; dual is
    a second file for build phase --dual."""
    checks = [["check", path, "--pred", pred] for pred in PREDICATES] + [
        ["check", path, "--pred", pred] for pred in (
            "invariant:omega", "two_cocycle:omega", "flat:metric",
            "nondegenerate:omega")]
    builds = [["build", what, path] for what in (
        "phase", "twist", "hyper", "tsymp", "ttheta", "flatdouble", "cybe",
        "derphase")] + [
        ["build", "phase", path, "--dual", dual],
        ["build", "twist", path, "--tensor", "b"],
        ["build", "ttheta", path, "--hyper"],
        ["build", "quadratic", path, "--param", "n=1"]]
    return checks + builds + [
        ["normalize", "dim2", path], ["normalize", "assoc", path],
        ["classify", "compat2", path], ["lts", "verify", path]]


@settings(max_examples=40, deadline=None)
@given(structure_files(), structure_files())
def test_random_files_end_in_a_documented_exit_code(tmp_path_factory, obj,
                                                    dual_obj):
    folder = tmp_path_factory.mktemp("fuzz")
    path, dual = str(folder / "s.json"), str(folder / "dual.json")
    for name, data in ((path, obj), (dual, dual_obj)):
        with open(name, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    for argv in _forms(path, dual):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        text = err.getvalue()
        assert code in (0, 1, 2), (argv, code, text)
        assert "Traceback" not in text and "internal error" not in text, \
            (argv, text)

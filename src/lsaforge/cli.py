"""Command-line front end: parse structure files, dispatch checks,
builders, and normalizers, and emit deterministic reports.  `run(argv)`
runs one command in-process: it builds the parser on its first call and
reuses it, and looks each command up by name at call time.  Structure
files load straight into integer cells, with no Fraction in between.

Exit codes: 0 when every check passes, 1 when a mathematical predicate
fails (the report is still written), 2 on input or usage errors, 3 on
an internal error (a defect of lsaforge, reported on one stderr line
naming the exception class and the file and line that raised it).
Reports are byte-identical for identical inputs: run metadata lives in
comment-style header lines, the body carries no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .algebra import PREDICATES, Algebra, check
from .catalog import (DEFAULT_SCALARS, FAMILIES, build_quadratic_symplectic,
                      catalog_load, classify_compatible_dim2, cybe_double,
                      derivation_phase, flat_double, normalize_assoc_symp,
                      normalize_dim2_slsa)
from .doubling import build_hyper, build_symp_double, build_theta_double
from .exact import Mat, _ratio, _ratio_text, _unpacked, format_rational
from .forms import (FORM_KINDS, Bilinear, is_flat, is_invariant_form,
                    is_two_cocycle)
from .phase import build_phase
from .report import _bool_report, failing
from .smatrix import twisted_structures
from .triple import LieTriple

DEFAULT_MAX_DIM = 16

_FORM_PREDICATES = ("invariant", "two_cocycle", "flat", "nondegenerate")
_TOP_KEYS = ("dim", "basis", "product", "product2", "forms", "endos",
             "tensors", "triple")


class UsageError(Exception):
    """Input or usage problem; maps to exit code 2."""


@dataclass
class StructFile:
    path: str
    labels: tuple
    products: dict = field(default_factory=dict)   # "product", "product2"
    forms: dict = field(default_factory=dict)
    endos: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)
    triple: Optional[LieTriple] = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def need(self, kind: str, name: str):
        pool = getattr(self, kind)
        if name not in pool:
            raise UsageError("%s: missing %s %r (available: %s)"
                             % (self.path, kind[:-1], name,
                                ", ".join(sorted(pool)) or "none"))
        return pool[name]


def _max_dim() -> int:
    raw = os.environ.get("LSA_FORGE_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("LSA_FORGE_MAX_DIM must be an integer, got %r" % raw)
    if cap < 1:
        raise UsageError("LSA_FORGE_MAX_DIM must be positive")
    return cap


def _literal(text, where: str) -> tuple:
    """(p, q) of a rational literal as written; all else is a usage error."""
    if not isinstance(text, str):
        raise UsageError("%s: expected a rational string, got %r"
                         % (where, text))
    try:
        return _ratio(text)
    except ValueError as exc:
        raise UsageError("%s: %s" % (where, exc))


def _over_lcm(cells) -> tuple:
    """(D, cells of (k, D p/q)) over the nonzero (k, (p, q)), D the q's lcm."""
    den = lcm(*{q for cell in cells for _, (_, q) in cell})
    return den, [tuple((k, p * (den // q)) for k, (p, q) in cell if p)
                 for cell in cells]


def _matrix(raw, dim: int, where: str) -> Mat:
    if (not isinstance(raw, list) or len(raw) != dim
            or any(not isinstance(row, list) or len(row) != dim
                   for row in raw)):
        raise UsageError("%s: expected a %dx%d array of rational strings"
                         % (where, dim, dim))
    return Mat._of(dim, dim, *_over_lcm([
        [(j, _literal(raw[i][j], "%s[%d][%d]" % (where, i, j)))
         for j in range(dim)] for i in range(dim)]))


def _label(index, label, where: str) -> int:
    """The position of a basis label; anything else is a usage error."""
    if not isinstance(label, str) or label not in index:
        raise UsageError("%s: unknown basis label %r" % (where, label))
    return index[label]


def _cell(entry, index, here: str) -> list:
    """The (k, (p, q)) of an entry's result, by increasing k."""
    if not isinstance(entry["result"], dict):
        raise UsageError("%s.result: expected an object" % here)
    return sorted((_label(index, lab, here + ".result"),
                   _literal(val, "%s.result.%s" % (here, lab)))
                  for lab, val in entry["result"].items())


def _once(seen: set, key, labels, here: str) -> None:
    """Reject a second entry for the same basis tuple."""
    if key in seen:
        raise UsageError("%s: duplicate entry for (%s)"
                         % (here, ", ".join(labels)))
    seen.add(key)


def _table(raw, labels, where: str) -> Algebra:
    if not isinstance(raw, list):
        raise UsageError("%s: expected an array of product entries" % where)
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    cells = [()] * dim * dim
    seen = set()
    for pos, entry in enumerate(raw):
        here = "%s[%d]" % (where, pos)
        if not isinstance(entry, dict):
            raise UsageError("%s: expected an object" % here)
        extra = set(entry) - {"left", "right", "result"}
        if extra:
            raise UsageError("%s: unknown keys %s"
                             % (here, ", ".join(sorted(extra))))
        for key in ("left", "right", "result"):
            if key not in entry:
                raise UsageError("%s: missing %r" % (here, key))
        i, j = (_label(index, entry[key], "%s.%s" % (here, key))
                for key in ("left", "right"))
        _once(seen, (i, j), (entry["left"], entry["right"]), here)
        cells[i * dim + j] = _cell(entry, index, here)
    den, cells = _over_lcm(cells)
    return Algebra._of(den, [cells[i:i + dim]
                             for i in range(0, dim * dim, dim)], labels)


class _Repeated(str):
    """What a JSON object that repeats the key it holds loads as."""


def _repeat_at(node, where: str, sep: str = ":"):
    """(path, key) of the first object in node that repeats a key, or
    None: sep joins where and a key of node, [i] an item of a list."""
    if isinstance(node, _Repeated):
        return where, str(node)
    steps = ((sep + key, item) for key, item in node.items()) \
        if isinstance(node, dict) else \
        (("[%d]" % i, item) for i, item in enumerate(node)) \
        if isinstance(node, list) else ()
    return next((hit for step, item in steps
                 if (hit := _repeat_at(item, where + step, "."))), None)


def load_structure(path: str) -> StructFile:
    repeats = []

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) == len(pairs):
            return obj
        keys = [key for key, _ in pairs]
        repeats.append(_Repeated(next(k for i, k in enumerate(keys)
                                      if k in keys[:i])))
        return repeats[-1]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=pairs_hook)
    except OSError as exc:
        raise UsageError("%s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    if repeats:
        raise UsageError("%s: duplicate key %r" % _repeat_at(raw, path))
    if not isinstance(raw, dict):
        raise UsageError("%s: top level must be an object" % path)
    extra = set(raw) - set(_TOP_KEYS)
    if extra:
        raise UsageError("%s: unknown keys %s (allowed: %s)"
                         % (path, ", ".join(sorted(extra)),
                            ", ".join(_TOP_KEYS)))
    dim = raw.get("dim")
    labels = raw.get("basis")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise UsageError("%s: dim must be a positive integer" % path)
    if dim > _max_dim():
        raise UsageError("%s: dim %d exceeds LSA_FORGE_MAX_DIM=%d"
                         % (path, dim, _max_dim()))
    if (not isinstance(labels, list) or len(labels) != dim
            or any(not isinstance(lab, str) for lab in labels)
            or len(set(labels)) != dim):
        raise UsageError("%s: basis must list %d distinct strings"
                         % (path, dim))
    labels = tuple(labels)
    out = StructFile(path=path, labels=labels)
    for section in ("product", "product2"):
        if section in raw:
            out.products[section] = _table(raw[section], labels,
                                           "%s:%s" % (path, section))
    for section in ("forms", "endos", "tensors"):
        if not isinstance(raw.get(section, {}), dict):
            raise UsageError("%s:%s: expected an object" % (path, section))
    for name, spec in raw.get("forms", {}).items():
        here = "%s:forms.%s" % (path, name)
        if not isinstance(spec, dict) or set(spec) - {"kind", "matrix"}:
            raise UsageError("%s: expected {kind, matrix}" % here)
        kind = spec.get("kind")
        if kind not in FORM_KINDS:
            raise UsageError("%s: kind must be one of %s"
                             % (here, ", ".join(FORM_KINDS)))
        mat = _matrix(spec.get("matrix"), dim, here + ".matrix")
        try:
            out.forms[name] = Bilinear(mat, kind)
        except ValueError as exc:
            raise UsageError("%s: %s" % (here, exc))
    for section in ("endos", "tensors"):
        for name, spec in raw.get(section, {}).items():
            here = "%s:%s.%s" % (path, section, name)
            getattr(out, section)[name] = _matrix(spec, dim, here)
    if "triple" in raw:
        out.triple = _load_triple(raw["triple"], labels, path + ":triple")
    return out


def _load_triple(raw, labels, where: str) -> LieTriple:
    if not isinstance(raw, list):
        raise UsageError("%s: expected an array of entries" % where)
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    cells = [()] * dim ** 3
    seen = set()
    for pos, entry in enumerate(raw):
        here = "%s[%d]" % (where, pos)
        keys = {"first", "second", "third", "result"}
        if not isinstance(entry, dict) or set(entry) != keys:
            raise UsageError("%s: expected {first, second, third, result}"
                             % here)
        slots = [entry[slot] for slot in ("first", "second", "third")]
        i, j, k = (_label(index, lab, here) for lab in slots)
        _once(seen, (i, j, k), slots, here)
        cells[(i * dim + j) * dim + k] = _cell(entry, index, here)
    return LieTriple._of(dim, *_over_lcm(cells))


# -- deterministic writer -------------------------------------------------------

def _fmt_matrix(mat: Mat):
    den, cells = mat._int_view()
    return [[_ratio_text(x, den) for x in row]
            for row in _unpacked(cells, mat.cols)]


def _product_entries(alg: Algebra):
    labels, (den, cells) = alg.basis, alg._int_view()
    return [{"left": labels[i], "right": labels[j],
             "result": {labels[k]: _ratio_text(x, den) for k, x in cell}}
            for i, row in enumerate(cells) for j, cell in enumerate(row)
            if cell]


def dump_structure(alg: Algebra, forms=None, endos=None, tensors=None,
                   alg2: Optional[Algebra] = None) -> str:
    """Serialize structures in the shared file format, deterministically:
    product entries in basis order, named sections sorted by name."""
    obj = {"dim": alg.dim, "basis": list(alg.basis),
           "product": _product_entries(alg)}
    if alg2 is not None:
        obj["product2"] = _product_entries(alg2)
    if forms:
        obj["forms"] = {name: {"kind": forms[name].kind,
                               "matrix": _fmt_matrix(forms[name].matrix)}
                        for name in sorted(forms)}
    if endos:
        obj["endos"] = {name: _fmt_matrix(endos[name])
                        for name in sorted(endos)}
    if tensors:
        obj["tensors"] = {name: _fmt_matrix(tensors[name])
                          for name in sorted(tensors)}
    return json.dumps(obj, indent=2) + "\n"


# -- report plumbing ------------------------------------------------------------

def _emit(args, body_lines, artifact: Optional[str] = None) -> int:
    header = ["# lsaforge report",
              "# command: %s" % " ".join(args.argv),
              "# seed: %d" % args.seed]
    text = "\n".join(header) + "\n\n" + "\n".join(body_lines) + "\n"
    sys.stdout.write(text)
    if artifact is not None:
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(artifact)
            except OSError as exc:
                raise UsageError("%s: %s" % (args.out, exc.strerror)) from None
        else:
            sys.stdout.write(artifact)
    return 0 if all(not line.startswith("FAIL") for line in body_lines) else 1


def _report_lines(reports) -> list:
    return [rep.line() for rep in reports]


def _param_map(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise UsageError("--param expects k=v, got %r" % item)
        key, _, val = item.partition("=")
        if key in out:
            raise UsageError("--param %s given twice" % key)
        out[key] = Fraction(*_literal(val, "--param %s" % key))
    return out


def _int_param(params: dict, name: str, default: Optional[int] = None) -> int:
    if name not in params:
        if default is None:
            raise UsageError("missing required --param %s=<integer>" % name)
        return default
    val = params[name]
    if val.denominator != 1:
        raise UsageError("--param %s must be an integer" % name)
    return int(val)


# -- commands --------------------------------------------------------------------

def _cmd_check(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    pred = args.pred
    if pred in PREDICATES:
        rep = check(alg, pred)
        return _emit(args, [rep.line()])
    if ":" in pred:
        head, _, form_name = pred.partition(":")
        if head in _FORM_PREDICATES:
            form = struct.need("forms", form_name)
            if head == "invariant":
                rep = is_invariant_form(form, alg)
            elif head == "two_cocycle":
                rep = is_two_cocycle(form, alg)
            elif head == "flat":
                try:
                    rep = is_flat(alg, form)
                except ValueError as exc:
                    rep = failing("is_flat", str(exc))
            else:
                rep = _bool_report("nondegenerate", form.is_nondegenerate(),
                                   "det != 0")
            return _emit(args, [rep.line()])
    raise UsageError(
        "unknown predicate %r (algebra predicates: %s; form predicates: %s)"
        % (pred, ", ".join(PREDICATES),
           ", ".join(p + ":<form>" for p in _FORM_PREDICATES)))


def _math_fail(args, name: str, exc: ValueError) -> int:
    return _emit(args, [failing(name, str(exc)).line()])


def _cmd_build(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    what, need = args.what, struct.need
    doubles = {
        "tsymp": lambda: build_symp_double(alg, need("forms", "omega"),
                                           need("endos", "a")),
        "ttheta": lambda: build_theta_double(alg, need("forms", "theta"),
                                             need("endos", "a"),
                                             hyper=args.hyper),
        "flatdouble": lambda: flat_double(alg, need("forms", "metric")),
        "cybe": lambda: cybe_double(alg, need("tensors", "b"),
                                    need("forms", "r")),
        "hyper": lambda: build_hyper(alg, need("products", "product2"),
                                     need("forms", "omega"))}
    try:
        # reports, and the artifact: product, forms, endos, second product
        if what == "phase":
            dual = None if args.dual == "zero" else \
                load_structure(args.dual).need("products", "product")
            if dual is not None and dual.dim != alg.dim:
                raise UsageError("%s: dim %d does not match the dim %d of %s"
                                 % (args.dual, dual.dim, alg.dim, args.file))
            ps = build_phase(alg, dual)
            reports = [check(ps.extended, "left_symmetric"),
                       is_invariant_form(ps.omega0, ps.extended)]
            built = (ps.extended, {"omega0": ps.omega0,
                                   "pairing0": ps.pairing0}, {"k0": ps.k0},
                     None)
        elif what == "twist":
            tw = twisted_structures(alg, need("tensors", args.tensor))
            reports, built = tw.cert.reports, (
                tw.twisted, {"metric_r": tw.metric_r},
                {"k_r": tw.k_r, "xi": tw.xi}, None)
        elif what == "quadratic":
            grades = _int_param(_param_map(args.param), "n")
            if grades < 1:
                raise UsageError("--param n must be at least 1")
            if alg.dim * grades > _max_dim():
                raise UsageError("--param n=%d gives a graded algebra of dim "
                                 "%d, which exceeds LSA_FORGE_MAX_DIM=%d"
                                 % (grades, alg.dim * grades, _max_dim()))
            data = build_quadratic_symplectic(alg, grades)
            reports, built = data.cert.reports, (
                data.lie, {"metric": data.metric, "omega": data.omega,
                           "pairing": data.pairing},
                {"derivation": data.derivation.matrix}, None)
        elif what == "derphase":
            data = derivation_phase(alg, need("endos", "d"))
            reports, built = data.cert.reports, (
                data.phase.extended, {"omega0": data.phase.omega0},
                {"delta": data.delta.matrix}, None)
        elif what in doubles:
            d = doubles[what]()     # hyper: the complex product's lines first
            cp = d.parts.get("complex_product")
            names = ("k1", "j1") if cp else ("k", "j")
            reports = (cp.cert.reports if cp else ()) + d.cert.reports
            built = (d.bracket, {"metric": d.metric}, {
                name: m for name, m in zip(names, (d.k, d.j))
                if m is not None}, d.parts.get("triangle"))
        else:
            raise UsageError("unknown build target %r" % what)
    except ValueError as exc:
        return _math_fail(args, "build_" + what, exc)
    product, forms, endos, alg2 = built
    return _emit(args, _report_lines(reports), dump_structure(
        product, forms=forms, endos=endos, alg2=alg2))


def _fmt_param(val):
    """val with every matrix and every rational in it (also inside nested
    tuples) written in the text form of the structure files."""
    if isinstance(val, Mat):
        return _fmt_matrix(val)
    if isinstance(val, tuple):
        return tuple(_fmt_param(item) for item in val)
    if isinstance(val, Fraction):
        return format_rational(val)
    return val


def _params_lines(params: dict) -> list:
    lines = []
    for key in sorted(params):
        val = _fmt_param(params[key])
        if isinstance(val, tuple):
            val = "[%s]" % ", ".join(str(item) for item in val)
        lines.append("param %s=%s" % (key, val))
    return lines


def _cmd_normalize(args) -> int:
    struct = load_structure(args.file)
    alg = struct.need("products", "product")
    omega = struct.need("forms", "omega")
    try:
        if args.what == "dim2":
            cid = normalize_dim2_slsa(alg, omega)
        else:
            cid = normalize_assoc_symp(alg, omega)
    except ValueError as exc:
        return _math_fail(args, "normalize_" + args.what, exc)
    lines = ["PASS normalize  family=%s" % cid.family]
    lines += _params_lines(cid.params)
    lines += ["fingerprint %s=%s" % (k, cid.fingerprint[k])
              for k in sorted(cid.fingerprint)]
    artifact = dump_structure(
        alg.conjugate(cid.change_of_basis.matrix),
        endos={"change_of_basis": cid.change_of_basis.matrix})
    return _emit(args, lines, artifact)


def _cmd_classify(args) -> int:
    struct = load_structure(args.file)
    bullet = struct.need("products", "product")
    circ = struct.need("products", "product2")
    omega = struct.need("forms", "omega")
    try:
        verdict = classify_compatible_dim2(bullet, circ, omega)
    except ValueError as exc:
        return _math_fail(args, "classify_compat2", exc)
    lines = ["PASS classify  kind=%s" % verdict.kind]
    if verdict.witness is not None:
        lines.append("witness %s" % (verdict.witness,))
    if verdict.canonical is not None:
        lines += _params_lines(verdict.canonical.params)
    return _emit(args, lines)


def _cmd_catalog(args) -> int:
    if args.what == "list":
        lines = []
        for family in FAMILIES:
            scalars = DEFAULT_SCALARS[family]
            rendered = " ".join("%s=%s" % (k, format_rational(scalars[k]))
                                for k in sorted(scalars))
            lines.append("%s  %s" % (family, rendered))
        return _emit(args, lines)
    family = args.family
    if family is None:
        raise UsageError("catalog emit requires a family name")
    if family not in FAMILIES:
        raise UsageError("unknown family %r (families: %s)"
                         % (family, ", ".join(FAMILIES)))
    overrides = _param_map(args.param)
    try:
        loaded = catalog_load(family, overrides)
    except ValueError as exc:
        raise UsageError(str(exc))
    if "bullet" in loaded:
        artifact = dump_structure(loaded["bullet"],
                                  forms={"omega": loaded["omega"]},
                                  alg2=loaded["circ"])
    else:
        artifact = dump_structure(loaded["alg"],
                                  forms={"omega": loaded["omega"]})
    lines = ["PASS catalog_emit  family=%s" % family]
    lines += _params_lines(loaded["scalars"])
    return _emit(args, lines, artifact)


def _cmd_lts(args) -> int:
    struct = load_structure(args.file)
    if struct.triple is None:
        raise UsageError("%s: no triple section" % args.file)
    cert = struct.triple.check()
    return _emit(args, _report_lines(cert.reports))


@functools.lru_cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the built structure file here")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the report header")
    common.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="rational parameter")
    parser = argparse.ArgumentParser(
        prog="lsaforge",
        description="exact checks and constructions for left-symmetric "
                    "algebras and their doubles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="run a predicate on a structure file")
    p_check.add_argument("--pred", required=True)
    p_check.add_argument("file")

    p_build = sub.add_parser("build", parents=[common],
                             help="run a construction and write its output")
    p_build.add_argument("what", choices=("phase", "twist", "hyper", "tsymp",
                                          "ttheta", "quadratic", "flatdouble",
                                          "cybe", "derphase"))
    p_build.add_argument("file")
    p_build.add_argument("--dual", default="zero",
                         help="phase: structure file with the dual product")
    p_build.add_argument("--tensor", default="r",
                         help="twist: name of the tensor to use")
    p_build.add_argument("--hyper", action="store_true",
                         help="ttheta: also certify the complex structure")

    p_norm = sub.add_parser("normalize", parents=[common],
                            help="land an instance on its canonical model")
    p_norm.add_argument("what", choices=("dim2", "assoc"))
    p_norm.add_argument("file")

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classify a pair of products")
    p_cls.add_argument("what", choices=("compat2",))
    p_cls.add_argument("file")

    p_cat = sub.add_parser("catalog", parents=[common],
                           help="list families or emit an instance")
    p_cat.add_argument("what", choices=("list", "emit"))
    p_cat.add_argument("family", nargs="?", default=None)

    p_lts = sub.add_parser("lts", parents=[common],
                           help="verify a Lie triple system file")
    p_lts.add_argument("what", choices=("verify",))
    p_lts.add_argument("file")
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = ["lsaforge"] + argv
    try:
        return {"check": _cmd_check, "build": _cmd_build,
                "normalize": _cmd_normalize, "classify": _cmd_classify,
                "catalog": _cmd_catalog, "lts": _cmd_lts}[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:        # a defect of lsaforge, not of the input
        tb = exc.__traceback__
        while tb.tb_next is not None:        # the frame that raised exc
            tb = tb.tb_next
        where = os.path.basename(tb.tb_frame.f_code.co_filename)
        print("internal error: %s at %s:%d%s" % (
            type(exc).__name__, where, tb.tb_lineno,
            ": %s" % exc if str(exc) else ""), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

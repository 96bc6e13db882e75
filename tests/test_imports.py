"""Every module-level import of an lsaforge module is used by it, every
relative import names the module that defines the name, every
module-level private function or class is referred to somewhere in the
package besides its own definition, every module-level public function
or class is referred to in the package besides its own definition and
`__init__`, or named by the tests, the benchmark or the README, no
function reads the `Fraction` views `.table` or `.data` of another
object (every route reads the stored integer cells), only the listed
functions call the `Mat` views `row`, `col`, `row_list` or `m[i, j]`,
and the test oracles do not reach the contraction kernel they check.

`__init__.py` is left out of the first guard: its imports are the
package's public names.  It is in the second: each of them is taken from
its defining module.
"""

import ast
import os
import re
from collections import Counter

import pytest

import lsaforge

PACKAGE = os.path.dirname(lsaforge.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def _package_sources() -> dict:
    """Module name -> text, for every module of the package."""
    sources = {}
    for name in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            sources[name[:-3]] = handle.read()
    return sources


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}                          # name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nimport re\nfrom x import (a,\n"
                           "    b)\nprint(re, b)\n") == [(1, "os"),
                                                      (3, "a")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        assert _unused_imports(handle.read()) == []


def _defined(source: str) -> set:
    """The names a module binds at top level other than by importing."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _reexported(sources: dict) -> list:
    """(importer, module, name) for each relative import whose module
    does not define the name; sources maps a module name to its text."""
    defined = {name: _defined(text) for name, text in sources.items()}
    return sorted((importer, node.module, alias.name)
                  for importer, text in sources.items()
                  for node in ast.parse(text).body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names
                  if alias.name not in defined[node.module])


def test_the_guard_sees_a_reexported_name():
    assert _reexported({
        "low": "def helper():\n    pass\nLIMIT = 2\n",
        "mid": "from .low import helper\n",
        "top": "from .mid import helper\nfrom .low import LIMIT, helper\n",
    }) == [("top", "mid", "helper")]


def test_relative_imports_name_the_defining_module():
    assert _reexported(_package_sources()) == []


def _references(node) -> Counter:
    """How often each name is read as a name or an attribute in node."""
    return Counter(getattr(sub, "id", getattr(sub, "attr", None))
                   for sub in ast.walk(node))


def _dead_helpers(sources: dict) -> list:
    """(module, name) for each module-level private function or class that
    nothing in sources refers to outside its own definition; sources maps
    a module name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum(map(_references, trees.values()), Counter())
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and total[node.name] == _references(node)[node.name])


def test_the_guard_sees_a_dead_helper():
    assert _dead_helpers({
        "low": "def _used():\n    pass\ndef _dead():\n    return _dead()\n"
               "class _Kept:\n    pass\n",
        "top": "from . import low\nlow._used()\nx = [low._Kept]\n",
    }) == [("low", "_dead")]


def test_every_private_helper_is_used():
    assert _dead_helpers(_package_sources()) == []


def _unused_public(sources: dict, named: str) -> list:
    """(module, name) for each module-level public function or class that
    nothing in sources refers to outside its own definition and outside
    `__init__`, and that the text named (tests, benchmark, README) does
    not name as a word; sources maps a module name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()
             if name != "__init__"}
    total = sum(map(_references, trees.values()), Counter())
    words = set(re.findall(r"\w+", named))
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and total[node.name] == _references(node)[node.name]
                  and node.name not in words)


def test_the_guard_sees_an_unused_public_helper():
    assert _unused_public({
        "low": "def used():\n    pass\ndef alone():\n    return alone()\n"
               "def shown():\n    pass\nclass Kept:\n    pass\n"
               "def _private():\n    pass\n",
        "top": "from . import low\nBOTH = low.used(), low.Kept\n",
        "__init__": "from .low import alone, used\n",
    }, "shown(x) is documented") == [("low", "alone")]


def _named_outside_the_package() -> str:
    """The text of tests/*.py, bench/*.py and README.md."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "README.md")] + [
        os.path.join(root, folder, name) for folder in ("tests", "bench")
        for name in sorted(os.listdir(os.path.join(root, folder)))
        if name.endswith(".py")]
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return "\n".join(texts)


def test_every_public_helper_is_used():
    assert _unused_public(_package_sources(),
                          _named_outside_the_package()) == []


def _view_readers(sources: dict) -> set:
    """module.function (nested names joined by dots) for each function that
    reads `.table` or `.data` of an object other than `self`; sources maps
    a module name to its text."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) \
                    and child.attr in ("table", "data") \
                    and isinstance(child.ctx, ast.Load) \
                    and getattr(child.value, "id", None) != "self":
                found.add(".".join(scope))
            visit(child, scope)

    for module, text in sources.items():
        visit(ast.parse(text), [module])
    return found


def test_the_guard_sees_a_view_read():
    assert _view_readers({
        "low": "class A:\n    def f(self):\n        return self.table\n"
               "    def g(self, other):\n        return other.data[0]\n"
               "def h(x):\n    def inner():\n        return x.table\n"
               "    return inner\n"
               "def k(x):\n    x.table = 1\n    return x.cells\n",
    }) == {"low.A.g", "low.h.inner"}


def test_only_listed_functions_read_a_fraction_view():
    # every route reads the stored integer cells; the views serve users
    assert _view_readers(_package_sources()) == set()


def _view_calls(sources: dict) -> set:
    """module.function (nested names joined by dots) for each function that
    calls `.row(`, `.col(` or `.row_list(` of an object other than `self`,
    or reads an index m[i, j] with a tuple: the `Fraction` views of a
    `Mat`.  Annotations and assignments to a tuple index (a dict keyed by
    pairs) are not reads; sources maps a module name to its text."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if child in (getattr(node, "returns", None),
                         getattr(node, "annotation", None)):
                continue
            call = isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute) \
                and child.func.attr in ("row", "col", "row_list") \
                and getattr(child.func.value, "id", None) != "self"
            if call or isinstance(child, ast.Subscript) \
                    and isinstance(child.slice, ast.Tuple) \
                    and isinstance(child.ctx, ast.Load):
                found.add(".".join(scope))
            visit(child, scope)

    for module, text in sources.items():
        visit(ast.parse(text), [module])
    return found


def test_the_guard_sees_a_view_call():
    assert _view_calls({
        "low": "class A:\n    def f(self):\n        return self.row(0)\n"
               "    def g(self, m):\n        return m.col(1)\n"
               "def h(m) -> Tuple[int, int]:\n    return m[0, 1]\n"
               "def k(m, acc: Dict[int, int]):\n    acc[0, 1] += 1\n"
               "    return m.rows, m[0]\n"
               "def r(m):\n    def inner():\n        return m.row_list()\n"
               "    return inner\n",
    }) == {"low.A.g", "low.h", "low.r.inner"}


# The functions that still read a `Mat` view (ROADMAP items 4 and 7): the
# extendibility and compatibility witnesses compare columns, and the
# type-two constraint equations index their maps.
VIEW_CALLERS = {"phase._extendible_witness", "doubling._compat_witness",
                "catalog.check_type_two_constraints.a_of_e1",
                "catalog.check_type_two_constraints.b_of_f"}


def test_only_listed_functions_call_a_mat_view():
    assert _view_calls(_package_sources()) == VIEW_CALLERS


# The library's one contraction kernel and its dict readback, and the
# packed words of the predicate sweeps and the height that sizes them;
# the oracles keep dense kernels of their own.
KERNEL = {"_scatter", "_settled", "_words", "_height"}


def _kernel_reads(source: str) -> list:
    """(line, name) for each import or attribute read of a KERNEL name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update((node.lineno, alias.name) for alias in node.names
                         if alias.name in KERNEL)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL:
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_the_guard_sees_a_kernel_import():
    assert _kernel_reads("from lsaforge.exact import (Mat,\n    _scatter)\n"
                         "import lsaforge.exact as ex\nex._settled({})\n"
                         "from lsaforge.algebra import _scattered\n") == [
        (1, "_scatter"), (4, "_settled")]


def test_oracles_do_not_use_the_kernel_they_check():
    path = os.path.join(os.path.dirname(__file__), "oracle_routes.py")
    with open(path, encoding="utf-8") as handle:
        assert _kernel_reads(handle.read()) == []

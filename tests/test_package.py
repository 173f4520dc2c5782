"""The package namespace: exports load on first use and resolve to the
objects of the modules that define them."""

import ast
import json

from conftest import SRC

# runs in a fresh interpreter, so that nothing but the package is loaded
_NAMESPACE = """
import json, pkgutil, sys
import plexalg

out = {"loaded": sorted(m for m in sys.modules if m.startswith("plexalg."))}
from plexalg import lawcheck
out["from_import"] = lawcheck is sys.modules["plexalg.lawcheck"]
subs = sorted(m.name for m in pkgutil.iter_modules(plexalg.__path__))
out["submodules"] = {m: getattr(plexalg, m) is sys.modules["plexalg." + m]
                     for m in subs}
out["mismatched"] = [
    name for name in plexalg.__all__
    if getattr(plexalg, name) is not getattr(
        sys.modules[getattr(plexalg, name).__module__], name)]
star = {}
exec("from plexalg import *", star)
out["star_missing"] = sorted(set(plexalg.__all__) - set(star))
out["dir_missing"] = sorted(set(plexalg.__all__) - set(dir(plexalg)))
try:
    plexalg.nope
    out["nope"] = "resolved"
except AttributeError:
    out["nope"] = "AttributeError"
out["hasattr_nope"] = hasattr(plexalg, "nope")
print(json.dumps(out))
"""


def test_exports_load_on_first_use(fresh_python):
    out = json.loads(fresh_python(_NAMESPACE))
    assert out == {
        "loaded": [],
        "from_import": True,
        "submodules": {m: True for m in (
            "build", "chains", "cli", "decompose", "errors", "groups",
            "kernel", "lawcheck", "parsing", "sampling")},
        "mismatched": [],
        "star_missing": [],
        "dir_missing": [],
        "nope": "AttributeError",
        "hasattr_nope": False,
    }


def test_importing_the_cli_builds_and_compiles_no_algebra(fresh_python):
    out = fresh_python(
        "import gc, plexalg.cli\n"
        "from plexalg.chains import Algebra\n"
        "print(sum(isinstance(o, Algebra) for o in gc.get_objects()))\n")
    assert out == "0\n"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _body(scope) -> list:
    return scope.body if isinstance(scope.body, list) else [scope.body]


def _binds(scope) -> set:
    """Names a function or lambda binds itself: its parameters and every
    name its own body stores, defines or imports, less those it declares
    global or nonlocal (nested functions and lambdas have their own)."""
    args = scope.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    outer, todo = set(), list(_body(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return out - outer


def _unused_imports(source: str) -> list:
    """Names an import statement binds that no other line of its scope
    reads (from __future__ imports aside).  A read belongs to the
    innermost function or lambda around it that binds the name, or to the
    module if none does."""
    bound, read = {}, set()

    def visit(node, scopes):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                owner = scopes[-1][0] if scopes else None
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    bound[owner, name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add((next((s for s, names in reversed(scopes)
                            if node.id in names), None), node.id))
        inner = [] if not isinstance(node, _SCOPES) else _body(node)
        for child in ast.iter_child_nodes(node):
            # defaults, annotations and decorators belong to the outer scope
            visit(child, scopes + ((node, _binds(node)),)
                  if child in inner else scopes)

    visit(ast.parse(source), ())
    return sorted((line, name) for (owner, name), line in bound.items()
                  if (owner, name) not in read)


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import os\nfrom a.b import c, d as e\n"
                           "from __future__ import annotations\n"
                           "print(c)\n") == [(1, "os"), (2, "e")]
    # a local of the same name, read in a nested lambda, is no read
    assert _unused_imports("from a import mul\n"
                           "def f(g):\n"
                           "    mul = g\n"
                           "    return lambda: mul(1)\n") == [(1, "mul")]


# imports a module keeps without reading them, by (module, name), each
# with the file that reads module.name, which is the reason to keep it
KEPT_IMPORTS = {
    ("decompose", "mul"): SRC.parent / "perfbench" / "test_perfbench.py"}


def test_every_imported_name_is_used():
    # a leftover import keeps a deleted helper's name alive
    found = {path.stem: _unused_imports(path.read_text())
             for path in sorted((SRC / "plexalg").glob("*.py"))}
    assert len(found) > 5
    for (module, name), reader in KEPT_IMPORTS.items():
        assert "%s.%s" % (module, name) in reader.read_text()
        found[module] = [f for f in found[module] if f[1] != name]
    assert {name: got for name, got in found.items() if got} == {}


def _reads(node) -> set:
    """Every name a statement reads, as a name, an attribute or an import."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _unreferenced_privates(sources: dict) -> list:
    """(module, name) of every module-level private function or class that
    no statement but its own definition reads, in any of the modules; a
    decorated one counts as used, and dunders are the interpreter's."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and \
                    not stmt.name.endswith("__") and not stmt.decorator_list:
                own = stmt.name
                defined.append((module, own))
            read |= _reads(stmt) - {own}
    return sorted(d for d in defined if d[1] not in read)


def test_the_check_finds_an_unreferenced_private_helper():
    assert _unreferenced_privates({
        "a": "def _dead(n):\n    return _dead(n - 1)\n"
             "class _Used:\n    pass\n"
             "@cache\ndef _registered():\n    pass\n"
             "def __getattr__(name):\n    pass\n",
        "b": "from a import _Used\n"}) == [("a", "_dead")]


def test_every_private_helper_is_referenced():
    # a retired builder helper must not stay behind, unread
    sources = {path.name: path.read_text()
               for path in sorted((SRC / "plexalg").glob("*.py"))}
    assert len(sources) > 5
    assert _unreferenced_privates(sources) == []


def _base_reads(source: str, classes) -> list:
    """(class, method) of every method of the named classes whose body
    reads self.base."""
    out = []
    for stmt in ast.parse(source).body:
        if not (isinstance(stmt, ast.ClassDef) and stmt.name in classes):
            continue
        for fn in stmt.body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "base"
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    for n in ast.walk(fn)):
                out.append((stmt.name, fn.name))
    return sorted(out)


def test_the_check_finds_a_step_reading_its_base():
    assert _base_reads("class S:\n"
                       "    def f(self):\n"
                       "        return lambda: self.base.unit()\n"
                       "    def g(self, base):\n"
                       "        return base.unit()\n"
                       "class T:\n"
                       "    def f(self):\n"
                       "        return self.base\n", {"S"}) == [("S", "f")]


def test_steps_read_their_base_only_when_built_and_described():
    # a peel step computes on the input algebra a and maps the result
    # through its own projection; the base feeds only the canonical fill,
    # which __init__ binds, and describe
    source = (SRC / "plexalg" / "decompose.py").read_text()
    reads = _base_reads(source, {"_Step", "QuotientChain", "RestrictionChain"})
    assert {method for _, method in reads} == {"__init__", "describe"}, reads

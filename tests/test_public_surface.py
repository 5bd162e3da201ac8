"""No aliases that only tests call, and no settings that one value or only tests use.

Every public module-level function of the library, and every public method
of a module-level class, has a caller in `src/` or `bench/` outside its own
body, or is listed in WITHOUT_CALLERS with the reason it is kept.  Being
exported from the package is no reason: `__init__.py` is not searched.

A caller is an `ast` reference, never a word in a comment or a string:
- of a function: its name loaded in its own module, an import of it
  (`from .codes import interleave`), or an attribute read on an owner that
  spells its module (`codes.interleave`, `clopen.codes.interleave`, and bench's
  `_mod("codes").interleave` and `sys.modules["clopen.codes"].interleave`);
- of a method: an attribute read `.name` on any object, except on a name
  bound by `except <builtin exception> as name` (`exc.code` on a caught
  `SystemExit` calls no method of the library).

Every private top-level function and private method (a dunder aside) is read
by name in `src/` or `bench/` outside its own lines: its name loaded, or read
as an attribute.  Tests do not count, so a deletion leaves no helper behind.

Likewise every defaulted parameter of a public function or method, of the
`__init__` of a public module-level class, and every defaulted field of a
public module-level dataclass (a `default_factory` container is not a
setting), is used both ways outside its own definition in `src/` or `bench/`,
or is listed in SETTINGS_NOT_USED_BOTH_WAYS with its reason:
- it has a setter: a call of the function, method or class, resolved as above,
  that passes the value by keyword, by a positional argument at or past its
  index, or by a `dataclasses.replace` keyword of the field's name;
- some call leaves it out.  A default that every call overrides, or that only
  tests override, is one value written twice: the caller's value belongs in
  the function, or the parameter is required.
A call of a class is a call of its `__init__`, and so is a call of a subclass
in its module that inherits that `__init__`.  A listed entry that is now used both ways, or that is no longer defined,
fails the guard.

Every name an import binds in a module of the library (`__init__.py` aside,
whose imports are its exports) is read in that module, so a deletion leaves
no import behind; and every annotation of the library's functions, methods
and classes names something its module defines or imports.
Standard library only.
"""

import ast
import builtins
import importlib
import inspect
import typing
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clopen"

# public functions and methods kept without a caller in src/ or bench/, each
# with its reason; a listed name that gains a caller fails the guard
WITHOUT_CALLERS = {
    "remetrize.open_ball_distance":
        "acceptance criterion 9: the open-ball distance the new metric must equal",
}

# hooks of bench/layertrace.py whose target src/ no longer defines, each with
# its reason; the tracer must miss exactly these, so a rename in src/ that
# blinds a bench metric fails, and so does a listed name that resolves again
STALE_BENCH_HOOKS = {
    name: "deleted from src/; ROADMAP item 1 deletes the hook"
    for name in ("baire.distance", "dsl.evaluate", "luzin.LuzinScheme.ball_stage",
                 "luzin.LuzinScheme.cell_member_seq", "verify.check_dense_metric_axioms")
}

# every memo decorator in src/ (functools.lru_cache or functools.cache), keyed
# "module.qualified name", with the traffic that justifies it, counted over one
# in-process `clopen verify` of each of the 8 catalog instances; an unlisted
# memo, or a listed one that is no longer defined, fails the guard
CACHES = {
    "coding.decode":
        "22,725 hits against 446 misses: trees and instances decode the same "
        "small codes over and over",
    "baire._reciprocal":
        "15,410 hits against 17 misses: first disagreements sit at a few small "
        "positions, so 1/(k+1) is a handful of shared Fractions; dense_pn_rows "
        "asks only the positions its rows read",
    "cli.build_parser":
        "7 hits against 1 miss: argparse objects form reference cycles, so a "
        "parser per main call would leave them to the cyclic collector",
}

# settings ("module.function(name)", "module.Class.method(name)",
# "module.Class.__init__(name)" and dataclass fields "module.Class.name") kept
# without being both set and left out by calls in src/ or bench/, each with its
# reason; a listed entry that is now used both ways fails the guard
SETTINGS_NOT_USED_BOTH_WAYS: dict[str, str] = {}


def _defs(nodes, private=False):
    """(name, node, first line) of each public function among the nodes, or
    each private one; a dunder, which Python calls by protocol, is neither."""
    for node in nodes:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node, min([node.lineno] + [d.lineno for d in node.decorator_list])


@cache
def _parsed():
    """{path: ast module} of every searched file: src/clopen but its __init__, and bench."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


@cache
def _nodes(of_type=ast.AST):
    """(path, node) of every node of the type with a line number in the searched files."""
    return [(path, node) for path, tree in _parsed().items() for node in ast.walk(tree)
            if isinstance(node, of_type) and hasattr(node, "lineno")]


def _definitions(private=False):
    """(key, kind, module path, name, first line, last line, node) of each
    public top-level function and each public method of a top-level class,
    or each private one."""
    for path, tree in _parsed().items():
        if path.parent != PACKAGE:
            continue
        for name, node, first in _defs(tree.body, private):
            yield f"{path.stem}.{name}", "function", path, name, first, node.end_lineno, node
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for name, node, first in _defs(cls.body, private):
                    yield (f"{path.stem}.{cls.name}.{name}", "method", path, name,
                           first, node.end_lineno, node)


def _calls_function(path, node, module, name):
    if isinstance(node, ast.Name):
        return path == module and node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.ImportFrom):
        source = (node.module or "").rsplit(".", 1)[-1]
        return source in ("", "clopen", module.stem) and any(
            alias.name == name for alias in node.names)
    if isinstance(node, ast.Attribute) and node.attr == name:
        return _spelled(node.value) == module.stem
    return False


def _spelled(owner):
    """The module name an attribute owner spells: a name or attribute
    (`codes`, `clopen.codes`), bench's `_mod("codes")` or
    `sys.modules["clopen.codes"]`; None for any other owner."""
    if isinstance(owner, ast.Name):
        return owner.id
    if isinstance(owner, ast.Attribute):
        return owner.attr
    if (isinstance(owner, ast.Call) and getattr(owner.func, "id", None) == "_mod"
            and len(owner.args) == 1 and isinstance(owner.args[0], ast.Constant)):
        return owner.args[0].value
    if (isinstance(owner, ast.Subscript) and getattr(owner.value, "attr", None) == "modules"
            and isinstance(owner.slice, ast.Constant) and isinstance(owner.slice.value, str)
            and owner.slice.value.startswith("clopen.")):
        return owner.slice.value[len("clopen."):]
    return None


def _is_builtin_exception(node):
    """Whether an except clause's type names only builtin exceptions."""
    if isinstance(node, ast.Tuple):
        return bool(node.elts) and all(map(_is_builtin_exception, node.elts))
    found = getattr(builtins, getattr(node, "id", ""), None)
    return isinstance(found, type) and issubclass(found, BaseException)


def _builtin_exception_reads(tree):
    """The attribute reads off a name bound by `except <builtin exception> as
    name`, within that clause: the library defines none of their attributes."""
    reads = []
    for handler in ast.walk(tree):
        if (isinstance(handler, ast.ExceptHandler) and handler.name
                and handler.type is not None and _is_builtin_exception(handler.type)):
            reads += [node for stmt in handler.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == handler.name]
    return reads


@cache
def _not_method_calls():
    """The ids of the searched attribute reads that the method rule skips."""
    return {id(node) for tree in _parsed().values() for node in _builtin_exception_reads(tree)}


def _calls(kind, module, name):
    """The caller test of a definition: (path, node) -> whether node refers to it."""
    if kind == "method":
        return lambda path, node: (isinstance(node, ast.Attribute) and node.attr == name
                                   and id(node) not in _not_method_calls())
    return lambda path, node: _calls_function(path, node, module, name)


def _names_bound(module, name):
    """{path: local names} under which each searched file imports the definition."""
    bound = {}
    for path, node in _nodes(ast.ImportFrom):
        if _calls_function(path, node, module, name):
            bound.setdefault(path, set()).update(
                alias.asname or name for alias in node.names if alias.name == name)
    return bound


def _callee(kind, module, name):
    """The callee test of a definition: (path, call.func) -> whether it is it,
    by its own name in its module, by an imported name, or as an attribute."""
    if kind == "method":
        return _calls(kind, module, name)
    bound = _names_bound(module, name)
    bound.setdefault(module, set()).add(name)
    return lambda path, func: (func.id in bound.get(path, ()) if isinstance(func, ast.Name)
                               else _calls_function(path, func, module, name))


def _outside(module, first, last, of_type=ast.AST):
    """(path, node) of every searched node of the type outside a definition's own lines."""
    return ((path, node) for path, node in _nodes(of_type)
            if not (path == module and first <= node.lineno <= last))


def _without_callers(kind):
    """The keys of the public definitions of this kind that have no caller."""
    missing = []
    for key, what, module, name, first, last, _ in _definitions():
        calls = _calls(what, module, name)
        if what == kind and not any(calls(path, node)
                                    for path, node in _outside(module, first, last)):
            missing.append(key)
    return missing


def _check(kind):
    missing = _without_callers(kind)
    listed = {key for key in WITHOUT_CALLERS if (key.count(".") == 1) == (kind == "function")}
    unlisted, called = sorted(set(missing) - listed), sorted(listed - set(missing))
    assert unlisted == [], f"public {kind}s that only tests call: {unlisted}"
    assert called == [], f"listed {kind}s that now have callers: {called}"


def test_every_public_function_is_called_outside_tests():
    _check("function")


def test_every_public_method_is_called_outside_tests():
    _check("method")


def test_every_name_kept_without_callers_is_defined_and_has_a_reason():
    defined = {key for key, *_ in _definitions()}
    assert sorted(set(WITHOUT_CALLERS) - defined) == []
    assert all(reason.strip() for reason in WITHOUT_CALLERS.values())


def test_the_bench_tracer_misses_only_the_stale_hooks(layertrace):
    from clopen.luzin import LuzinScheme

    embed = LuzinScheme.embed
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert LuzinScheme.embed is not embed
    finally:
        tracer.uninstall()
    assert LuzinScheme.embed is embed
    assert sorted(tracer.missing) == sorted(STALE_BENCH_HOOKS)
    assert all(reason.strip() for reason in STALE_BENCH_HOOKS.values())


def _reads(name, nodes):
    """Whether any node reads the name: loads it, or reads it as an attribute."""
    return any(isinstance(getattr(node, "ctx", None), ast.Load)
               and name == (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
               for node in nodes)


def test_every_private_definition_is_read_outside_its_own_body():
    # a private top-level function or method is read by name somewhere in
    # src/ or bench/ outside its own lines; tests do not count, so a helper
    # left behind by a deletion fails here
    unread = [key for key, _, module, name, first, last, _ in _definitions(private=True)
              if not _reads(name, (node for _, node in _outside(module, first, last)))]
    assert unread == [], "private functions and methods that nothing reads"


def test_private_reads_are_found_in_every_spelling():
    tree = ast.parse("f = _a\ng = obj._b\nobj._c = 1\n_d = 2\ndel obj._e\n_f()\n")
    nodes = list(ast.walk(tree))
    assert [name for name in ("_a", "_b", "_c", "_d", "_e", "_f") if _reads(name, nodes)] == \
        ["_a", "_b", "_f"]


# --- settings ------------------------------------------------------------------

def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _has_default(value):
    """Whether a field's value is a default: a plain value, or a field() call
    passing default=.  A default_factory container is not a setting, and a
    field() call without either leaves the field required."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg == "default" for k in value.keywords)
    return True


def _defaulted(node, bound):
    """(name, index) of each defaulted parameter of a function definition;
    index is the position a positional argument takes, None for a keyword-only
    parameter.  A bound method's first parameter takes no argument."""
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _inheritors(tree, cls):
    """The class's name and those of the classes of its module that inherit
    its __init__: a call of any of them is a call of it."""
    names = [cls.name]
    for other in tree.body:
        if (isinstance(other, ast.ClassDef) and other is not cls
                and any(getattr(b, "id", None) in names for b in other.bases)
                and not any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                            for f in other.body)):
            names.append(other.name)
    return names


def _settings():
    """(key, callee test, module path, first line, last line, name, index) of
    each defaulted parameter of a public function or method or of the
    __init__ of a public top-level class, and of each defaulted field of a
    public top-level dataclass; a field's key has no parentheses."""
    for key, kind, module, name, first, last, node in _definitions():
        bound = kind == "method" and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in node.decorator_list)
        calls = _callee(kind, module, name)
        for param, index in _defaulted(node, bound):
            yield f"{key}({param})", calls, module, first, last, param, index
    for module, tree in _parsed().items():
        if module.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            tests = [_callee("function", module, n) for n in _inheritors(tree, cls)]
            calls = lambda path, func, tests=tests: any(t(path, func) for t in tests)
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    for param, index in _defaulted(init, True):
                        yield (f"{module.stem}.{cls.name}.__init__({param})", calls, module,
                               init.lineno, init.end_lineno, param, index)
            if not _is_dataclass(cls):
                continue
            fields = [f for f in cls.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for index, f in enumerate(fields):
                if f.value is not None and _has_default(f.value):
                    yield (f"{module.stem}.{cls.name}.{f.target.id}", calls, module,
                           cls.lineno, cls.end_lineno, f.target.id, index)


def _sets(call, name, index):
    """Whether a call passes the value: by keyword (a `**` mapping may hold
    it), or by a positional argument at or past its index (a starred one may
    reach it)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred)
                                         for a in call.args[:index + 1])


def _is_replace(call):
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "replace") or (
        isinstance(func, ast.Attribute) and func.attr == "replace"
        and getattr(func.value, "id", None) == "dataclasses")


@cache
def _uses():
    """{setting key: (whether a call sets it, whether a call leaves it out)},
    over the calls in src/ and bench/ outside the setting's own definition."""
    uses = {}
    for key, calls, module, first, last, name, index in _settings():
        field, set_, left_out = "(" not in key, False, False
        for path, call in _outside(module, first, last, ast.Call):
            if calls(path, call.func):
                passed = _sets(call, name, index)
                set_, left_out = set_ or passed, left_out or not passed
            elif field and _is_replace(call) and any(k.arg == name for k in call.keywords):
                set_ = True
        uses[key] = (set_, left_out)
    return uses


def _check_settings(way, what):
    unused = {key for key, ways in _uses().items() if not ways[way]}
    unlisted = sorted(unused - set(SETTINGS_NOT_USED_BOTH_WAYS))
    assert unlisted == [], f"settings {what}: {unlisted}"


def test_every_setting_has_a_setter_outside_tests():
    _check_settings(0, "that only tests set, or nothing sets")


def test_every_setting_is_left_out_by_a_call_outside_tests():
    _check_settings(1, "that every call outside tests passes: write the value "
                       "in the function, or make the parameter required")


def test_every_setting_kept_is_defined_and_has_a_reason():
    uses = _uses()
    listed = set(SETTINGS_NOT_USED_BOTH_WAYS)
    assert sorted(listed - set(uses)) == [], "listed settings that are not defined"
    assert sorted(key for key in listed & set(uses) if all(uses[key])) == [], \
        "listed settings that are now both set and left out"
    assert all(reason.strip() for reason in SETTINGS_NOT_USED_BOTH_WAYS.values())


def test_bench_module_lookups_resolve_to_their_module():
    # bench/workloads.py reaches luzin as _mod("luzin"), bench/worker.py codes
    # as sys.modules["clopen.codes"]
    luzin = PACKAGE / "luzin.py"
    callers = {path.name for path, call in _nodes(ast.Call)
               if _calls_function(path, call.func, luzin, "baire_closed_presentation")}
    assert "workloads.py" in callers
    for text, module in (('_mod("luzin")', "luzin"), ('sys.modules["clopen.codes"]', "codes"),
                         ('sys.modules["numpy"]', None), ('other("luzin")', None)):
        assert _spelled(ast.parse(text, mode="eval").body) == module


def test_a_subclass_call_is_a_call_of_the_inherited_init():
    # ChildSearchExhausted(prefix, detail) sets TreeError.__init__(detail);
    # EmptyTreeViolation(()) leaves it out
    assert _uses()["trees.TreeError.__init__(detail)"] == (True, True)


def test_attributes_of_a_caught_builtin_exception_are_not_method_calls():
    # cli.main reads exc.code off a caught SystemExit, which calls no library method
    tree = ast.parse(
        "try:\n    f()\n"
        "except SystemExit as exc:\n    exc.code\n"
        "except (KeyError, ValueError) as err:\n    err.args\n"
        "except TreeError as err:\n    err.node\n"
        "except (OSError, TreeError) as err:\n    err.detail\n"
        "except Exception:\n    other.label\n")
    assert [node.attr for node in _builtin_exception_reads(tree)] == ["code", "args"]
    cli = PACKAGE / "cli.py"
    assert any(path == cli and node.attr == "code" and id(node) in _not_method_calls()
               for path, node in _nodes(ast.Attribute))


# --- memo decorators -------------------------------------------------------------

_MEMOS = ("lru_cache", "cache")


def _memo_uses(tree, stem):
    """The key of each use of a functools memo in a module: "module.qualified
    name" of the function it decorates, or "module:line" of any other use."""
    direct = {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "functools"
              for alias in node.names if alias.name in _MEMOS}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}

    def is_memo(node):
        if isinstance(node, ast.Name):
            return node.id in direct
        return (isinstance(node, ast.Attribute) and node.attr in _MEMOS
                and getattr(node.value, "id", None) in modules)

    decorating = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{scope}.{child.name}"
                for dec in getattr(child, "decorator_list", []):
                    for sub in ast.walk(dec):
                        decorating[id(sub)] = qual
                visit(child, qual)
            else:
                visit(child, scope)

    visit(tree, stem)
    return [decorating.get(id(node), f"{stem}:{node.lineno}")
            for node in ast.walk(tree) if is_memo(node)]


def _memos():
    return sorted(key for path in sorted(PACKAGE.glob("*.py"))
                  for key in _memo_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem))


def test_every_memo_is_listed_with_its_traffic():
    memos = _memos()
    assert sorted(set(memos) - set(CACHES)) == [], "memos without a CACHES entry"
    assert sorted(set(CACHES) - set(memos)) == [], "CACHES entries that are no longer defined"
    assert all(reason.strip() for reason in CACHES.values())


def test_memo_uses_are_found_in_every_spelling():
    tree = ast.parse(
        "import functools\nimport functools as ft\nfrom functools import lru_cache, cache as c\n"
        "@lru_cache(maxsize=8)\ndef a(): pass\n"
        "@c\ndef b(): pass\n"
        "@functools.cache\ndef d(): pass\n"
        "class K:\n    @ft.lru_cache\n    def m(self): pass\n"
        "def outer():\n    @lru_cache\n    def inner(): pass\n"
        "e = lru_cache()(len)\n"
        "def f():\n    cache = {}\n    return cache\n")
    assert sorted(_memo_uses(tree, "mod")) == [
        "mod.K.m", "mod.a", "mod.b", "mod.d", "mod.outer.inner", "mod:16"]


# --- imports ---------------------------------------------------------------------

def _unread_imports(tree):
    """The names a module's imports bind that the module never reads, sorted.
    A name is read where it is loaded, alone or as the owner of an attribute
    (`dsl.Compiled`); `from __future__` imports bind no name."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_imported_name_is_read_in_its_module():
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            names = _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
            if names:
                unread[path.name] = names
    assert unread == {}, "imports that their module never reads"


def test_unread_imports_are_found_in_every_spelling():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from x import a, b as c\nfrom . import dsl\n"
        "def f(v: a) -> dsl.T:\n    return j.dumps(v)\n")
    assert _unread_imports(tree) == ["c", "os"]


def test_every_annotation_resolves_in_its_module():
    # an annotation naming what its module neither defines nor imports makes
    # typing.get_type_hints raise NameError
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"clopen.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [v for v in vars(obj).values() if inspect.isfunction(v)] \
                if inspect.isclass(obj) else []
            for target in [obj] + members:
                if inspect.isfunction(target) or inspect.isclass(target):
                    try:
                        typing.get_type_hints(target)
                    except NameError as exc:
                        unresolved.append(f"{module.__name__}.{target.__qualname__}: {exc}")
    assert unresolved == []


# --- layering --------------------------------------------------------------------

# the library's modules, each importing only from modules before it
LAYERS = ("coding", "baire", "trees", "dsl", "witness", "luzin", "codes", "remetrize",
          "instances", "verify", "cli")


def _imported_modules(tree):
    """The package modules a module's relative imports name: x in
    `from .x import ...`, and each name in `from . import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_imports_only_earlier_layers():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sorted(LAYERS) == [p.stem for p in modules]
    upward = [f"{path.stem} -> {name}" for path in modules
              for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
              if name not in LAYERS[:LAYERS.index(path.stem)]]
    assert upward == [], "imports of a module at the same or a later layer"


def test_imported_modules_are_found_in_every_spelling():
    tree = ast.parse(
        "import json\nfrom typing import Any\nfrom .baire import a\n"
        "from . import dsl, trees as t\nfrom .. import up\n"
        "def f():\n    from .codes import b\n")
    assert list(_imported_modules(tree)) == ["baire", "dsl", "trees", "codes"]

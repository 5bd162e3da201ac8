"""No aliases that only tests call, and no settings that only tests set.

Every public module-level function of the library, and every public method
of a module-level class, has a caller in `src/` or `bench/` outside its own
body, or is listed in WITHOUT_CALLERS with the reason it is kept.  Being
exported from the package is no reason: `__init__.py` is not searched.

A caller is an `ast` reference, never a word in a comment or a string:
- of a function: its name loaded in its own module, an import of it
  (`from .codes import pipeline`), or an attribute read on a name spelled
  like its module (`codes.pipeline`, `clopen.codes.pipeline`);
- of a method: an attribute read `.name` on any object.

Likewise every defaulted parameter of a public function or method, and every
defaulted field of a public module-level dataclass (a `default_factory`
container is not a setting), has a setter in `src/` or `bench/` outside its
own definition, or is listed in PARAMETERS_WITHOUT_SETTERS with its reason.
A setter is a call of the function, method or class, resolved as above, that
passes the value: by keyword, by a positional argument at or past its index,
or by a `dataclasses.replace` keyword of the field's name.  A listed entry
that gains a setter, or that is no longer defined, fails the guard.
Standard library only.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clopen"

# public functions and methods kept without a caller in src/ or bench/, each
# with its reason; a listed name that gains a caller fails the guard
WITHOUT_CALLERS = {
    "remetrize.open_ball_distance":
        "acceptance criterion 9: the open-ball distance the new metric must equal",
    "codes.completion_distance":
        "the distance on the completion of a coded metric",
    "luzin.image_presentation":
        "the presentation of the embedded image",
    "coding.index_of_rational":
        "the rational index that LuzinScheme.inverse_ball reads",
    "dsl.evaluate":
        "bench/layertrace.py hooks it by name (ROADMAP item 1)",
    "verify.check_dense_metric_axioms":
        "bench/layertrace.py hooks it by name (ROADMAP item 1)",
    "luzin.LuzinScheme.inverse_ball":
        "the paper's semi-decision of preimages of balls under the embedding; "
        "a verify caller would change the trio goldens (ROADMAP item 6)",
    "instances.InstanceFile.canonical_text":
        "the printer that pins instances/*.json to the catalog",
}

# defaulted parameters ("module.function(name)", "module.Class.method(name)")
# and dataclass fields ("module.Class.name") kept without a setter in src/ or
# bench/, each with its reason; a listed entry that gains a setter fails the guard
PARAMETERS_WITHOUT_SETTERS = {
    "cli.main(argv)":
        "the console script calls main() and it reads sys.argv; tests pass argv in process",
}


def _public_defs(nodes):
    """(name, node, first line) of each public function among the nodes."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
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


def _definitions():
    """(key, kind, module path, name, first line, last line, node) of each
    public top-level function and each public method of a top-level class."""
    for path, tree in _parsed().items():
        if path.parent != PACKAGE:
            continue
        for name, node, first in _public_defs(tree.body):
            yield f"{path.stem}.{name}", "function", path, name, first, node.end_lineno, node
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for name, node, first in _public_defs(cls.body):
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
        owner = node.value
        spelled = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        return spelled == module.stem
    return False


def _calls(kind, module, name):
    """The caller test of a definition: (path, node) -> whether node refers to it."""
    if kind == "method":
        return lambda path, node: isinstance(node, ast.Attribute) and node.attr == name
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


# --- settings ------------------------------------------------------------------

def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _is_factory(value):
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "default_factory" for k in value.keywords))


def _settings():
    """(key, kind, module path, callee name, first line, last line, name, index)
    of each defaulted parameter of a public function or method and each
    defaulted field of a public top-level dataclass; index is the position a
    positional argument takes, None for a keyword-only parameter."""
    for key, kind, module, name, first, last, node in _definitions():
        args = node.args
        positional = args.posonlyargs + args.args
        if kind == "method" and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in node.decorator_list):
            positional = positional[1:]
        for index, arg in enumerate(positional):
            if index >= len(positional) - len(args.defaults):
                yield f"{key}({arg.arg})", kind, module, name, first, last, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{key}({arg.arg})", kind, module, name, first, last, arg.arg, None
    for module, tree in _parsed().items():
        if module.parent != PACKAGE:
            continue
        for cls in tree.body:
            if (not isinstance(cls, ast.ClassDef) or cls.name.startswith("_")
                    or not _is_dataclass(cls)):
                continue
            fields = [f for f in cls.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for index, f in enumerate(fields):
                if f.value is not None and not _is_factory(f.value):
                    yield (f"{module.stem}.{cls.name}.{f.target.id}", "function", module,
                           cls.name, cls.lineno, cls.end_lineno, f.target.id, index)


def _sets(call, name, index):
    """Whether a call passes the value: by keyword, or by a positional
    argument at or past its index (a starred one may reach it)."""
    if any(k.arg == name for k in call.keywords):
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


def _without_setters():
    """The keys of the settings that have no setter."""
    missing = []
    for key, kind, module, callee, first, last, name, index in _settings():
        calls = _callee(kind, module, callee)
        field = "(" not in key
        if not any(calls(path, call.func) and _sets(call, name, index)
                   or field and _is_replace(call) and any(k.arg == name for k in call.keywords)
                   for path, call in _outside(module, first, last, ast.Call)):
            missing.append(key)
    return missing


def test_every_setting_has_a_setter_outside_tests():
    missing = set(_without_setters())
    listed = set(PARAMETERS_WITHOUT_SETTERS)
    unlisted, set_now = sorted(missing - listed), sorted(listed - missing)
    assert unlisted == [], f"settings that only tests set, or nothing sets: {unlisted}"
    assert set_now == [], f"listed settings that now have a setter, or are gone: {set_now}"


def test_every_setting_kept_without_setters_is_defined_and_has_a_reason():
    defined = {key for key, *_ in _settings()}
    assert sorted(set(PARAMETERS_WITHOUT_SETTERS) - defined) == []
    assert all(reason.strip() for reason in PARAMETERS_WITHOUT_SETTERS.values())

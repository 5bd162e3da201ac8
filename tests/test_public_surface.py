"""No aliases that only tests call.

Every public module-level function of the library, and every public method
of a module-level class, has a caller in `src/` or `bench/` outside its own
body, or is listed in WITHOUT_CALLERS with the reason it is kept.  Being
exported from the package is no reason: `__init__.py` is not searched.

A caller is an `ast` reference, never a word in a comment or a string:
- of a function: its name loaded in its own module, an import of it
  (`from .codes import pipeline`), or an attribute read on a name spelled
  like its module (`codes.pipeline`, `clopen.codes.pipeline`);
- of a method: an attribute read `.name` on any object.
Standard library only.
"""

import ast
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


def _public_defs(nodes):
    """(name, node, first line) of each public function among the nodes."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, min([node.lineno] + [d.lineno for d in node.decorator_list])


def _parsed():
    """{path: ast module} of every searched file: src/clopen but its __init__, and bench."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _definitions(trees):
    """(key, kind, module path, name, first line, last line) of each public
    top-level function and each public method of a top-level class."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, node, first in _public_defs(tree.body):
            yield f"{path.stem}.{name}", "function", path, name, first, node.end_lineno
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for name, node, first in _public_defs(cls.body):
                    yield (f"{path.stem}.{cls.name}.{name}", "method", path, name,
                           first, node.end_lineno)


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


def _without_callers(kind):
    """The keys of the public definitions of this kind that have no caller."""
    trees = _parsed()
    nodes = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
             if hasattr(node, "lineno")]
    missing = []
    for key, what, module, name, first, last in _definitions(trees):
        if what != kind:
            continue
        if kind == "function":
            calls = lambda path, node: _calls_function(path, node, module, name)
        else:
            calls = lambda path, node: isinstance(node, ast.Attribute) and node.attr == name
        if not any(calls(path, node) for path, node in nodes
                   if not (path == module and first <= node.lineno <= last)):
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
    defined = {key for key, *_ in _definitions(_parsed())}
    assert sorted(set(WITHOUT_CALLERS) - defined) == []
    assert all(reason.strip() for reason in WITHOUT_CALLERS.values())

"""No aliases that only tests call.

Every public module-level function of the library is either exported from
the package or named somewhere in `src/` or `bench/` outside its own body,
and every public method of a module-level class has its `.name` read there
outside its own body; a function or method only tests reach is surface to
delete or to give a caller.  Standard library only: the function and method
lists come from `ast`, the callers from a text search.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clopen"


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _public_defs(nodes):
    """(name, first line, last line) of each public function among the nodes."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8")).body


def _public_functions():
    """(module path, name, first line, last line) of each public top-level function."""
    for path, body in _modules():
        for name, first, last in _public_defs(body):
            yield path, name, first, last


def _public_methods():
    """(module path, Class.name, first line, last line) of each public method
    of a top-level class."""
    for path, body in _modules():
        for cls in body:
            if isinstance(cls, ast.ClassDef):
                for name, first, last in _public_defs(cls.body):
                    yield path, f"{cls.name}.{name}", first, last


# methods kept without a caller in src/ or bench/, each with its reason
METHODS_WITHOUT_CALLERS = {
    "luzin.LuzinScheme.inverse_ball":
        "the paper's semi-decision of preimages of balls under the embedding; "
        "a verify caller would change the trio goldens (ROADMAP item 6)",
    "instances.InstanceFile.canonical_text":
        "the printer that pins instances/*.json to the catalog",
}


def _sources():
    return {path: path.read_text(encoding="utf-8").splitlines()
            for folder in (PACKAGE, ROOT / "bench") for path in sorted(folder.glob("*.py"))}


def _named_outside(sources, pattern, module, first, last):
    return any(pattern.search(line)
               for path, lines in sources.items()
               for number, line in enumerate(lines, 1)
               if not (path == module and first <= number <= last))


def test_every_public_function_is_exported_or_called_outside_tests():
    sources = _sources()
    exported = _exported()
    unused = []
    for module, name, first, last in _public_functions():
        if name in exported:
            continue
        if not _named_outside(sources, re.compile(rf"\b{re.escape(name)}\b"),
                              module, first, last):
            unused.append(f"{module.stem}.{name}")
    assert unused == [], f"public functions that only tests call: {unused}"


def test_every_public_method_is_called_outside_tests():
    sources = _sources()
    unused = []
    for module, qualname, first, last in _public_methods():
        name = qualname.rsplit(".", 1)[1]
        if not _named_outside(sources, re.compile(rf"\.{re.escape(name)}\b"),
                              module, first, last):
            unused.append(f"{module.stem}.{qualname}")
    allowed = set(METHODS_WITHOUT_CALLERS)
    assert sorted(set(unused) - allowed) == [], f"public methods that only tests call: {unused}"
    assert sorted(allowed - set(unused)) == [], "allowlisted methods that now have callers"

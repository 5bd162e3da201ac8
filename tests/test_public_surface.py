"""No aliases that only tests call.

Every public module-level function of the library is either exported from
the package or named somewhere in `src/` or `bench/` outside its own body;
a function only tests reach is surface to delete or to give a caller.
Standard library only: the function list comes from `ast`, the callers from
a text search.
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


def _public_functions():
    """(module path, name, first line, last line) of each public top-level function."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_public_function_is_exported_or_called_outside_tests():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for folder in (PACKAGE, ROOT / "bench") for path in sorted(folder.glob("*.py"))}
    exported = _exported()
    unused = []
    for module, name, first, last in _public_functions():
        if name in exported:
            continue
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        named = any(pattern.search(line)
                    for path, lines in sources.items()
                    for number, line in enumerate(lines, 1)
                    if not (path == module and first <= number <= last))
        if not named:
            unused.append(f"{module.stem}.{name}")
    assert unused == [], f"public functions that only tests call: {unused}"

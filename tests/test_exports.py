"""Every public module-level function and class is reached by the program, its
benchmark or its README."""

import ast
import re
from pathlib import Path

import gammanoise

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gammanoise"


def _reached(directory: Path, by_lookup: bool) -> set:
    """Names read in ``directory``'s modules besides ``__init__.py``.

    A definition or an import is no read.  With ``by_lookup``, attribute
    names and whole string constants count too, as the benchmark reaches the
    package through ``gn.<name>`` and looks classes up by name.
    """
    reached = set()
    for path in directory.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif by_lookup and isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif by_lookup and isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached.add(node.value)
    return reached


def _public_definitions() -> set:
    """Public functions and classes defined at module level in the package, and its exports."""
    names = set(gammanoise.__all__)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def test_every_export_is_reached_outside_tests():
    reached = (_reached(PACKAGE, by_lookup=False)
               | _reached(ROOT / "perfbench", by_lookup=True)
               | set(re.findall(r"\w+", (ROOT / "README.md").read_text())))
    assert sorted(name for name in _public_definitions() if name not in reached) == []

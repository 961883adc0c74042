"""Every name the package exports is reached by the program or by its benchmark."""

import ast
from pathlib import Path

import gammanoise

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_export_is_reached_outside_tests():
    reached = (_reached(ROOT / "src" / "gammanoise", by_lookup=False)
               | _reached(ROOT / "perfbench", by_lookup=True))
    assert [name for name in gammanoise.__all__ if name not in reached] == []

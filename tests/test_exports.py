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



def test_no_module_imports_a_private_name_of_another():
    """A leading-underscore name is used only in the module that defines it.

    Checked for ``from .module import _name`` and for ``module._name`` read
    off a module brought in by ``from . import module``.
    """
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        local_modules = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("gammanoise"))):
                continue
            source = (node.module or "gammanoise").split(".")[-1]
            for alias in node.names:
                if source == "gammanoise" and alias.name in modules:
                    local_modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{path.name} imports {source}.{alias.name}")
        found += [f"{path.name} reads {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in local_modules and node.attr.startswith("_")]
    assert found == []


def test_one_cell_budget():
    """Only ``norms`` defines a module-level cell budget; every size check reads ``norms.CELLS_MAX``."""
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "norms.py":
            continue
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [f"{path.name} defines {target.id}" for target in targets
                      if isinstance(target, ast.Name)
                      and ("CELLS_MAX" in target.id or "MAX_CELLS" in target.id)]
    assert found == []

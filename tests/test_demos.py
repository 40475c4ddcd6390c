"""Every name a demo imports from itemcl must exist.

No test runs the demos (they train models and take a while), so a
public name that is renamed or deleted would otherwise break them
silently. Each demo is parsed, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def itemcl_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) per name imported from an itemcl module; name is
    None for a plain ``import itemcl...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "itemcl":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "itemcl"]
    return found


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = itemcl_imports(path)
    assert imports, f"{path.name} imports nothing from itemcl"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name!r}"

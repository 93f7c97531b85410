"""Static checks on the source tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "corrdyn"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# __init__.py imports only to re-export
@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert _unused_imports(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 3)"]

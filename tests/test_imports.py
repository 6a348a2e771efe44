"""Every import in the package's modules is used."""

import ast
from pathlib import Path

import pytest

import eigencoint

MODULES = sorted(
    path for path in Path(eigencoint.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names an import binds that the module never references, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_check_sees_unused_names():
    source = "import os\nimport os.path\nfrom json import dumps, loads as ld\nld('1')\n"
    assert unused_imports(source) == ["os", "os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

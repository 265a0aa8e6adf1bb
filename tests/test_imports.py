"""Every module in src/gerbetool uses each name it imports.

The package __init__ is exempt: its imports are the public re-exports.
The scan is a plain ast walk, so it needs neither pyflakes nor ruff.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gerbetool"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in `source` that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sin(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_modules_were_found():
    assert {"caloron.py", "cli.py", "grids.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

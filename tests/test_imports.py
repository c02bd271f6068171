"""Every name a library module imports is used in that module.

Deleting a code path tends to leave its imports behind; this walks each
module's syntax tree rather than running a linter, so it needs nothing
beyond the standard library.  `__init__.py` is skipped: its imports are the
exported names.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frameavg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == [
        "math",
        "sep",
    ]
    assert _unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []

"""pyproject.toml is the one dependency list.

CI installs ``.[dev]`` and nothing else, so a third-party import in
``src/`` or ``tests/`` that pyproject does not declare would fail
collection on a fresh runner while passing on any machine that happens
to have the package.  This guard walks every import statically.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

REPO_ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro", "tests"}


def _top_level_imports(root: Path):
    """``{top-level module: first file importing it}`` under ``root``."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0], path)
    return found


def _declared_distributions():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["dev"]
    return {
        re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    }


def test_every_third_party_import_is_declared():
    declared = _declared_distributions()
    undeclared = {
        module: str(path.relative_to(REPO_ROOT))
        for root in ("src", "tests")
        for module, path in _top_level_imports(REPO_ROOT / root).items()
        if module not in sys.stdlib_module_names
        and module not in FIRST_PARTY
        and module.lower() not in declared
    }
    assert undeclared == {}, (
        "imported but not declared in pyproject.toml "
        f"([project].dependencies or the dev extra): {undeclared}"
    )

"""``repro.runtime.durable`` is the one durable-file primitive.

Crash safety is proven once, for that module, by the crash-point matrix
in ``tests/runtime/test_durable.py``.  A module that renames, fsyncs or
truncates files itself would sidestep that proof, so this guard walks
every call in ``src/`` statically and allows those calls only there.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PRIMITIVE = SRC / "repro" / "runtime" / "durable.py"
FORBIDDEN = {
    ("os", "replace"), ("os", "rename"), ("os", "fsync"),
    ("os", "ftruncate"), ("tempfile", "mkstemp"),
}


def _durability_calls(path: Path):
    """``module.function`` names in ``FORBIDDEN`` that ``path`` calls or
    imports directly."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in FORBIDDEN
        ):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.update(
                f"{node.module}.{alias.name}"
                for alias in node.names
                if (node.module, alias.name) in FORBIDDEN
            )
    return found


def test_only_the_primitive_touches_durability_syscalls():
    offenders = {
        str(path.relative_to(SRC)): sorted(calls)
        for path in sorted(SRC.rglob("*.py"))
        if path != PRIMITIVE and (calls := _durability_calls(path))
    }
    assert offenders == {}, (
        "write files through repro.runtime.durable instead: "
        f"{offenders}"
    )


def test_the_guard_sees_the_primitive():
    assert _durability_calls(PRIMITIVE) == {
        "os.replace", "os.fsync", "os.ftruncate", "tempfile.mkstemp",
    }

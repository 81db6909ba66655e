"""A run's knobs come only from its ``ExecutionPolicy``.

The policy and its hash, stamped on every run record, are what tie a
reported number to the run that made it.  A knob read from the
environment would configure a run around the policy, invisibly to the
record.  So this guard walks every module under ``src/repro/``
statically and fails on any reference to ``os.environ``, ``os.getenv``
or ``os.putenv`` (or their siblings), however ``os`` was imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

FORBIDDEN = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _env_reads(path: Path):
    """``(line, what)`` for each environment access in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update((node.lineno, f"from os import {a.name}")
                         for a in node.names if a.name in FORBIDDEN)
        elif (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
              and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_the_environment():
    offenders = {
        str(path.relative_to(SRC)): sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if (found := _env_reads(path))
    }
    assert offenders == {}, (
        "configure runs through ExecutionPolicy, not the environment: "
        f"{offenders}"
    )


def test_the_guard_sees_every_spelling(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "import os\n"
        "import os as _os\n"
        "from os import getenv\n"
        "a = os.environ.get('REPRO_LANE')\n"
        "b = _os.getenv('REPRO_JOBS')\n"
        "os.putenv('X', '1')\n"
        "c = os.path.join('a', 'b')\n"
    )
    assert _env_reads(copy) == {
        (3, "from os import getenv"),
        (4, "os.environ"),
        (5, "_os.getenv"),
        (6, "os.putenv"),
    }

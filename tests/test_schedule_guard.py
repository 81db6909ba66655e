"""``repro.congest.schedule`` is the one round schedule.

Crash activation, the halt and ``stop_on_reject`` checks, the wake skip,
the quiescence-probe rollback and the ``max_rounds`` cut live in one
driver that both execution lanes call.  A second copy of the schedule
would need the crash plan or a loop bounded by ``max_rounds``, so this
guard walks every module under ``src/repro/congest/`` statically and
allows those two things only in ``schedule.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

CONGEST = Path(__file__).resolve().parents[1] / "src" / "repro" / "congest"
DRIVER = CONGEST / "schedule.py"


def _names(node: ast.AST):
    """Every bare name and attribute name inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _schedule_code(path: Path):
    """``(line, what)`` for each crash-plan read and each loop bounded by
    ``max_rounds`` in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "crash_round_of":
            found.add((node.lineno, "reads crash_round_of"))
        elif isinstance(node, ast.While) and "max_rounds" in _names(node.test):
            found.add((node.lineno, "while-loop bounded by max_rounds"))
        elif isinstance(node, ast.For) and "max_rounds" in _names(node.iter):
            found.add((node.lineno, "for-loop bounded by max_rounds"))
    return found


def test_only_the_driver_holds_the_schedule():
    offenders = {
        path.name: sorted(found)
        for path in sorted(CONGEST.glob("*.py"))
        if path != DRIVER and (found := _schedule_code(path))
    }
    assert offenders == {}, (
        "round-schedule rules belong in repro.congest.schedule: "
        f"{offenders}"
    )


def test_the_guard_sees_the_driver():
    assert {what for _, what in _schedule_code(DRIVER)} == {
        "reads crash_round_of", "while-loop bounded by max_rounds",
    }


def test_the_guard_sees_a_copy(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "def run(injector, max_rounds):\n"
        "    pending = dict(injector.crash_round_of)\n"
        "    for r in range(max_rounds):\n"
        "        pass\n"
    )
    assert {what for _, what in _schedule_code(copy)} == {
        "reads crash_round_of", "for-loop bounded by max_rounds",
    }

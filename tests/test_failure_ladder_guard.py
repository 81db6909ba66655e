"""``run_amplified``'s pool ladder is the one failure ladder.

A dying pool worker is absorbed in ``repro.congest.parallel``: the pool
is rebuilt, the run falls back to serial, or unfinished chunks are
salvaged, and the answer stays bit-identical.  A second ladder above it
would either catch a broken pool itself or resubmit work in a loop, so
this guard walks ``src/`` statically and allows the broken-pool
exceptions only in ``parallel.py`` and no ``.submit(`` call inside a
loop anywhere in ``repro.serve``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LADDER = SRC / "congest" / "parallel.py"
SERVE = SRC / "serve"
BROKEN = {"BrokenProcessPool", "BrokenExecutor", "BrokenThreadPool"}
LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def _broken_pool_names(path: Path):
    """``(line, name)`` for each broken-pool exception ``path`` names."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and node.id in BROKEN:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BROKEN:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found.update(
                (node.lineno, alias.name)
                for alias in node.names if alias.name in BROKEN
            )
    return found


def _submits_in_loops(path: Path):
    """Line numbers of ``.submit(`` calls made inside a loop in ``path``."""
    return {
        call.lineno
        for loop in ast.walk(_tree(path)) if isinstance(loop, LOOPS)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "submit"
    }


def test_only_the_pool_ladder_names_broken_pools():
    offenders = {
        str(path.relative_to(SRC)): sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if path != LADDER and (found := _broken_pool_names(path))
    }
    assert offenders == {}, (
        "pool breaks belong to run_amplified's ladder in "
        f"repro.congest.parallel: {offenders}"
    )


def test_the_server_submits_each_execution_once():
    offenders = {
        path.name: sorted(found)
        for path in sorted(SERVE.glob("*.py"))
        if (found := _submits_in_loops(path))
    }
    assert offenders == {}, (
        "resubmitting engine work in a loop is a second failure ladder: "
        f"{offenders}"
    )


def test_the_guard_sees_the_ladder():
    assert {name for _, name in _broken_pool_names(LADDER)} == {
        "BrokenProcessPool",
    }


def test_the_guard_sees_a_second_ladder(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "from concurrent.futures import BrokenExecutor\n"
        "async def lead(engine, fn):\n"
        "    while True:\n"
        "        try:\n"
        "            return await engine.submit(fn)\n"
        "        except BrokenExecutor:\n"
        "            continue\n"
    )
    assert {name for _, name in _broken_pool_names(copy)} == {
        "BrokenExecutor",
    }
    assert _submits_in_loops(copy) == {5}

"""The server injects no faults of its own and exposes no test-only knobs.

Serving faults are real events -- a client closing its socket, a slow
engine, a journal torn by a crash -- and the tests produce them from
outside.  So this guard walks ``src/repro/serve`` statically and fails
on a ``time.sleep`` call there (an injected delay), on an import of
``repro.faults`` there (an injected fault schedule), and on a
``DetectionServer`` constructor parameter that ``repro serve`` does not
pass: such a parameter is a knob only tests can turn.  ``engine`` is the
one test seam, the way tests slow the engine down or count its calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SERVE = SRC / "serve"
CLI = SRC / "cli.py"
TEST_SEAMS = {"engine"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def _sleeps(path: Path):
    """Line numbers of ``time.sleep`` calls and ``sleep`` imports from
    ``time`` in ``path``."""
    found = set()
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "sleep"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(alias.name == "sleep" for alias in node.names):
                found.add(node.lineno)
    return found


def _imported_modules(path: Path, package: str):
    """``(line, dotted name)`` of each module ``path`` imports, with
    relative imports resolved against ``package``."""
    parts = package.split(".")
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found.update((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add((node.lineno, base))
            # ``from repro import faults`` imports a module too.
            found.update(
                (node.lineno, f"{base}.{alias.name}") for alias in node.names
            )
    return found


def _fault_imports(path: Path):
    return {
        (line, name)
        for line, name in _imported_modules(path, "repro.serve")
        if name == "repro.faults" or name.startswith("repro.faults.")
    }


def _init_params(path: Path, cls: str):
    """Parameter names of ``cls.__init__`` in ``path``, minus ``self``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    return {
                        a.arg
                        for a in args.posonlyargs + args.args + args.kwonlyargs
                    } - {"self"}
    raise AssertionError(f"no {cls}.__init__ in {path}")


def _keywords_passed(path: Path, func: str, callee: str):
    """Keyword names ``func`` in ``path`` passes to calls of ``callee``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.FunctionDef) and node.name == func:
            return {
                kw.arg
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == callee
                for kw in call.keywords
            }
    raise AssertionError(f"no {func} in {path}")


def test_the_server_never_sleeps():
    offenders = {
        path.name: sorted(found)
        for path in sorted(SERVE.glob("*.py"))
        if (found := _sleeps(path))
    }
    assert offenders == {}, (
        "a sleep in the serving layer is an injected delay; slow the "
        f"engine from a test through DetectionServer(engine=...): {offenders}"
    )


def test_the_server_imports_no_fault_injection():
    offenders = {
        path.name: sorted(found)
        for path in sorted(SERVE.glob("*.py"))
        if (found := _fault_imports(path))
    }
    assert offenders == {}, (
        "serving faults are real events, not repro.faults schedules: "
        f"{offenders}"
    )


def test_every_server_parameter_is_a_serve_flag_or_the_engine_seam():
    params = _init_params(SERVE / "server.py", "DetectionServer")
    passed = _keywords_passed(CLI, "_cmd_serve", "DetectionServer")
    assert params - passed == TEST_SEAMS, (
        "a DetectionServer parameter 'repro serve' never passes is a "
        f"test-only knob: {sorted(params - passed - TEST_SEAMS)}"
    )


def test_the_guard_sees_sleeps_and_fault_imports(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "import time\n"
        "from time import sleep\n"
        "from ..faults.inject import FaultInjector\n"
        "from .. import faults\n"
        "import repro.faults\n"
        "from .protocol import parse_request\n"
        "def stall(delay_s):\n"
        "    time.sleep(delay_s)\n"
    )
    assert _sleeps(copy) == {2, 8}
    assert {line for line, _ in _fault_imports(copy)} == {3, 4, 5}


def test_the_guard_sees_a_test_only_parameter(tmp_path):
    server = tmp_path / "server.py"
    server.write_text(
        "class DetectionServer:\n"
        "    def __init__(self, host, *, engine=None, chaos=None):\n"
        "        pass\n"
    )
    cli = tmp_path / "cli.py"
    cli.write_text(
        "def _cmd_serve(args):\n"
        "    return DetectionServer(host=args.host)\n"
    )
    params = _init_params(server, "DetectionServer")
    passed = _keywords_passed(cli, "_cmd_serve", "DetectionServer")
    assert params - passed - TEST_SEAMS == {"chaos"}

"""The benchmark's tracer still finds every callable it wraps.

``perfbench/tracing.py`` measures layers from outside by replacing named
callables (``RunSession.amplify``, ``engine.run_amplified``,
``parallel._run_chunk``, ...) with timing wrappers.  A refactor that
renames one breaks ``perfbench/run.py --trace 1`` only at bench time,
and one that routes around one loses its spans without any error.  This
guard installs the serve and the batch wrappers, each in a fresh
interpreter, runs one tiny amplified detect, and requires the amplify
spans the layer report is built from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from pathlib import Path

import networkx as nx
import tracing

if sys.argv[1] == "serve":
    tracer = tracing.install_serve_wrappers()
else:
    tracer = tracing.install_batch_wrappers(Path(sys.argv[2]))

from repro.core import detect_cycle_linear
from repro.runtime import ExecutionPolicy, RunSession

policy = ExecutionPolicy(lane="vectorized", metrics="lite", jobs=2)
with RunSession(policy) as ses:
    detect_cycle_linear(nx.cycle_graph(8), 5, 4, session=ses)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


@pytest.mark.parametrize("mode", ["serve", "batch"])
def test_traced_detect_emits_the_amplify_spans(mode, tmp_path):
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"session.amplify", "parallel.amplify", "parallel.gather"} <= spans, spans

"""Helpers shared by every workload: paths, /proc readers, statistics,
the host calibration loop, the exact-count store and the result line.

Everything here is stdlib only and imports nothing from ``repro``, so the
orchestrating process stays light and the program under test runs in the
processes the workloads start.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark is always run from it.
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Run artifacts (server logs, span dumps, the exact-count store); the
#: root ``.gitignore`` lists it.
STATE = ROOT / ".perfbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchFailure(Exception):
    """A correctness, determinism or teardown check failed."""


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC}/repro; run from the "
            "root of a checkout\n"
        )
        raise SystemExit(2)


def program_env() -> Dict[str, str]:
    """Environment for a subprocess running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The program must not inherit settings that change its behaviour.
    for key in list(env):
        if key.startswith("REPRO_"):
            del env[key]
    return env


def run_dir(workload: str, seed: int, trace: bool) -> Path:
    d = STATE / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


# -- /proc readers ----------------------------------------------------------

def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans /proc; no psutil here)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants (pool workers included)."""
    tree, frontier = [pid], [pid]
    while frontier:
        kids = [c for p in frontier for c in _children(p)]
        tree.extend(kids)
        frontier = kids
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed user + system CPU of ``pids`` (dead pids count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MB."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


def steal_ticks() -> Tuple[int, int]:
    """Host-wide (steal, total) CPU ticks from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_note(before: Tuple[int, int], after: Tuple[int, int]) -> str:
    steal, total = after[0] - before[0], after[1] - before[1]
    return (f"host.steal_frac {steal / total if total else 0.0:.4f} "
            f"(CPU time the hypervisor took during the window)")


def shm_segments() -> set:
    """Named POSIX shared-memory segments (``multiprocessing`` names)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile, at most p99, with at least
    ten samples beyond it: ``(value, percentile, samples beyond)``."""
    n = len(values)
    if n <= 10:
        raise ValueError(f"a tail needs more than ten samples, got {n}")
    rank = min(math.ceil(0.99 * n), n - 10)
    return float(sorted(values)[rank - 1]), 100.0 * rank / n, n - rank


def wait_gone(pids: Iterable[int], timeout: float = 30.0) -> List[int]:
    """Wait until every pid has exited; return those still running."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left:
        alive = []
        for pid in left:
            try:
                with open(f"/proc/{pid}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            if stat[stat.rindex(b")") + 2:].split()[0] != b"Z":
                alive.append(pid)
        left = alive
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return left


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return float(ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def calibrate(reps: int = 5) -> float:
    """Median wall time (ms) of a fixed pure-Python loop.

    A host-speed diagnostic only: it never gates a run or rescales a
    number, it lets a reader tell host drift from a regression.
    """
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t) * 1000.0)
    return median(times)


# -- exact counts --------------------------------------------------------------

def code_fingerprint() -> str:
    """Content hash of the program and benchmark sources."""
    h = hashlib.blake2b(digest_size=8)
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_exact_counts(
    workload: str, seed: int, counts: Dict[str, int]
) -> Optional[str]:
    """Compare ``counts`` with an earlier run of the same code and seed.

    The first run stores them; a later run that disagrees means the
    workload is not deterministic.  Returns a message on mismatch.
    """
    store = STATE / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-s{seed}-{code_fingerprint()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = {
            k: [before.get(k), counts.get(k)]
            for k in sorted(set(before) | set(counts))
            if before.get(k) != counts.get(k)
        }
        if diff:
            return f"exact counts differ from an earlier run: {diff}"
        return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return None


# -- reporting -----------------------------------------------------------------

class Report:
    """Metrics of one run: value, unit and sample count (or base)."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: Any = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def print_table(self, title: str, gated: Sequence[str]) -> None:
        print(f"== {title}")
        for name, m in self.metrics.items():
            samples = "" if m["samples"] is None else f"  [{m['samples']}]"
            mark = "" if name in gated else "  (reported, not gated)"
            print(f"  {name:34s} {_fmt(m['value']):>14s} {m['unit']:8s}"
                  f"{samples}{mark}")
        for text in self.notes:
            print(f"  note: {text}")

    def result(self, correct: bool, attempted: int, failed: int,
               names: Sequence[str]) -> str:
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise BenchFailure(f"metrics not measured: {missing}")
        return json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                n: {"value": self.metrics[n]["value"],
                    "unit": self.metrics[n]["unit"]}
                for n in names
            },
        })


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}"


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())

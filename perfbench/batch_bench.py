"""The batch-vec workload: the ``repro detect`` path in-process, no server.

One op is one amplified ``detect_cycle_linear`` (C5) run of a fixed
number of seeds under ``lane=vectorized,metrics=lite,jobs=2`` on a
64x64 grid.  The grid has n = 4096 >= ``GRAPH_SHARE_MIN_NODES``, so the
graph reaches the pool workers through shared memory; it is bipartite,
so it has no C5: every seed runs and the only correct answer is "not
found".

The orchestrator (imported by ``run.py``) starts this file as a worker
subprocess, once per set-up sample and once per measured pass, and reads
the worker's JSON result file.  Run as a script, this file is the
worker.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    BenchFailure,
    Report,
    calibrate,
    check_exact_counts,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    process_tree,
    program_env,
    shm_segments,
    steal_note,
    steal_ticks,
    tail,
    wait_gone,
)

GRID = 64
CYCLE = 5
SEEDS_PER_OP = 4
JOBS = 2
POLICY = f"lane=vectorized,metrics=lite,jobs={JOBS}"
SETUP_LAUNCHES = 3
#: A program defect, reported but not failed on (see NOTES.md): after
#: ``shutdown_pools()`` shut a pool down with ``wait=False``, CPython
#: 3.11's exit hook can write to the pool's already-closed wakeup pipe.
_EXIT_RACE = re.compile(
    r"Exception ignored in: <module 'threading'.*?_python_exit.*?"
    r"OSError: \[Errno 9\] Bad file descriptor\n", re.S)
#: Ops in the fixed traced pass (and its untraced twin).
PASS_OPS = 5


# -- worker side -------------------------------------------------------------

def _op(ses: Any, graph: Any, seed: int) -> Tuple[float, Any]:
    from repro.core import detect_cycle_linear

    t = time.perf_counter()
    rep = detect_cycle_linear(graph, CYCLE, iterations=SEEDS_PER_OP,
                              seed=seed, session=ses)
    return (time.perf_counter() - t) * 1000.0, rep


def _check_op(rep: Any, where: str, failures: List[str]) -> None:
    if rep.detected or rep.iterations_run != SEEDS_PER_OP:
        failures.append(
            f"{where}: detected={rep.detected}, iterations_run="
            f"{rep.iterations_run}; a bipartite grid has no C{CYCLE}, so "
            f"every one of the {SEEDS_PER_OP} seeds must run and find nothing"
        )


def _op_seed(seed: int, k: int) -> int:
    return (seed * 7919 + k) * SEEDS_PER_OP


def worker(args: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, then run the requested mode; returns the result dict."""
    mode = args["mode"]
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.install_batch_wrappers(Path(args["spans_dir"]))
    from repro.congest.shm import shared_export_names
    from repro.graphs import generators
    from repro.runtime import ExecutionPolicy, RunSession

    graph = generators.grid(GRID, GRID)
    ses = RunSession(ExecutionPolicy.from_spec(POLICY))
    failures: List[str] = []
    res: Dict[str, Any] = {"failures": failures}
    try:
        if mode in ("setup", "measure"):
            _, rep = _op(ses, graph, _op_seed(args["seed"], 10**6))
            _check_op(rep, "warm-up op", failures)
            res["setup_s"] = time.monotonic() - args["t_launch"]
        if mode == "measure":
            res.update(_window(ses, graph, args, failures))
        elif mode in ("plain", "traced"):
            lat = []
            for k in range(PASS_OPS):
                if tracer is not None:
                    with tracer.span("op", rid=f"op{k}"):
                        ms, rep = _op(ses, graph, _op_seed(args["seed"], k))
                else:
                    ms, rep = _op(ses, graph, _op_seed(args["seed"], k))
                lat.append(ms)
                _check_op(rep, f"op {k}", failures)
            res["latency_ms"] = lat
            if mode == "plain":
                res.update(_jobs1_and_profile(graph, args, failures))
    finally:
        ses.close()
    leftover = shared_export_names()
    if leftover:
        failures.append(f"shm exports left after session close: {leftover}")
    if tracer is not None:
        tracer.dump(Path(args["spans_dir"]) / "spans-main.jsonl")
    return res


def _window(ses: Any, graph: Any, args: Dict[str, Any],
            failures: List[str]) -> Dict[str, Any]:
    import os

    pids = process_tree(os.getpid())
    cpu0, steal0 = cpu_seconds(pids), steal_ticks()
    lat = []
    t0 = time.perf_counter()
    end = t0 + args["seconds"]
    k = 0
    while time.perf_counter() < end:
        ms, rep = _op(ses, graph, _op_seed(args["seed"], k))
        lat.append(ms)
        _check_op(rep, f"op {k}", failures)
        k += 1
    wall = time.perf_counter() - t0
    pids = process_tree(os.getpid())
    return {
        "steal": [steal0, steal_ticks()],
        "latency_ms": lat,
        "wall_s": wall,
        "cpu_s": cpu_seconds(pids) - cpu0,
        "rss_mb": peak_rss_mb(pids),
        "pids": pids,
    }


def _jobs1_and_profile(graph: Any, args: Dict[str, Any],
                       failures: List[str]) -> Dict[str, Any]:
    """One op at ``jobs=1`` and one profiled serial seed."""
    from repro.congest.kernels import KernelProfile
    from repro.congest.message import int_width
    from repro.congest.network import CongestNetwork
    from repro.core.cycle_detection_linear import _LinearCycleFactory
    from repro.runtime import ExecutionPolicy, RunSession

    with RunSession(ExecutionPolicy.from_spec(POLICY).merged(jobs=1)) as ses1:
        ms1, rep = _op(ses1, graph, _op_seed(args["seed"], 0))
    _check_op(rep, "jobs=1 op", failures)
    n = graph.number_of_nodes()
    net = CongestNetwork(graph, bandwidth=int_width(n) + int_width(CYCLE))
    prof = KernelProfile()
    net.run(_LinearCycleFactory(CYCLE, None, lane="vectorized")(0),
            max_rounds=n + CYCLE + 2, seed=_op_seed(args["seed"], 0),
            metrics="lite", profile=prof)
    return {
        "jobs1_ms": ms1,
        "profile": {p: getattr(prof, f"{p}_s")
                    for p in ("step", "mask", "bill", "permute", "deliver")},
    }


# -- orchestrator side ---------------------------------------------------------

def _launch(mode: str, seed: int, seconds: float, run_dir: Path,
            tag: str) -> Dict[str, Any]:
    out = run_dir / f"batch-{tag}.json"
    args = {"mode": mode, "seed": seed, "seconds": seconds,
            "spans_dir": str(run_dir), "out": str(out),
            "t_launch": time.monotonic()}
    with open(run_dir / f"batch-{tag}.err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), json.dumps(args)],
            stdout=subprocess.DEVNULL, stderr=err, env=program_env(),
        )
        try:
            code = proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchFailure(f"batch worker {tag} timed out") from None
    text = (run_dir / f"batch-{tag}.err").read_text(errors="replace")
    res = json.loads(out.read_text()) if code == 0 else None
    exit_race = _EXIT_RACE.search(text)
    if exit_race:
        text = text[:exit_race.start()] + text[exit_race.end():]
    if res is None or "Traceback" in text:
        raise BenchFailure(f"batch worker {tag} exited {code}: {text[-2000:]}")
    res["exit_race"] = bool(exit_race)
    return res


def _note_exit_races(report: Report, launches: List[Dict[str, Any]]) -> None:
    races = sum(1 for r in launches if r["exit_race"])
    if races:
        report.note(f"program defect seen in {races} of {len(launches)} worker "
                    "exits: the pool exit race (see NOTES.md)")


def run_measured(seed: int, seconds: int, run_dir: Path) -> Tuple[Report, int, int, bool]:
    report = Report()
    calib_before = calibrate()
    segs = shm_segments()
    launches = [_launch("setup", seed, 0, run_dir, f"setup{i}")
                 for i in range(SETUP_LAUNCHES - 1)]
    res = _launch("measure", seed, float(seconds), run_dir, "measure")
    launches.append(res)
    setups = [r["setup_s"] for r in launches]
    failures = [f for r in launches for f in r["failures"]]
    stray = wait_gone(res["pids"])
    if stray:
        failures.append(f"pool processes still running: {stray}")
    leaked = shm_segments() - segs
    if leaked:
        failures.append(f"shared-memory segments left behind: {sorted(leaked)}")
    lat = res["latency_ms"]
    ops = len(lat)
    report.add("setup_s", median(setups), "s", f"median of {len(setups)} launches")
    report.add("throughput_per_s", ops / res["wall_s"], "1/s",
               f"{ops} ops in {res['wall_s']:.2f} s")
    report.add("latency_p50_ms", percentile(lat, 50), "ms", f"n={ops}")
    value, q, beyond = tail(lat)
    report.add("latency_tail_ms", value, "ms", f"p{q:.1f} of n={ops}, {beyond} beyond")
    report.add("cpu_ms_per_op", 1000.0 * res["cpu_s"] / ops, "ms",
               f"benchmark process + pool workers over {ops} ops")
    report.add("peak_rss_mb", res["rss_mb"], "MB",
               f"VmHWM of {len(res['pids'])} process(es)")
    failed = sum(1 for f in failures if f.startswith("op "))
    report.add("ok_frac", (ops - failed) / ops, "ratio",
               f"{ops - failed} of {ops} attempted")
    report.note(steal_note(*res["steal"]))
    report.note(f"host.calib_ms before {calib_before:.2f}, after {calibrate():.2f}")
    report.note("loadgen.late_ms_p99 n/a: batch ops are issued back to back")
    _note_exit_races(report, launches)
    for msg in failures[:20]:
        report.note(f"FAILED {msg}")
    return report, ops, failed, not failures


def run_traced(seed: int, run_dir: Path) -> Tuple[Report, int, int, bool]:
    import tracing

    report = Report()
    calib_before = calibrate()
    segs = shm_segments()
    plain = _launch("plain", seed, 0, run_dir, "plain")
    traced = _launch("traced", seed, 0, run_dir, "traced")
    failures = plain["failures"] + traced["failures"]
    leaked = shm_segments() - segs
    if leaked:
        failures.append(f"shared-memory segments left behind: {sorted(leaked)}")
    spans = tracing.load_spans(run_dir / "spans-main.jsonl")
    for path in sorted(run_dir.glob("spans-worker-*.jsonl")):
        spans.extend(tracing.load_spans(path))
    metrics, counts, text = tracing.analyze_batch(spans, traced, plain, JOBS)
    for line in text:
        report.note(line)
    for name, (value, unit, base) in metrics.items():
        report.add(name, value, unit, base)
    report.add("host.calib_ms", (calib_before + calibrate()) / 2, "ms",
               "diagnostic only")
    report.add("loadgen.late_ms_p99", 0.0, "ms",
               "diagnostic only: batch ops are issued back to back")
    mismatch = check_exact_counts("batch-vec", seed, counts)
    if mismatch:
        failures.append(mismatch)
    _note_exit_races(report, [plain, traced])
    for msg in failures[:20]:
        report.note(f"FAILED {msg}")
    attempted = len(plain["latency_ms"]) + len(traced["latency_ms"])
    return report, attempted, len(failures), not failures


if __name__ == "__main__":
    worker_args = json.loads(sys.argv[1])
    result = worker(worker_args)
    Path(worker_args["out"]).write_text(json.dumps(result))

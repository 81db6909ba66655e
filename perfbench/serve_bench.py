"""The serve workloads: a real ``repro serve`` subprocess and one
generator process (this one) driving it over two TCP connections.

``serve-miss`` is a closed loop of unique requests; ``serve-dup`` is an
open loop of duplicate bursts and later repeats at a fixed arrival rate.
The server runs in its own process, so its CPU, memory and interpreter
lock are separate from the generator's; its CPU and peak RSS are read
from ``/proc``.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
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

#: Setup is measured this many times per run; the median is reported.
SETUP_LAUNCHES = 3
#: A request that gets no terminal line within this many seconds failed.
REQUEST_TIMEOUT_S = 30.0
#: Responses compared record-for-record with a direct ``execute_request``.
SAMPLED_DIFFS = 12

MISS_PATTERNS = ("c4", "c6", "odd-c5", "triangle", "k4")
POLICIES = ("", "metrics=lite")
#: Amplification budget per serve-miss pattern (single-run patterns
#: ignore it); c6 iterations cost several times a c4 one.
MISS_ITERATIONS = {"c4": 1, "c6": 1, "odd-c5": 2}
#: serve-miss requests in the fixed traced pass (and its untraced twin).
MISS_PASS_REQUESTS = 480

#: serve-dup mean arrival rate (requests per second, both connections).
DUP_RATE = 200.0
#: Per fresh query: one burst of this many duplicates (leader first,
#: largest budget first) ...
DUP_BURST = 3
#: ... then this many later repeats of earlier queries (cache hits).
DUP_REPEATS = 17
DUP_CYCLE = DUP_BURST + DUP_REPEATS
#: Repeats start this long after a burst and spread evenly over the rest
#: of the cycle, so a hit does not wait for the interpreter lock behind
#: the burst's execution.
DUP_QUIET_S = 0.03
#: Repeats pick among the queries of cycles ``c - DUP_LOOKBACK[1]`` to
#: ``c - DUP_LOOKBACK[0]``: never the current or the previous cycle, so a
#: repeat never races the fill of a group it could have joined.
DUP_LOOKBACK = (2, 6)
DUP_LEADER_BUDGET = 4
#: serve-dup cycles (fresh queries) in the fixed traced pass.
DUP_PASS_CYCLES = 80
#: Result-cache entries: serve-miss runs the server's default, which its
#: unique requests keep evicting; serve-dup's holds every measured query.
CACHE_SIZE = {"serve-miss": 256, "serve-dup": 16384}

#: The open loop busy-waits this long before each due time.
SPIN_S = 0.002

WARMUP_REQUEST = {
    "id": "warmup-0", "pattern": "triangle",
    "graph": {"kind": "gnp", "n": 16, "p": 0.25, "seed": 1},
}


# -- request streams ---------------------------------------------------------

def _gnp(rng: random.Random, lo: int, hi: int, seed: int) -> Dict[str, Any]:
    n = rng.randint(lo, hi)
    return {"kind": "gnp", "n": n, "p": round(2.5 / n, 6), "seed": seed}


def miss_requests(seed: int, count: int, prefix: str = "m") -> List[Dict[str, Any]]:
    """The first ``count`` serve-miss requests of ``seed``'s stream.

    Every request is unique (its own graph seed and detection seed).
    Patterns and policies are stratified: each block of ten covers every
    (pattern, policy) pair once, in a seeded order, so the mix of work
    barely depends on the seed.
    """
    rng = random.Random(f"serve-miss/{seed}")
    combos = [(p, pol) for p in MISS_PATTERNS for pol in POLICIES]
    out: List[Dict[str, Any]] = []
    while len(out) < count:
        block = combos[:]
        rng.shuffle(block)
        for pattern, policy in block:
            k = len(out)
            req = {
                "id": f"{prefix}{k}",
                "pattern": pattern,
                "graph": _gnp(rng, 32, 64, seed * 1_000_003 + k),
                "seed": k,
                "policy": policy,
            }
            if pattern in MISS_ITERATIONS:
                req["iterations"] = MISS_ITERATIONS[pattern]
            out.append(req)
    return out[:count]


def dup_schedule(seed: int, cycles: int) -> List[Tuple[float, int, List[Dict[str, Any]]]]:
    """The serve-dup arrival schedule: ``(due_offset_s, connection, requests)``.

    Cycle ``c`` starts at ``c * DUP_CYCLE / DUP_RATE``.  Its fresh query
    arrives as one burst of ``DUP_BURST`` requests on one connection, the
    largest budget first, so the first line leads the coalescing group
    and the rest join it.  From ``DUP_QUIET_S`` after the burst,
    ``DUP_REPEATS`` evenly spaced requests repeat variants of earlier
    queries on the other connection, one at a time, late enough that each
    is a cache hit (the first cycles have no earlier query to repeat and
    send no repeats).
    """
    rng = random.Random(f"serve-dup/{seed}")
    cycle_s = DUP_CYCLE / DUP_RATE
    spacing = (cycle_s - DUP_QUIET_S) / DUP_REPEATS
    schedule = []
    variants: List[List[Dict[str, Any]]] = []
    rid = 0
    for c in range(cycles):
        query = {
            "pattern": "odd-c5",
            "graph": _gnp(rng, 12, 14, seed * 1_000_003 + c),
            "seed": c,
            "policy": POLICIES[c % 2],
        }
        budgets = [DUP_LEADER_BUDGET] + rng.sample(
            range(1, DUP_LEADER_BUDGET), DUP_BURST - 1
        )
        burst = []
        for b in budgets:
            burst.append({"id": f"d{rid}", **query, "iterations": b})
            rid += 1
        variants.append(burst)
        t0 = c * cycle_s
        schedule.append((t0, c % 2, burst))
        recent = variants[max(0, c - DUP_LOOKBACK[1]):max(0, c - DUP_LOOKBACK[0] + 1)]
        for j in range(DUP_REPEATS if recent else 0):
            src = rng.choice(rng.choice(recent))
            req = {**src, "id": f"d{rid}"}
            rid += 1
            schedule.append(
                (t0 + DUP_QUIET_S + j * spacing, (c + 1) % 2, [req])
            )
    return schedule


def dup_cycles_for(seconds: float) -> int:
    return max(1, int(seconds * DUP_RATE / DUP_CYCLE))


# -- the server subprocess ---------------------------------------------------

class ServerProc:
    """One ``repro serve`` subprocess: launch, banner, teardown check."""

    def __init__(self, run_dir: Path, tag: str, spans: Optional[Path] = None,
                 cache_size: int = 256) -> None:
        self.tag = tag
        self.err_path = run_dir / f"server-{tag}.err"
        serve_args = ["serve", "--port", "0", "--cache-size", str(cache_size)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launch.py"),
                   "--spans", str(spans), "--", *serve_args]
        self.t_launch = time.perf_counter()
        self._err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._err, env=program_env()
        )
        self.host, self.port = self._banner()

    def _banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + 60.0
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.kill()
                raise BenchFailure(f"server {self.tag} printed no banner")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = self.proc.stdout.read1(4096)
                if not chunk:
                    continue
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith("serving on "):
            self.kill()
            raise BenchFailure(f"unexpected server banner {line!r}")
        host, port = line[len("serving on "):].rsplit(":", 1)
        return host, int(port)

    def pids(self) -> List[int]:
        return process_tree(self.proc.pid)

    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """One blocking request on a fresh connection; its terminal row."""
        with socket.create_connection((self.host, self.port), timeout=60) as s:
            s.sendall(json.dumps(obj).encode() + b"\n")
            with s.makefile("rb") as fh:
                while True:
                    line = fh.readline()
                    if not line:
                        raise BenchFailure(f"server {self.tag} closed early")
                    row = json.loads(line)
                    if row.get("type") != "record":
                        return row

    def stop(self) -> None:
        """SIGTERM, then check the exit: code 0, no traceback."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure(f"server {self.tag} ignored SIGTERM") from None
        self.proc.stdout.close()
        self._err.close()
        err = self.err_path.read_text(errors="replace")
        if code != 0:
            raise BenchFailure(f"server {self.tag} exited {code}: {err[-2000:]}")
        if "Traceback" in err:
            raise BenchFailure(f"server {self.tag} logged a traceback: {err[-2000:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._err.close()


def launch_measured(run_dir: Path, cache_size: int) -> Tuple[ServerProc, List[float]]:
    """Launch the server ``SETUP_LAUNCHES`` times; keep the last one.

    Set-up time is from launching the server to its first answered
    warm-up request; the earlier launches are torn down and checked.
    """
    setups = []
    server = None
    for i in range(SETUP_LAUNCHES):
        server = ServerProc(run_dir, f"setup{i}", cache_size=cache_size)
        try:
            row = server.request(WARMUP_REQUEST)
            setups.append(time.perf_counter() - server.t_launch)
            if row.get("type") != "result":
                raise BenchFailure(f"warm-up request failed: {row}")
            if i + 1 < SETUP_LAUNCHES:
                server.stop()
        except BaseException:
            server.kill()
            raise
    assert server is not None
    return server, setups


def warm_up(server: ServerProc, seed: int) -> None:
    """One request of every (pattern, policy) pair, outside the window,
    on keys no measured request uses."""
    for req in miss_requests(seed + 7_777_777, 2 * len(MISS_PATTERNS) * len(POLICIES), "w"):
        row = server.request(req)
        if row.get("type") != "result":
            raise BenchFailure(f"warm-up request failed: {row}")


# -- the generator -------------------------------------------------------------

class Conn:
    """One client connection with a reader task routing rows by id."""

    def __init__(self) -> None:
        self.waiting: Dict[str, asyncio.Future] = {}
        self.rows: Dict[str, List[Dict[str, Any]]] = {}

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            t = time.perf_counter()
            row = json.loads(line)
            rid = row.get("id")
            if row.get("type") == "record":
                self.rows.setdefault(rid, []).append(row["row"])
                continue
            fut = self.waiting.pop(rid, None)
            if fut is not None and not fut.done():
                fut.set_result((t, row))
        for fut in self.waiting.values():
            if not fut.done():
                fut.set_exception(ConnectionError("server closed the connection"))

    def send(self, reqs: List[Dict[str, Any]]) -> List[asyncio.Future]:
        loop = asyncio.get_running_loop()
        futs = []
        for req in reqs:
            fut = loop.create_future()
            self.waiting[req["id"]] = fut
            futs.append(fut)
        self.writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in reqs))
        return futs

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await asyncio.wait_for(self.task, REQUEST_TIMEOUT_S)


class Outcome:
    """What the generator saw: per-request latency, terminal row, rows."""

    def __init__(self) -> None:
        self.sent: Dict[str, Dict[str, Any]] = {}
        self.latency_ms: Dict[str, float] = {}
        self.terminal: Dict[str, Dict[str, Any]] = {}
        self.rows: Dict[str, List[Dict[str, Any]]] = {}
        self.failed: Dict[str, str] = {}
        self.late_ms: List[float] = []
        self.late_by_rid: Dict[str, float] = {}
        self.t_start = 0.0
        self.t_end = 0.0

    def complete(self, req: Dict[str, Any], t_ref: float,
                 got: Tuple[float, Dict[str, Any]]) -> None:
        t, row = got
        rid = req["id"]
        self.terminal[rid] = row
        if row.get("type") != "result":
            self.failed[rid] = f"error row: {row}"
            return
        self.latency_ms[rid] = (t - t_ref) * 1000.0

    @property
    def attempted(self) -> int:
        return len(self.sent)


async def closed_loop(host: str, port: int, stream: List[Dict[str, Any]],
                      seconds: Optional[float]) -> Outcome:
    """Two connections, one request outstanding on each.

    With ``seconds`` the loop stops issuing once that long has passed
    (``stream`` must be long enough); without it, it sends all of
    ``stream``.
    """
    out = Outcome()
    conns = [Conn(), Conn()]
    for c in conns:
        await c.open(host, port)
    it = iter(stream)
    out.t_start = time.perf_counter()
    stop_at = None if seconds is None else out.t_start + seconds

    async def caller(conn: Conn) -> None:
        for req in it:
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            out.sent[req["id"]] = req
            t = time.perf_counter()
            try:
                got = await asyncio.wait_for(conn.send([req])[0],
                                             REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError) as exc:
                out.failed[req["id"]] = repr(exc)
                continue
            out.complete(req, t, got)
        if stop_at is not None:
            raise BenchFailure("serve-miss request stream ran out")

    await asyncio.gather(*(caller(c) for c in conns))
    out.t_end = time.perf_counter()
    for c in conns:
        out.rows.update(c.rows)
        await c.close()
    return out


async def open_loop(host: str, port: int,
                    schedule: List[Tuple[float, int, List[Dict[str, Any]]]]) -> Outcome:
    """Send each schedule entry at its due time, whatever is in flight.

    Latency runs from the due time, so a stall also charges the requests
    queued behind it; ``late_ms`` records how late each send was.
    """
    out = Outcome()
    conns = [Conn(), Conn()]
    for c in conns:
        await c.open(host, port)
    pending = []
    out.t_start = time.perf_counter() + 0.05
    for offset, ci, reqs in schedule:
        due = out.t_start + offset
        # The loop's timers wake up to a millisecond late: sleep until
        # just before the due time, then spin to it.
        delay = due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < due:
            pass
        late = max(0.0, time.perf_counter() - due) * 1000.0
        out.late_ms.append(late)
        for req in reqs:
            out.sent[req["id"]] = req
            out.late_by_rid[req["id"]] = late
        pending.extend(zip(reqs, [due] * len(reqs), conns[ci].send(reqs)))
    if pending:
        await asyncio.wait([f for _, _, f in pending], timeout=REQUEST_TIMEOUT_S)
    for req, due, fut in pending:
        if fut.done() and fut.exception() is None:
            out.complete(req, due, fut.result())
        else:
            out.failed[req["id"]] = "no answer" if not fut.done() else repr(fut.exception())
    out.t_end = max((fut.result()[0] for _, _, fut in pending
                     if fut.done() and fut.exception() is None),
                    default=time.perf_counter())
    for c in conns:
        out.rows.update(c.rows)
        await c.close()
    return out


# -- correctness ------------------------------------------------------------------

def _record_from_rows(rows: List[Dict[str, Any]]) -> Any:
    from repro.runtime import RunRecord, TraceEvent

    header, footer = rows[0], rows[-1]
    if header.get("type") != "header" or footer.get("type") != "footer":
        raise BenchFailure("response record is not header/events/footer")
    return RunRecord(
        policy=header["policy"],
        policy_hash=header["policy_hash"],
        git_sha=header["git_sha"],
        platform=header["platform"],
        started_unix=header["started_unix"],
        finished_unix=footer["finished_unix"],
        events=[TraceEvent.from_dict(r) for r in rows[1:-1]],
    )


def _answer(row: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in row.items() if k not in ("id", "cache")}


def check_sampled_records(out: Outcome, seed: int, failures: Dict[str, str]) -> Dict[str, int]:
    """Diff sampled responses of every source against direct execution."""
    from repro.runtime import ExecutionPolicy, diff_records
    from repro.serve.executor import execute_request
    from repro.serve.protocol import parse_request

    by_source: Dict[str, List[str]] = {}
    for rid in sorted(out.latency_ms, key=lambda r: int(r[1:])):
        by_source.setdefault(out.terminal[rid]["cache"], []).append(rid)
    rng = random.Random(f"sample/{seed}")
    picked: List[str] = []
    per = max(1, SAMPLED_DIFFS // max(1, len(by_source)))
    for src in sorted(by_source):
        ids = by_source[src]
        picked.extend(rng.sample(ids, min(per, len(ids))))
    base = ExecutionPolicy()
    for rid in picked:
        req = parse_request(out.sent[rid])
        direct = execute_request(req, req.policy(base=base))
        diff = diff_records(_record_from_rows(direct.rows),
                            _record_from_rows(out.rows.get(rid, [])))
        if not diff["identical"]:
            failures[rid] = f"record differs from a direct run: {diff}"
        want = {"label": direct.label, "pattern": req.pattern, **direct.payload}
        got = _answer(out.terminal[rid])
        got.pop("type", None)
        if got != want:
            failures[rid] = f"answer {got} differs from a direct run {want}"
    return {src: len(ids) for src, ids in by_source.items()}


def check_ground_truth(out: Outcome, failures: Dict[str, str]) -> int:
    """Exact detectors must match ``subgraph_iso``; cycle detectors may
    miss a cycle but must never report one that is not there."""
    from repro.graphs import generators
    from repro.graphs.subgraph_iso import contains_subgraph
    from repro.serve.protocol import build_graph, parse_request

    patterns = {
        "triangle": generators.clique(3), "k4": generators.clique(4),
        "c4": generators.cycle(4), "c6": generators.cycle(6),
        "odd-c5": generators.cycle(5),
    }
    checked = 0
    for rid, row in out.terminal.items():
        if rid not in out.latency_ms:
            continue
        req = out.sent[rid]
        exact = req["pattern"] in ("triangle", "k4")
        if not exact and not row["detected"]:
            continue
        graph = build_graph(parse_request(req).graph_spec)
        truth = contains_subgraph(patterns[req["pattern"]], graph)
        checked += 1
        if row["detected"] != truth:
            failures[rid] = (
                f"{req['pattern']} answered {row['detected']}, "
                f"subgraph_iso says {truth}"
            )
    return checked


def check_replays(out: Outcome, failures: Dict[str, str]) -> None:
    """Every response to the same query variant carries the same answer."""
    first: Dict[str, Dict[str, Any]] = {}
    for rid, row in out.terminal.items():
        if rid not in out.latency_ms:
            continue
        req = out.sent[rid]
        key = json.dumps({k: v for k, v in req.items() if k != "id"}, sort_keys=True)
        ans = _answer(row)
        if first.setdefault(key, ans) != ans:
            failures[rid] = f"answer {ans} differs from the first {first[key]}"


def server_stats(server: ServerProc) -> Dict[str, Any]:
    row = server.request({"id": "stats", "op": "stats"})
    if row.get("type") != "stats":
        raise BenchFailure(f"stats request failed: {row}")
    return row


# -- the workloads -------------------------------------------------------------------

def _drive(workload: str, server: ServerProc, seed: int,
           seconds: Optional[float]) -> Outcome:
    if workload == "serve-miss":
        if seconds is None:
            stream = miss_requests(seed, MISS_PASS_REQUESTS)
        else:
            # Far more than any window can use; generated lazily enough.
            stream = miss_requests(seed, int(seconds * 400) + 100)
        return asyncio.run(closed_loop(server.host, server.port, stream, seconds))
    cycles = DUP_PASS_CYCLES if seconds is None else dup_cycles_for(seconds)
    return asyncio.run(open_loop(server.host, server.port, dup_schedule(seed, cycles)))


def _check(workload: str, out: Outcome, seed: int, executed: int,
           report: Report) -> Dict[str, str]:
    """The correctness gate, run after the timed window."""
    failures = dict(out.failed)
    sources = check_sampled_records(out, seed, failures)
    report.note(f"responses by source: {sources}")
    if workload == "serve-miss":
        checked = check_ground_truth(out, failures)
        report.note(f"subgraph_iso ground truth checked on {checked} answers")
        if executed != len(out.sent):
            failures["executions"] = (
                f"{executed} executions for {len(out.sent)} unique requests"
            )
    else:
        check_replays(out, failures)
        fresh = len({json.dumps({k: v for k, v in r.items()
                                 if k not in ("id", "iterations")}, sort_keys=True)
                     for r in out.sent.values()})
        report.note(f"fresh queries {fresh}, executions {executed}")
        if executed != fresh:
            failures["executions"] = (
                f"{executed} executions for {fresh} fresh queries: "
                "each fresh query must execute exactly once"
            )
    return failures


def run_measured(workload: str, seed: int, seconds: int, run_dir: Path) -> Tuple[Report, int, int, bool]:
    """One untraced run: set-up, the timed window, checks, teardown."""
    report = Report()
    calib_before = calibrate()
    segs = shm_segments()
    cache_size = CACHE_SIZE[workload]
    server, setups = launch_measured(run_dir, cache_size)
    try:
        warm_up(server, seed)
        executed0 = server_stats(server)["server"]["executed"]
        pids = server.pids()
        cpu0, steal0 = cpu_seconds(pids), steal_ticks()
        out = _drive(workload, server, seed, float(seconds))
        cpu1, steal1 = cpu_seconds(server.pids()), steal_ticks()
        rss = peak_rss_mb(server.pids())
        stats = server_stats(server)
        executed = stats["server"]["executed"] - executed0
    except BaseException:
        server.kill()
        raise
    server.stop()
    failures = _check(workload, out, seed, executed, report)
    stray = wait_gone(pids)
    if stray:
        failures["stray-processes"] = f"server processes still running: {stray}"
    leaked = shm_segments() - segs
    if leaked:
        failures["shm-leak"] = f"shared-memory segments left behind: {sorted(leaked)}"
    lat = list(out.latency_ms.values())
    completed = len(lat)
    report.add("setup_s", median(setups), "s", f"median of {len(setups)} launches")
    report.add("throughput_per_s", completed / (out.t_end - out.t_start), "1/s",
               f"{completed} ops in {out.t_end - out.t_start:.2f} s")
    report.add("latency_p50_ms", percentile(lat, 50), "ms", f"n={completed}")
    value, q, beyond = tail(lat)
    report.add("latency_tail_ms", value, "ms",
               f"p{q:.1f} of n={completed}, {beyond} beyond")
    report.add("cpu_ms_per_op", 1000.0 * (cpu1 - cpu0) / completed, "ms",
               f"server CPU over {completed} ops")
    report.add("peak_rss_mb", rss, "MB", f"VmHWM of {len(pids)} process(es)")
    attempted = out.attempted
    failed = len([k for k in failures if k in out.sent])
    correct = not failures
    report.add("ok_frac", (attempted - failed) / attempted, "ratio",
               f"{attempted - failed} of {attempted} attempted")
    report.note(steal_note(steal0, steal1))
    report.note(f"host.calib_ms before {calib_before:.2f}, after {calibrate():.2f}")
    if out.late_ms:
        report.note(f"loadgen.late_ms_p99 {percentile(out.late_ms, 99):.3f} "
                    f"over {len(out.late_ms)} sends")
    report.note(f"server: executed {stats['server']['executed']}, hits "
                f"{stats['server']['cache_hits']}, coalesced "
                f"{stats['server']['coalesced']}, rejected {stats['server']['rejected']}")
    for key, msg in sorted(failures.items())[:20]:
        report.note(f"FAILED {key}: {msg}")
    return report, attempted, failed, correct


def run_traced(workload: str, seed: int, run_dir: Path) -> Tuple[Report, int, int, bool]:
    """The traced run: a fixed pass on a plain server, then the same pass
    on a server whose layers are wrapped, and the per-layer analysis."""
    import tracing

    report = Report()
    calib_before = calibrate()
    cache_size = CACHE_SIZE[workload]
    failures: Dict[str, str] = {}
    passes = {}
    for traced in (False, True):
        spans = run_dir / "spans-server.jsonl" if traced else None
        server = ServerProc(run_dir, "traced" if traced else "plain",
                            spans=spans, cache_size=cache_size)
        try:
            server.request(WARMUP_REQUEST)
            warm_up(server, seed)
            out = _drive(workload, server, seed, None)
        except BaseException:
            server.kill()
            raise
        server.stop()
        passes[traced] = out
        failures.update({f"{traced}:{k}": v for k, v in out.failed.items()})
    plain, out = passes[False], passes[True]
    spans = tracing.load_spans(run_dir / "spans-server.jsonl")
    metrics, counts, text = tracing.analyze_serve(spans, out, plain)
    for line in text:
        report.note(line)
    for name, (value, unit, base) in metrics.items():
        report.add(name, value, unit, base)
    report.add("host.calib_ms", (calib_before + calibrate()) / 2, "ms",
               "diagnostic only")
    late = out.late_ms or [0.0]
    report.add("loadgen.late_ms_p99", percentile(late, 99), "ms",
               f"diagnostic only, n={len(out.late_ms)}")
    # The wrapped server must answer exactly as the plain one does.
    failures.update(_check(workload, out, seed, counts["executor.executions"], report))
    mismatch = check_exact_counts(workload, seed, counts)
    if mismatch:
        failures["exact-counts"] = mismatch
    for key, msg in sorted(failures.items())[:20]:
        report.note(f"FAILED {key}: {msg}")
    attempted = plain.attempted + out.attempted
    failed = len(failures)
    return report, attempted, failed, not failures

"""Outside-in layer tracing: spans recorded around calls into each layer.

The program's source is unchanged.  :func:`install_serve_wrappers` and
:func:`install_batch_wrappers` replace layer entry points with timing
wrappers *where the caller looks the name up* (for example
``repro.serve.server.execute_request``, or a method on its class), so
every call the program makes goes through a wrapper.

A span is ``(name, start, end, span id, parent id, request, extra)``.
The parent is the span that was current when the call began: a context
variable follows asyncio tasks, and the engine's submit wrapper hands it
to the engine thread explicitly.  Spans stay in memory and are written
out at exit; forked pool workers append theirs to one file per worker
after each chunk, because a pool worker never runs exit handlers.

A layer is the part of a span name before the first dot.  A span's self
time is its duration minus the part of it that child spans cover, so
the self times of a request's spans add up to the request's duration.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from common import benchmark_spec, median, tail

_now = time.perf_counter


class _Req:
    """Per-request state shared by every span of one request."""

    __slots__ = ("rid", "t_join", "t_queue")

    def __init__(self, rid: Optional[str] = None) -> None:
        self.rid = rid
        self.t_join: Optional[float] = None
        self.t_queue: Optional[float] = None


class _Ctx:
    __slots__ = ("sid", "req")

    def __init__(self, sid: int, req: Optional[_Req]) -> None:
        self.sid = sid
        self.req = req


_CURRENT: "contextvars.ContextVar[Optional[_Ctx]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory span store plus the wrapper factories."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    # -- recording ---------------------------------------------------------
    def _open(self, req: Optional[_Req] = None) -> Tuple[Optional[_Ctx], _Ctx]:
        parent = _CURRENT.get()
        if req is None and parent is not None:
            req = parent.req
        return parent, _Ctx(next(self._ids), req)

    def _close(self, name: str, t0: float, t1: float, parent: Optional[_Ctx],
               ctx: _Ctx, extra: Any) -> None:
        self.spans.append((name, t0, t1, ctx.sid,
                           parent.sid if parent is not None else None,
                           ctx.req, extra))

    def add(self, name: str, t0: float, t1: float, extra: Any = None) -> None:
        """A span measured by hand, child of the current span."""
        parent, ctx = self._open()
        self._close(name, t0, t1, parent, ctx, extra)

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        parent, ctx = self._open(_Req(rid) if rid is not None else None)
        token = _CURRENT.set(ctx)
        t0 = _now()
        try:
            yield ctx
        finally:
            t1 = _now()
            _CURRENT.reset(token)
            self._close(name, t0, t1, parent, ctx, None)

    # -- wrapper factories ---------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             extra: Optional[Callable[..., Any]] = None,
             before: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``extra(args, kwargs, result)`` returns what the span records
        beside its times; ``before(t0)`` runs first, while the caller's
        span is still current, to close an interval another call opened.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            if before is not None:
                before(t0)
            parent, ctx = self._open()
            token = _CURRENT.set(ctx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                _CURRENT.reset(token)
                self._close(name, t0, t1, parent, ctx,
                            extra(args, kwargs, result) if extra else None)

        setattr(owner, attr, wrapper)

    def wrap_async(self, owner: Any, attr: str, name: str, root: bool = False) -> None:
        """Replace the coroutine method ``owner.attr``; ``root`` starts a
        new request."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent, ctx = self._open(_Req() if root else None)
            if root:
                parent = None
            token = _CURRENT.set(ctx)
            t0 = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _now()
                _CURRENT.reset(token)
                self._close(name, t0, t1, parent, ctx, None)

        setattr(owner, attr, wrapper)

    def wrap_submit(self, engine_cls: Any) -> None:
        """``ExecutionEngine.submit``: an ``engine.queue`` span from submit
        to start, then an ``engine.run`` span on the engine thread."""
        fn = engine_cls.submit
        tracer = self

        @functools.wraps(fn)
        def submit(self_: Any, call: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            req = parent.req if parent is not None else None
            t_sub = _now()

            def run() -> Any:
                t0 = _now()
                queue = _Ctx(next(tracer._ids), req)
                tracer._close("engine.queue", t_sub, t0, parent, queue, None)
                ctx = _Ctx(next(tracer._ids), req)
                token = _CURRENT.set(ctx)
                try:
                    return call(*args, **kwargs)
                finally:
                    t1 = _now()
                    _CURRENT.reset(token)
                    tracer._close("engine.run", t0, t1, parent, ctx, None)

            return fn(self_, run)

        engine_cls.submit = submit

    def wrap_worker_chunk(self, parallel: Any, spans_dir: Path) -> None:
        """``_run_chunk``: in a forked pool worker, write this chunk's
        spans to the worker's own file before returning."""
        fn = parallel._run_chunk

        @functools.wraps(fn)
        def run_chunk(spec: Dict[str, Any]) -> Any:
            worker = os.getpid() != self.pid
            if worker:
                # Fresh in this process: drop the spans inherited at fork.
                self.spans = []
                _CURRENT.set(None)
            parent, ctx = self._open()
            token = _CURRENT.set(ctx)
            t0 = _now()
            try:
                return fn(spec)
            finally:
                t1 = _now()
                _CURRENT.reset(token)
                self._close("parallel.chunk", t0, t1, parent, ctx,
                            {"seeds": spec["stop"] - spec["start"],
                             "worker": worker})
                if worker:
                    path = spans_dir / f"spans-worker-{os.getpid()}.jsonl"
                    with open(path, "a") as fh:
                        fh.write(_encode(self.spans))
                    self.spans = []

        parallel._run_chunk = run_chunk

    # -- output ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.write_text(_encode(self.spans))


def _encode(spans: Iterable[Tuple[Any, ...]]) -> str:
    out = []
    for name, t0, t1, sid, parent, req, extra in spans:
        out.append(json.dumps([name, t0, t1, sid, parent,
                               req.rid if req is not None else None, extra]))
    return "".join(line + "\n" for line in out)


# -- installation -------------------------------------------------------------------

def _common_wrappers(tracer: Tracer) -> None:
    """The runtime and congest layers both modes share."""
    from repro.congest import network, parallel, shm, vectorized
    from repro.congest.vectorized import VectorizedAlgorithm
    from repro.runtime import engine, session

    tracer.wrap(session.RunSession, "amplify", "session.amplify")
    tracer.wrap(session.RunSession, "run", "session.run")
    tracer.wrap(engine, "run_amplified", "parallel.amplify")
    tracer.wrap(parallel, "_resilient_chunks", "parallel.gather",
                extra=lambda a, k, r: {"chunks": len(a[1])})
    tracer.wrap(shm, "export_network", "shm.export")
    tracer.wrap(vectorized, "execute_vectorized", "vectorized.run",
                extra=lambda a, k, r: {"rounds": r.rounds if r else 0})

    # The object lane only: vectorized algorithms pass straight through
    # to the execute_vectorized wrapper.
    run = network.CongestNetwork.run

    def _extra(result: Any) -> Dict[str, int]:
        m = result.metrics
        return {"rounds": result.rounds, "messages": m.total_messages,
                "bits": m.total_bits}

    def net_run(self_: Any, algorithm: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(algorithm, VectorizedAlgorithm):
            return run(self_, algorithm, *args, **kwargs)
        parent, ctx = tracer._open()
        token = _CURRENT.set(ctx)
        t0 = _now()
        result = None
        try:
            result = run(self_, algorithm, *args, **kwargs)
            return result
        finally:
            t1 = _now()
            _CURRENT.reset(token)
            tracer._close("network.run", t0, t1, parent, ctx,
                          _extra(result) if result is not None else None)

    network.CongestNetwork.run = functools.wraps(run)(net_run)


def install_serve_wrappers() -> Tracer:
    """Wrap every serving layer; call before the server is built."""
    from repro.serve import admission, cache, coalesce, executor, server
    from repro.runtime import engine

    tracer = Tracer()
    _common_wrappers(tracer)
    srv = server.DetectionServer
    tracer.wrap_async(srv, "_handle_line", "request", root=True)
    tracer.wrap_async(srv, "_respond", "server.respond")

    def parsed(args: Tuple[Any, ...], kwargs: Any, result: Any) -> None:
        ctx = _CURRENT.get()
        if ctx is not None and ctx.req is not None and result is not None:
            ctx.req.rid = result.req_id

    tracer.wrap(server, "parse_request", "protocol.parse", extra=parsed)
    tracer.wrap(server, "cache_key", "protocol.key")
    tracer.wrap(server, "group_key", "protocol.key")
    tracer.wrap(cache.ResultCache, "get", "cache.get",
                extra=lambda a, k, r: {"hit": r is not None})

    put = cache.ResultCache.put

    def cache_put(self_: Any, key: Any, value: Any) -> None:
        before = self_.evictions
        t0 = _now()
        put(self_, key, value)
        tracer.add("cache.put", t0, _now(),
                   {"evicted": self_.evictions - before})

    cache.ResultCache.put = cache_put

    def joined(args: Tuple[Any, ...], kwargs: Any, result: Any) -> Dict[str, bool]:
        ctx = _CURRENT.get()
        if result is not None and ctx is not None and ctx.req is not None:
            ctx.req.t_join = _now()
        return {"follower": result is not None}

    tracer.wrap(coalesce.BatchCoalescer, "join", "coalesce.join", extra=joined)

    def follower_wait(t0: float) -> None:
        ctx = _CURRENT.get()
        req = ctx.req if ctx is not None else None
        if req is not None and req.t_join is not None:
            tracer.add("coalesce.wait", req.t_join, t0)
            req.t_join = None

    tracer.wrap(server, "derive_follower", "coalesce.derive", before=follower_wait)

    def admitted(args: Tuple[Any, ...], kwargs: Any, result: Any) -> Dict[str, str]:
        ctx = _CURRENT.get()
        if result == "queue" and ctx is not None and ctx.req is not None:
            ctx.req.t_queue = _now()
        return {"decision": result}

    tracer.wrap(admission.AdmissionController, "admit", "admission.admit",
                extra=admitted)

    def queue_wait(t0: float) -> None:
        ctx = _CURRENT.get()
        req = ctx.req if ctx is not None else None
        if req is not None and req.t_queue is not None:
            tracer.add("admission.wait", req.t_queue, t0)
            req.t_queue = None

    tracer.wrap(admission.AdmissionController, "start_queued",
                "admission.start", before=queue_wait)
    tracer.wrap_submit(engine.ExecutionEngine)
    tracer.wrap(server, "execute_request", "executor.execute")
    tracer.wrap(executor, "build_graph", "graphs.build")
    tracer.wrap(executor, "_record_rows", "record.rows",
                extra=lambda a, k, r: {"rows": len(r) if r else 0})
    return tracer


def install_batch_wrappers(spans_dir: Path) -> Tracer:
    """Wrap the detect path's layers; call before the pool forks."""
    from repro.congest import parallel
    from repro.graphs import generators

    tracer = Tracer()
    _common_wrappers(tracer)
    tracer.wrap(generators, "grid", "graphs.build")
    tracer.wrap_worker_chunk(parallel, spans_dir)
    return tracer


# -- analysis -------------------------------------------------------------------------

class Span:
    __slots__ = ("name", "t0", "t1", "sid", "parent", "rid", "extra",
                 "children", "self_s")

    def __init__(self, row: List[Any], source: str) -> None:
        (self.name, self.t0, self.t1, sid, parent, self.rid, self.extra) = row
        # Span ids are unique within one process (one file) only.
        self.sid = (source, sid)
        self.parent = None if parent is None else (source, parent)
        self.children: List["Span"] = []
        self.self_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load_spans(path: Path) -> List[Span]:
    return [Span(json.loads(line), path.name)
            for line in path.read_text().splitlines()]


def _covered(lo: float, hi: float, spans: List[Span]) -> float:
    """Length of [lo, hi] covered by the union of ``spans``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s in sorted(spans, key=lambda s: s.t0):
        a, b = max(lo, s.t0), min(hi, s.t1)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _link(spans: List[Span]) -> None:
    """Attach children to parents and compute self times."""
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            by_id[s.parent].children.append(s)
    for s in spans:
        s.self_s = s.dur - _covered(s.t0, s.t1, s.children)


def _med(values: List[float], scale: float = 1.0) -> float:
    """The median times ``scale``; 0 for a layer that never ran."""
    return median(values) * scale if values else 0.0


#: Layers in report order.  ``op`` is a batch op's own residual,
#: ``loadgen`` how late the open-loop generator sent a request, and
#: ``transport`` the rest of the client's latency outside the server's
#: request span (socket, reading the line, the client's own parsing).
LAYERS = ("server", "protocol", "cache", "coalesce", "admission", "engine",
          "executor", "graphs", "session", "record", "network", "vectorized",
          "parallel", "shm", "op", "loadgen", "transport")

Metrics = Dict[str, Tuple[float, str, str]]


def _breakdown(span: Span, weight: float, is_root: bool, root_layer: str,
               totals: Dict[str, float]) -> None:
    """Attribute ``weight`` of ``span``'s duration to layers.

    Time covered by no child is the span's own; time covered by k
    children at once (pool workers running side by side) is split k
    ways.  The parts add up to the span's duration exactly.
    """
    kids = [c for c in span.children if c.t1 > span.t0 and c.t0 < span.t1]
    edges = sorted({span.t0, span.t1}
                   | {min(max(t, span.t0), span.t1)
                      for c in kids for t in (c.t0, c.t1)})
    own = 0.0
    got: Dict[int, float] = {}
    for a, b in zip(edges, edges[1:]):
        cover = [i for i, c in enumerate(kids) if c.t0 <= a and c.t1 >= b]
        if not cover:
            own += b - a
        for i in cover:
            got[i] = got.get(i, 0.0) + (b - a) / len(cover)
    layer = root_layer if is_root else span.layer
    totals[layer] = totals.get(layer, 0.0) + own * weight * 1e3
    for i, t in got.items():
        kid = kids[i]
        if kid.dur > 0:
            _breakdown(kid, weight * t / kid.dur, False, root_layer, totals)


def _shares(roots: List[Span], latency_ms: Dict[str, float],
            late_ms: Dict[str, float], root_layer: str,
            metrics: Metrics, text: List[str]) -> None:
    """Split the latency of the requests around the median by layer.

    The band is the requests ranked 40th to 60th percentile by client
    latency; each layer's share is its time over the band's total
    latency, so the shares sum to one.
    """
    ranked = sorted((latency_ms[r.rid], r.rid, r) for r in roots
                    if r.rid in latency_ms)
    lo = int(0.4 * len(ranked))
    band = ranked[lo:max(int(0.6 * len(ranked)), lo + 1)]
    totals = {layer: 0.0 for layer in LAYERS}
    lat_total = 0.0
    for lat, rid, root in band:
        lat_total += lat
        _breakdown(root, 1.0, True, root_layer, totals)
        late = late_ms.get(rid, 0.0)
        totals["loadgen"] += late
        totals["transport"] += lat - late - root.dur * 1e3
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (
            totals[layer] / lat_total if lat_total else 0.0, "ratio",
            f"time over the latency of {len(band)} requests around the median",
        )
    top = max(LAYERS, key=lambda layer: totals[layer])
    n = max(1, len(band))
    text.append(
        f"median band: {len(band)} ops, mean latency {lat_total / n:.3f} ms; "
        f"layer times, residual and transport account for "
        f"{sum(totals.values()) / n:.3f} ms; largest share: {top} "
        f"({totals[top] / lat_total if lat_total else 0.0:.1%})"
    )


def _zero_metrics(metrics: Metrics, names: Iterable[str], why: str) -> None:
    """Metrics of layers the workload never runs: 0, saying why."""
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    for name in names:
        metrics.setdefault(name, (0, units[name], why))


def _layer_metrics(spans: List[Span], ops: int, metrics: Metrics,
                   counts: Dict[str, int]) -> None:
    """The metrics both modes compute the same way."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durs(name: str) -> List[float]:
        return [s.dur for s in by_name.get(name, [])]

    def ext(name: str, key: str) -> int:
        return sum(int((s.extra or {}).get(key, 0)) for s in by_name.get(name, []))

    base = f"over {ops} ops"
    execs = by_name.get("executor.execute", [])
    counts["executor.executions"] = len(execs)
    metrics["executor.executions"] = (len(execs), "count", base)
    metrics["executor.busy_ms_p50"] = (_med(durs("executor.execute"), 1e3), "ms",
                                       f"n={len(execs)}")
    metrics["executor.self_ms_per_op"] = (
        sum(s.self_s for s in execs) * 1e3 / ops, "ms", base)
    metrics["graphs.build_ms_per_op"] = (sum(durs("graphs.build")) * 1e3 / ops,
                                         "ms", base)
    metrics["session.amplify_ms_per_op"] = (
        sum(durs("session.amplify")) * 1e3 / ops, "ms", base)
    rows = ext("record.rows", "rows")
    counts["record.rows"] = rows
    metrics["record.rows"] = (rows, "count", base)
    metrics["record.encode_us_per_row"] = (
        sum(durs("record.rows")) * 1e6 / rows if rows else 0.0, "us",
        f"over {rows} rows")
    nets = by_name.get("network.run", [])
    for key in ("rounds", "messages", "bits"):
        counts[f"network.{key}"] = ext("network.run", key)
        metrics[f"network.{key}"] = (counts[f"network.{key}"], "count", base)
    counts["network.runs"] = len(nets)
    metrics["network.runs"] = (len(nets), "count", base)
    metrics["network.run_ms_per_call"] = (
        sum(durs("network.run")) * 1e3 / len(nets) if nets else 0.0, "ms",
        f"over {len(nets)} calls")
    vecs = by_name.get("vectorized.run", [])
    vrounds = ext("vectorized.run", "rounds")
    counts["vectorized.runs"] = len(vecs)
    counts["vectorized.rounds"] = vrounds
    metrics["vectorized.runs"] = (len(vecs), "count", base)
    metrics["vectorized.rounds"] = (vrounds, "count", base)
    metrics["vectorized.us_per_round"] = (
        sum(durs("vectorized.run")) * 1e6 / vrounds if vrounds else 0.0, "us",
        f"over {vrounds} rounds")
    counts["parallel.chunks"] = ext("parallel.gather", "chunks")
    metrics["parallel.chunks"] = (counts["parallel.chunks"], "count", base)
    exports = by_name.get("shm.export", [])
    metrics["shm.exports"] = (len(exports), "count", base)
    metrics["shm.export_ms"] = (sum(durs("shm.export")) * 1e3, "ms",
                                f"total over {len(exports)} exports")


def analyze_serve(spans: List[Span], traced: Any, plain: Any) -> Tuple[Metrics, Dict[str, int], List[str]]:
    """Per-layer metrics of a traced serve pass (see ``NOTES.md``)."""
    _link(spans)
    measured = set(traced.latency_ms)
    roots = [s for s in spans if s.name == "request" and s.rid in measured]
    mine = [s for s in spans if s.rid in measured]
    ops = len(roots)
    metrics: Metrics = {}
    counts: Dict[str, int] = {}
    text: List[str] = []
    by_name: Dict[str, List[Span]] = {}
    for s in mine:
        by_name.setdefault(s.name, []).append(s)

    def durs(name: str) -> List[float]:
        return [s.dur for s in by_name.get(name, [])]

    metrics["server.residual_ms_p50"] = (_med([r.self_s for r in roots], 1e3),
                                         "ms", f"n={ops}")
    metrics["server.respond_us"] = (_med(durs("server.respond"), 1e6), "us",
                                    f"median, n={len(durs('server.respond'))}")
    metrics["protocol.parse_us"] = (_med(durs("protocol.parse"), 1e6), "us",
                                    f"median, n={len(durs('protocol.parse'))}")
    gets = by_name.get("cache.get", [])
    hits = sum(1 for s in gets if s.extra and s.extra.get("hit"))
    metrics["cache.get_us"] = (_med(durs("cache.get"), 1e6), "us",
                               f"median, n={len(gets)}")
    metrics["cache.put_us"] = (_med(durs("cache.put"), 1e6), "us",
                               f"median, n={len(durs('cache.put'))}")
    metrics["cache.hit_ratio"] = (hits / len(gets) if gets else 0.0, "ratio",
                                  f"{hits} hits of {len(gets)} gets")
    metrics["cache.evictions"] = (
        sum(int((s.extra or {}).get("evicted", 0)) for s in by_name.get("cache.put", [])),
        "count", f"over {ops} ops")
    joins = by_name.get("coalesce.join", [])
    followers = sum(1 for s in joins if s.extra and s.extra.get("follower"))
    metrics["coalesce.follower_ratio"] = (
        followers / len(joins) if joins else 0.0, "ratio",
        f"{followers} followers of {len(joins)} requests reaching the coalescer")
    metrics["coalesce.follower_wait_ms_p50"] = (
        _med(durs("coalesce.wait"), 1e3), "ms", f"n={len(durs('coalesce.wait'))}")
    metrics["coalesce.derive_us"] = (_med(durs("coalesce.derive"), 1e6), "us",
                                     f"median, n={len(durs('coalesce.derive'))}")
    decisions = [(s.extra or {}).get("decision") for s in by_name.get("admission.admit", [])]
    metrics["admission.queued"] = (decisions.count("queue"), "count",
                                   f"of {len(decisions)} admission decisions")
    metrics["admission.rejected"] = (decisions.count("reject"), "count",
                                     f"of {len(decisions)} admission decisions")
    metrics["admission.queue_wait_ms_p50"] = (
        _med(durs("admission.wait"), 1e3), "ms", f"n={len(durs('admission.wait'))}")
    runs = by_name.get("engine.run", [])
    metrics["engine.queue_wait_ms_p50"] = (_med(durs("engine.queue"), 1e3), "ms",
                                           f"n={len(durs('engine.queue'))}")
    metrics["engine.busy_ms_per_op"] = (sum(durs("engine.run")) * 1e3 / ops, "ms",
                                        f"over {ops} ops")
    if runs:
        lo, hi = min(s.t0 for s in runs), max(s.t1 for s in runs)
        union = _covered(lo, hi, runs)
        metrics["engine.overlap"] = (sum(durs("engine.run")) / union, "ratio",
                                     f"busy time over {union:.3f} s with >= 1 running")
    _layer_metrics(mine, ops, metrics, counts)
    _shares(roots, traced.latency_ms, traced.late_by_rid, "server", metrics, text)
    traced_p50 = _med(list(traced.latency_ms.values()))
    plain_p50 = _med(list(plain.latency_ms.values()))
    metrics["trace.latency_ms_p50"] = (traced_p50, "ms",
                                       f"traced pass, n={len(traced.latency_ms)}")
    metrics["trace.overhead_frac"] = (
        traced_p50 / plain_p50 - 1.0, "ratio",
        f"traced p50 {traced_p50:.3f} ms over untraced {plain_p50:.3f} ms")
    value, q, beyond = tail(list(traced.latency_ms.values()))
    metrics["trace.latency_tail_ms"] = (
        value, "ms", f"traced pass p{q:.1f}, {beyond} beyond")
    plain_lat = list(plain.latency_ms.values())
    wall = plain.t_end - plain.t_start
    metrics["wall.throughput_per_s"] = (len(plain_lat) / wall, "1/s",
                                        f"untraced pass, {len(plain_lat)} ops in {wall:.2f} s")
    metrics["wall.latency_p50_ms"] = (plain_p50, "ms", f"untraced pass, n={len(plain_lat)}")
    value, q, beyond = tail(plain_lat)
    metrics["wall.latency_tail_ms"] = (value, "ms", f"untraced pass p{q:.1f}, {beyond} beyond")
    _zero_metrics(metrics, ["engine.overlap", "kernels.phase_share.step",
                            "kernels.phase_share.mask", "kernels.phase_share.bill",
                            "kernels.phase_share.permute",
                            "kernels.phase_share.deliver",
                            "parallel.worker_busy_frac",
                            "parallel.speedup_vs_jobs1"],
                  "not exercised: the serve path takes the jobs=1 object lane")
    text.append("exact counts: " + json.dumps(counts, sort_keys=True))
    return metrics, counts, text


def analyze_batch(spans: List[Span], traced: Dict[str, Any], plain: Dict[str, Any],
                  jobs: int) -> Tuple[Metrics, Dict[str, int], List[str]]:
    """Per-layer metrics of the traced batch pass (see ``NOTES.md``)."""
    _link(spans)
    roots = [s for s in spans if s.name == "op"]
    ops = len(roots)
    metrics: Metrics = {}
    counts: Dict[str, int] = {}
    text: List[str] = []
    _layer_metrics(spans, ops, metrics, counts)
    # The grid is built once per process, before the ops: per op, it is
    # that one build over the pass's ops.
    metrics["graphs.build_ms_per_op"] = (
        sum(s.dur for s in spans if s.name == "graphs.build") * 1e3 / ops, "ms",
        f"one build over {ops} ops")
    chunks = [s for s in spans if s.name == "parallel.chunk" and s.extra["worker"]]
    amp_wall = sum(s.dur for s in spans if s.name == "parallel.amplify")
    metrics["parallel.worker_busy_frac"] = (
        sum(s.dur for s in chunks) / (jobs * amp_wall) if amp_wall else 0.0, "ratio",
        f"worker chunk time over jobs={jobs} x {amp_wall:.3f} s amplify wall")
    plain_p50 = _med(plain["latency_ms"])
    metrics["parallel.speedup_vs_jobs1"] = (
        plain["jobs1_ms"] / plain_p50, "ratio",
        f"one jobs=1 op {plain['jobs1_ms']:.1f} ms over jobs=2 p50 {plain_p50:.1f} ms")
    prof = plain["profile"]
    total = sum(prof.values())
    for phase, secs in prof.items():
        metrics[f"kernels.phase_share.{phase}"] = (
            secs / total, "ratio", f"KernelProfile of one serial seed, {total * 1e3:.1f} ms")
    # Pool workers run a gather's chunks: they are its children in time.
    gathers = [s for s in spans if s.name == "parallel.gather"]
    for chunk in chunks:
        mid = (chunk.t0 + chunk.t1) / 2
        for g in gathers:
            if g.t0 <= mid <= g.t1:
                g.children.append(chunk)
                break
    # The op span is the whole op: nothing lies outside it.
    _shares(roots, {r.rid: r.dur * 1e3 for r in roots}, {}, "op", metrics, text)
    traced_p50 = _med(traced["latency_ms"])
    metrics["trace.latency_ms_p50"] = (traced_p50, "ms",
                                       f"traced pass, n={len(traced['latency_ms'])}")
    metrics["trace.overhead_frac"] = (
        traced_p50 / plain_p50 - 1.0, "ratio",
        f"traced p50 {traced_p50:.1f} ms over untraced {plain_p50:.1f} ms")
    metrics["trace.latency_tail_ms"] = (
        max(traced["latency_ms"]), "ms",
        f"the slowest of {len(traced['latency_ms'])} traced ops: too few for a percentile tail")
    plain_lat = plain["latency_ms"]
    metrics["wall.throughput_per_s"] = (1000.0 * len(plain_lat) / sum(plain_lat), "1/s",
                                        f"untraced pass, {len(plain_lat)} ops back to back")
    metrics["wall.latency_p50_ms"] = (plain_p50, "ms", f"untraced pass, n={len(plain_lat)}")
    metrics["wall.latency_tail_ms"] = (
        max(plain_lat), "ms",
        f"the slowest of {len(plain_lat)} untraced ops: too few for a percentile tail")
    _zero_metrics(metrics, [
        "server.residual_ms_p50", "server.respond_us", "protocol.parse_us",
        "cache.get_us", "cache.put_us", "cache.hit_ratio", "cache.evictions",
        "coalesce.follower_ratio", "coalesce.follower_wait_ms_p50",
        "coalesce.derive_us", "admission.queued", "admission.queue_wait_ms_p50",
        "admission.rejected", "engine.queue_wait_ms_p50", "engine.busy_ms_per_op",
        "engine.overlap"], "not exercised: batch-vec runs no serve layer")
    text.append("exact counts: " + json.dumps(counts, sort_keys=True))
    return metrics, counts, text

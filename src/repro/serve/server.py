"""The asyncio detection server: JSONL over TCP, stdlib only.

One connection carries any number of pipelined requests (one JSON object
per line); each request is answered with zero or more ``record`` lines
(the run's :class:`~repro.runtime.record.RunRecord` as JSONL rows) and
exactly one terminal line -- ``result``, ``stats``, or ``error`` -- all
echoing the request ``id``.  Requests on one connection execute
concurrently; response *lines* of one request are never interleaved with
another's mid-write (a per-connection write lock covers each full
response).

Request lifecycle (the layer ordering is the design):

1. **parse** (:mod:`.protocol`) -- malformed input answers ``error``.
2. **result cache** (:mod:`.cache`) -- a hit replays the recorded
   response; no admission needed, cached work adds no load.  With a
   journal attached the cache survives restarts (see below).
3. **coalesce** (:mod:`.coalesce`) -- a compatible pending group absorbs
   the request as a follower; it awaits the leader, then derives its
   bit-identical result (:func:`.executor.derive_follower`).  Followers
   bypass admission too: they add no engine work.
4. **admission** (:mod:`.admission`) -- leaders only.  ``admit`` runs
   now; ``queue`` waits (FIFO) for a released slot; ``reject`` answers
   ``error`` with code ``overload`` carrying the queue depth, governor
   estimate, and a deterministic ``retry_after_hint``.
5. **execute** -- the leader's work runs on the shared
   :class:`~repro.runtime.engine.ExecutionEngine` via submit/await
   (``asyncio.wrap_future``), off the event loop, guarded by a
   :class:`~repro.serve.chaos.CircuitBreaker` and retried with capped
   exponential backoff on pool breaks.
6. **respond + fill** -- result cached (journalled), group resolved,
   waiters woken.

**Recovery semantics** (what each failure class means to a client):

===================  ==================================================
failure              behavior
===================  ==================================================
deadline exceeded    deterministic terminal ``deadline-exceeded`` error
                     row -- a deadlined request can never hang
leader death         followers re-elect: the next one back leads a
                     fresh group; the re-run batch is bit-identical
                     (pure stopping rule over the same seed sequence)
pool break / worker  leader retries with capped exponential backoff;
death                consecutive breaks open the circuit breaker, which
                     fails submissions fast until its backoff elapses
overload / shutdown  surfaced error rows with ``retry_after_hint`` so
                     clients back off deterministically
process kill         the journalled cache restores at the next start;
                     shm segments die with the resource tracker
===================  ==================================================

Shutdown is signal-safe: ``SIGTERM``/``SIGINT`` stop accepting, drain
queued waiters with ``shutdown`` error rows (retry-after hints
included), and release the engine pools + shared-memory segments
(idempotent ``shutdown_pools``), so a killed server leaks nothing --
``tests/serve/test_shutdown_safety.py`` pins that, and
``tests/serve/test_chaos.py`` pins the kill->restart->replay matrix.

Deterministic infrastructure chaos (:mod:`.chaos`) threads through the
same path: ``DetectionServer(chaos=...)`` severs connections, stalls
requests, kills engine submissions, and tears the cache journal on a
replayable SplitMix64 schedule keyed by the request sequence number.

All mutable serving state lives on :class:`DetectionServer` (deep-lint
rule L8 rejects module-level mutable state in this package).
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Union

from ..graphs.cache import cache_stats
from ..runtime.engine import (
    POOL_BREAK_EXCEPTIONS,
    ExecutionEngine,
    default_engine,
)
from ..runtime.governor import GovernorStateStore, PeakHoldGovernor
from ..runtime.policy import ExecutionPolicy, PolicyError
from .admission import AdmissionController
from .cache import CacheJournal, ResultCache
from .chaos import (
    CircuitBreaker,
    CircuitOpenError,
    InfraFaultInjector,
    InfraFaultPlan,
    InjectedWorkerDeath,
    chaos_execute,
)
from .coalesce import BatchCoalescer, LeaderDied
from .executor import (
    RecordStamp,
    ServeResult,
    decode_result,
    derive_follower,
    encode_result,
    execute_request,
)
from .protocol import DetectRequest, ProtocolError, cache_key, group_key, parse_request

__all__ = [
    "DeadlineExceeded",
    "DetectionServer",
    "OverloadError",
    "ServerStats",
    "WorkerDeathError",
]

#: Exceptions meaning "the execution backend broke under this leader":
#: real pool breaks plus the chaos-injected stand-in.  These drive the
#: retry loop and the circuit breaker; anything else is a per-request
#: error.
_LEADER_RETRYABLE = POOL_BREAK_EXCEPTIONS + (InjectedWorkerDeath,)


class OverloadError(Exception):
    """Internal control flow: admission said reject.

    Carries the controller's :meth:`~.admission.AdmissionController
    .reject_context` so the error row tells the client how loaded the
    server is and when to retry.
    """

    def __init__(self, context: Optional[Dict[str, Any]] = None) -> None:
        super().__init__("admission rejected: server at capacity")
        self.context = context or {}


class DeadlineExceeded(Exception):
    """A request's deadline fired before its answer was ready.

    Always terminal and always answered (a deadlined request can never
    hang): the row is deterministic -- it carries the request's own
    ``deadline_ms`` and a counter-derived retry hint, never a measured
    elapsed time.
    """

    def __init__(self, deadline_ms: int) -> None:
        super().__init__(f"deadline of {deadline_ms}ms exceeded")
        self.deadline_ms = deadline_ms


class WorkerDeathError(Exception):
    """A leader exhausted its submission retries against a breaking pool."""

    def __init__(self, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"execution failed after {attempts} attempt(s): {cause!r}"
        )
        self.attempts = attempts
        self.cause = cause


class _DetachedExit(Exception):
    """Internal: the leader's wait ended but its work was detached.

    Carries the exception the handler should surface (``None`` means
    re-raise the cancellation).  The detach callback -- not the unwinding
    handler -- now owns group resolution, cache fill, and the admission
    slot, so the leader's cleanup must skip all three.
    """

    def __init__(self, cause: Optional[BaseException]) -> None:
        super().__init__("leader detached")
        self.cause = cause


@dataclass
class ServerStats:
    """Top-level request counters (layer internals snapshot separately)."""

    requests: int = 0
    responses: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    executed: int = 0
    rejected: int = 0
    errors: int = 0
    deadline_exceeded: int = 0
    stalled: int = 0
    promotions: int = 0
    worker_deaths: int = 0
    circuit_open: int = 0
    conn_dropped: int = 0
    drained: int = 0
    detached: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


class DetectionServer:
    """Detection-as-a-service over one shared engine (see module docstring).

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (read it back from
        :attr:`bound_port` after :meth:`start` -- the test/bench idiom).
    base_policy:
        Policy that request ``policy`` specs merge over.
    engine:
        Shared :class:`ExecutionEngine`; ``None`` uses the process-wide
        default.  The server never shuts the engine's threads down
        unless it created them (``owns_engine``).
    max_inflight, max_queue:
        Admission bounds (see :class:`AdmissionController`).
    cache_size:
        Result-cache capacity (entries).
    governor_budget, governor_decay:
        When set, one shared :class:`PeakHoldGovernor` both throttles
        in-run fan-out and tightens the admission limit as observed cost
        grows.
    chaos:
        An :class:`InfraFaultPlan` (or its spec string) of deterministic
        infrastructure faults to inject; ``None`` injects nothing.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        ``deadline_ms``; ``None`` means no implicit deadline.
    cache_journal:
        Path of the result cache's write-ahead journal; restored at
        construction, appended per fill (see :class:`CacheJournal`).
    governor_state:
        Path of a :class:`GovernorStateStore` sidecar: the governor's
        peak estimate is restored at :meth:`start` and saved at
        :meth:`stop`, so a restarted server begins throttled.
    breaker_threshold, breaker_backoff_base, breaker_backoff_cap:
        Circuit-breaker knobs around engine submission (see
        :class:`CircuitBreaker`).
    submit_retries:
        How many times a leader re-submits after a pool break before
        answering ``worker-death`` (the retry backoff reuses the breaker
        ladder constants).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        base_policy: Optional[ExecutionPolicy] = None,
        engine: Optional[ExecutionEngine] = None,
        max_inflight: int = 8,
        max_queue: int = 64,
        cache_size: int = 256,
        governor_budget: Optional[int] = None,
        governor_decay: Optional[float] = None,
        chaos: Union[InfraFaultPlan, str, None] = None,
        default_deadline_ms: Optional[int] = None,
        cache_journal: Optional[Any] = None,
        governor_state: Optional[Any] = None,
        breaker_threshold: int = 3,
        breaker_backoff_base: float = 0.05,
        breaker_backoff_cap: float = 2.0,
        submit_retries: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self.base_policy = base_policy or ExecutionPolicy()
        self.owns_engine = engine is None
        self.engine = engine or default_engine()
        self.governor: Optional[PeakHoldGovernor] = None
        if governor_budget is not None:
            self.governor = PeakHoldGovernor(governor_budget, governor_decay)
        self.admission = AdmissionController(
            max_inflight, max_queue, governor=self.governor
        )
        if isinstance(chaos, str):
            chaos = InfraFaultPlan.from_spec(chaos)
        self.chaos = chaos or InfraFaultPlan()
        self._injector = InfraFaultInjector(self.chaos)
        journal = None
        if cache_journal is not None:
            journal = CacheJournal(
                cache_journal, tear_first_append=self.chaos.cache_torn
            )
        self.cache = ResultCache(
            cache_size,
            journal=journal,
            encode=encode_result,
            decode=decode_result,
        )
        self.coalescer = BatchCoalescer()
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            backoff_base=breaker_backoff_base,
            backoff_cap=breaker_backoff_cap,
        )
        self.submit_retries = submit_retries
        self.default_deadline_ms = default_deadline_ms
        self._governor_store: Optional[GovernorStateStore] = None
        if governor_state is not None:
            self._governor_store = GovernorStateStore(governor_state)
        self.stats = ServerStats()
        self.stamp = RecordStamp.capture()
        self._server: Optional[asyncio.AbstractServer] = None
        self._waiters: "asyncio.Queue[asyncio.Future[None]]" = None  # type: ignore[assignment]
        self._stopping = asyncio.Event()
        self._policies: Dict[str, ExecutionPolicy] = {}
        self._seq = 0
        self._submissions = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actually-bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._governor_store is not None and self.governor is not None:
            entry = self._governor_store.load(self.base_policy.policy_hash())
            if entry is not None:
                self.governor.restore(entry["peak"], entry["observed"])
        self._waiters = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def stop(self) -> None:
        """Stop accepting, drain waiters, release pools (idempotent).

        Queued leaders are *drained*, not dropped: their waiter futures
        are cancelled, which unwinds into a ``shutdown`` error row with
        a retry-after hint (the client knows to come back, and where its
        place in line went).
        """
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Wake queued leaders with cancellation so their handlers unwind.
        if self._waiters is not None:
            while not self._waiters.empty():
                waiter = self._waiters.get_nowait()
                if not waiter.done():
                    waiter.cancel()
        if self._governor_store is not None and self.governor is not None:
            self._governor_store.save(
                self.base_policy.policy_hash(), self.governor
            )
        # Joining the pools waits for running worker chunks; do it off
        # the loop so in-flight handlers can still write their rows.
        await asyncio.get_running_loop().run_in_executor(
            None, self.release_resources
        )

    def release_resources(self) -> None:
        """Release engine pools + shm segments; safe to call repeatedly
        (everything downstream is idempotent and reentrancy-guarded).

        Blocks until the pools' running worker chunks finish (pending
        ones are cancelled), so :meth:`stop` runs it in the loop's
        default executor rather than on the loop thread."""
        if self.owns_engine:
            self.engine.release_pools()

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """SIGTERM/SIGINT -> graceful stop on the loop (CLI mode)."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.stop())
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._stopping.wait()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server stopping while blocked on readline: unwind quietly
            # (the streams protocol logs a cancelled handler otherwise).
            pass
        finally:
            if tasks:
                # The client is gone (or the server is stopping): cancel
                # outstanding request tasks so follower waits unregister
                # from their groups and executing leaders detach -- a
                # dropped connection must never wedge a coalescing group.
                for task in list(tasks):
                    task.cancel()
                try:
                    await asyncio.gather(*tasks, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            # The loop's final sweep can cancel this handler here too; on
            # Python 3.11 the streams protocol then logs a spurious
            # traceback for the cancelled task, so unwind quietly again.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        lines: Any,
        seq: Optional[int] = None,
    ) -> None:
        if seq is not None and self._injector.drop_connection(seq):
            # Chaos: sever the connection instead of answering -- the
            # client sees EOF mid-stream, exactly a crashed frontend.
            self.stats.conn_dropped += 1
            async with write_lock:
                writer.close()
            return
        payload = b"".join(
            json.dumps(row, sort_keys=True).encode() + b"\n" for row in lines
        )
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return
        self.stats.responses += 1

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.stats.requests += 1
        req_id: Any = None
        try:
            obj = json.loads(line)
            req_id = obj.get("id") if isinstance(obj, dict) else None
            if isinstance(obj, dict) and obj.get("op") == "stats":
                await self._respond(
                    writer, write_lock, [self._stats_row(req_id)]
                )
                return
            req = parse_request(obj)
            policy = req.policy(base=self.base_policy)
        except (ProtocolError, PolicyError, json.JSONDecodeError) as exc:
            self.stats.errors += 1
            await self._respond(
                writer,
                write_lock,
                [{"id": req_id, "type": "error", "code": "bad-request",
                  "message": str(exc)}],
            )
            return
        seq = self._seq
        self._seq += 1
        try:
            lines = await self._serve_detect(req, policy, seq)
        except OverloadError as exc:
            self.stats.rejected += 1
            lines = [{"id": req.req_id, "type": "error", "code": "overload",
                      "message": "admission rejected: server at capacity",
                      **exc.context}]
        except DeadlineExceeded as exc:
            self.stats.deadline_exceeded += 1
            lines = [{"id": req.req_id, "type": "error",
                      "code": "deadline-exceeded",
                      "message": f"deadline of {exc.deadline_ms}ms exceeded",
                      "deadline_ms": exc.deadline_ms,
                      "retry_after_hint": self.admission.retry_after_hint()}]
        except CircuitOpenError as exc:
            self.stats.circuit_open += 1
            lines = [{"id": req.req_id, "type": "error",
                      "code": "circuit-open",
                      "message": "engine circuit open: failing fast",
                      "retry_after_hint": round(exc.retry_after, 3)}]
        except WorkerDeathError as exc:
            self.stats.errors += 1
            lines = [{"id": req.req_id, "type": "error",
                      "code": "worker-death",
                      "message": str(exc),
                      "attempts": exc.attempts,
                      "retry_after_hint": self.admission.retry_after_hint()}]
        except asyncio.CancelledError:
            if not self._stopping.is_set():
                # The client disconnected: nobody is left to answer.
                raise
            # Server stopping mid-request: drain with a clean error row.
            self.stats.drained += 1
            lines = [{"id": req.req_id, "type": "error", "code": "shutdown",
                      "message": "server is shutting down",
                      "retry_after_hint": self.admission.retry_after_hint()}]
        except Exception as exc:
            self.stats.errors += 1
            lines = [{"id": req.req_id, "type": "error", "code": "execution",
                      "message": f"{type(exc).__name__}: {exc}"}]
        await self._respond(writer, write_lock, lines, seq=seq)

    # -- the layered request path --------------------------------------
    def _deadline_ms(self, req: DetectRequest) -> Optional[int]:
        return (
            req.deadline_ms
            if req.deadline_ms is not None
            else self.default_deadline_ms
        )

    async def _serve_detect(
        self, req: DetectRequest, policy: ExecutionPolicy, seq: int
    ) -> Any:
        deadline_ms = self._deadline_ms(req)
        loop = asyncio.get_running_loop()
        deadline_at = (
            loop.time() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )

        def remaining() -> Optional[float]:
            if deadline_at is None:
                return None
            return deadline_at - loop.time()

        if self._injector.stall_request(seq):
            await self._stall(deadline_ms, remaining())

        phash = policy.policy_hash()
        ckey = cache_key(req, phash)

        cached = self.cache.get(ckey)
        if cached is not None:
            self.stats.cache_hits += 1
            return self._result_lines(req, cached, "hit")

        gkey = group_key(req, phash)
        while True:
            group = self.coalescer.join(gkey, req.iterations)
            if group is None:
                return await self._lead(
                    req, policy, ckey, gkey, deadline_ms, remaining
                )
            try:
                leader_result: ServeResult = await _wait(
                    asyncio.shield(group.future), remaining()
                )
            except asyncio.TimeoutError:
                self.coalescer.leave(group)
                raise DeadlineExceeded(deadline_ms) from None  # type: ignore[arg-type]
            except asyncio.CancelledError:
                # Client gone or shutdown: this follower stops waiting;
                # the group's accounting must not keep counting it.
                self.coalescer.leave(group)
                raise
            except LeaderDied:
                # Re-elect: loop back to join-or-lead; the first
                # follower back leads a fresh, bit-identical batch.
                self.stats.promotions += 1
                continue
            derived = derive_follower(leader_result, req, policy, self.stamp)
            self.cache.put(ckey, derived)
            self.stats.coalesced += 1
            return self._result_lines(req, derived, "coalesced")

    async def _stall(
        self, deadline_ms: Optional[int], timeout: Optional[float]
    ) -> None:
        """Chaos: hold this request until its deadline or server drain.

        With a deadline the stall resolves into a deterministic
        ``deadline-exceeded`` row; without one it parks until shutdown
        drains it -- either way the client gets a terminal line, never a
        silent hang.
        """
        self.stats.stalled += 1
        try:
            await _wait(self._stopping.wait(), timeout)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(deadline_ms) from None  # type: ignore[arg-type]
        raise asyncio.CancelledError()

    async def _lead(
        self,
        req: DetectRequest,
        policy: ExecutionPolicy,
        ckey: Any,
        gkey: Any,
        deadline_ms: Optional[int],
        remaining: Callable[[], Optional[float]],
    ) -> Any:
        if not self.breaker.allow():
            raise CircuitOpenError(self.breaker.retry_after())
        decision = self.admission.admit()
        if decision == "reject":
            raise OverloadError(self.admission.reject_context())
        group = self.coalescer.lead(gkey, req.iterations, req.amplified)
        holds_slot = decision == "admit"
        detached = False
        try:
            if decision == "queue":
                waiter: "asyncio.Future[None]" = (
                    asyncio.get_running_loop().create_future()
                )
                await self._waiters.put(waiter)
                try:
                    await _wait(waiter, remaining())
                except asyncio.TimeoutError:
                    self.admission.abandon_queued()
                    raise DeadlineExceeded(deadline_ms) from None  # type: ignore[arg-type]
                except asyncio.CancelledError:
                    self.admission.abandon_queued()
                    raise
                self.admission.start_queued()
                holds_slot = True
            result = await self._execute_leader(
                req, policy, group, ckey, deadline_ms, remaining
            )
        except _DetachedExit as exc:
            # The detach callback now owns the group, the cache fill,
            # and the admission slot; surface the handler-facing error.
            detached = True
            if exc.cause is None:
                raise asyncio.CancelledError() from None
            raise exc.cause from None
        except BaseException as exc:
            if isinstance(exc, (DeadlineExceeded, asyncio.CancelledError)):
                # Recoverable from the group's point of view: the
                # leader gave up waiting, not the work itself --
                # followers re-elect and re-derive bit-identically.
                self.coalescer.resolve(group, error=LeaderDied(exc))
            else:
                self.coalescer.resolve(group, error=exc)
            raise
        finally:
            if holds_slot and not detached:
                if self.admission.release():
                    self._wake_next_waiter()
        self.coalescer.resolve(group, result)
        self.cache.put(ckey, result)
        self.stats.executed += 1
        return self._result_lines(req, result, "miss")

    async def _execute_leader(
        self,
        req: DetectRequest,
        policy: ExecutionPolicy,
        group: Any,
        ckey: Any,
        deadline_ms: Optional[int],
        remaining: Callable[[], Optional[float]],
    ) -> Any:
        """Submit (and re-submit, on pool breaks) the leader's execution.

        If the awaiting handler stops first (deadline fired / client
        vanished), the in-flight work is handed to a completion callback
        that will resolve the group, fill the cache, and release the
        admission slot -- abandoning a wait never abandons the group --
        and :class:`_DetachedExit` tells the caller to skip its own
        cleanup.
        """
        attempts = 0
        while True:
            attempts += 1
            submission = self._submissions
            self._submissions += 1
            worker = self._injector.kill_worker(submission)
            kill = (worker, submission) if worker is not None else None
            fut = asyncio.ensure_future(
                asyncio.wrap_future(
                    self.engine.submit(
                        chaos_execute,
                        kill,
                        self._injector.engine_delay_s(),
                        execute_request,
                        req,
                        policy,
                        engine=self.engine,
                        governor=self.governor,
                        stamp=self.stamp,
                    )
                )
            )
            try:
                result: ServeResult = await _wait(
                    asyncio.shield(fut), remaining()
                )
            except asyncio.TimeoutError:
                self._detach(fut, group, ckey)
                raise _DetachedExit(DeadlineExceeded(deadline_ms)) from None  # type: ignore[arg-type]
            except asyncio.CancelledError:
                self._detach(fut, group, ckey)
                raise _DetachedExit(None) from None
            except _LEADER_RETRYABLE as exc:
                self.stats.worker_deaths += 1
                self.breaker.record_failure()
                if attempts > self.submit_retries:
                    raise WorkerDeathError(attempts, exc) from exc
                # The PR 5 backoff discipline, at the submission plane.
                await asyncio.sleep(
                    min(
                        self.breaker.backoff_cap,
                        self.breaker.backoff_base * (2 ** (attempts - 1)),
                    )
                )
                continue
            self.breaker.record_success()
            return result

    def _detach(self, fut: "asyncio.Future[Any]", group: Any, ckey: Any) -> None:
        """Hand an in-flight leader execution to a completion callback.

        The handler is unwinding (deadline fired / client vanished) but
        the engine work keeps running; when it lands, the callback does
        everything the handler would have: breaker bookkeeping, group
        resolution (``LeaderDied`` on pool breaks so followers
        re-elect), cache fill, admission release.
        """
        self.stats.detached += 1

        def _done(f: "asyncio.Future[Any]") -> None:
            try:
                result = f.result()
            except _LEADER_RETRYABLE as exc:
                self.breaker.record_failure()
                self.coalescer.resolve(group, error=LeaderDied(exc))
            except asyncio.CancelledError:
                self.coalescer.resolve(
                    group, error=LeaderDied(asyncio.CancelledError())
                )
            except BaseException as exc:
                self.coalescer.resolve(group, error=exc)
            else:
                self.breaker.record_success()
                self.coalescer.resolve(group, result)
                self.cache.put(ckey, result)
                self.stats.executed += 1
            if self.admission.release():
                self._wake_next_waiter()

        fut.add_done_callback(_done)

    def _wake_next_waiter(self) -> None:
        while self._waiters is not None and not self._waiters.empty():
            waiter = self._waiters.get_nowait()
            if not waiter.done():
                waiter.set_result(None)
                return

    def _result_lines(
        self, req: DetectRequest, result: ServeResult, source: str
    ) -> Any:
        lines = [
            {"id": req.req_id, "type": "record", "row": row}
            for row in result.rows
        ]
        lines.append(
            {
                "id": req.req_id,
                "type": "result",
                "cache": source,
                "pattern": req.pattern,
                "label": result.label,
                **result.payload,
            }
        )
        return lines

    def _stats_row(self, req_id: Any) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "id": req_id,
            "type": "stats",
            "server": self.stats.as_dict(),
            "admission": self.admission.snapshot(),
            "result_cache": self.cache.stats(),
            "coalescer": self.coalescer.snapshot(),
            "construction_cache": cache_stats(),
            "breaker": self.breaker.snapshot(),
        }
        if not self.chaos.is_null:
            row["chaos"] = {"spec": self.chaos.spec(), **self.chaos.as_dict()}
        if self.governor is not None:
            row["governor"] = self.governor.snapshot()
        return row


async def _wait(awaitable: Any, timeout: Optional[float]) -> Any:
    """``wait_for`` that treats ``None`` as "no deadline"."""
    if timeout is None:
        return await awaitable
    return await asyncio.wait_for(awaitable, timeout)

"""The execution engine core: submit/await semantics over the runtime.

Before this layer existed, :class:`~repro.runtime.session.RunSession`
*was* the execution stack: its ``run``/``amplify`` methods owned the
degradation ladder, the governor observation, and the pool lifecycle,
and every call blocked the calling thread.  That shape works for one-shot
CLI invocations but not for a long-lived daemon, where many requests
must be in flight at once and the session is just one client among many.

:class:`ExecutionEngine` is the extraction.  It owns

* the **blocking execution primitives** -- :meth:`execute_run` (one
  engine run under a policy, with the vectorized->object fallback rung)
  and :meth:`execute_amplify` (the policy-driven fan-out over
  :func:`~repro.congest.parallel.run_amplified`) -- moved verbatim from
  the session so behavior is bit-identical;
* a **submit/await surface**: :meth:`submit`, :meth:`submit_run`, and
  :meth:`submit_amplify` schedule work on a bounded orchestration thread
  pool and return :class:`concurrent.futures.Future` objects.  The
  process-pool workers underneath are shared; the orchestration threads
  only coordinate (build networks, gather chunk futures), so the bound
  is about in-flight requests, not CPU;
* the **pool lifecycle**: :meth:`release_pools` tears down the
  persistent amplification pools and shared-memory segments (what an
  owning session's ``close()`` does), and :meth:`shutdown` additionally
  retires the orchestration threads.

Sessions hold an engine reference (the process-wide :func:`default_engine`
unless one is injected) and delegate execution to it; the asyncio server
(:mod:`repro.serve`) holds the same engine and awaits its futures via
``asyncio.wrap_future``.  Both kinds of client share one set of warm
worker pools and one governor estimate.

Every mutable piece of serving-time state -- in-flight counters, the
result cache, coalescing groups -- lives on engine/server *instances*,
never at module level: state on instances has an owner with a lifecycle;
module globals silently fork into pool workers (lint rule L8 enforces
this for :mod:`repro.serve`).
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

import networkx as nx

from ..congest.network import CongestNetwork, ExecutionResult
from ..congest.parallel import AmplifiedOutcome, run_amplified, shutdown_pools
from .policy import ExecutionPolicy

__all__ = [
    "ExecutionEngine",
    "POOL_BREAK_EXCEPTIONS",
    "default_engine",
    "shutdown_default_engine",
]

#: Failure classes that mean "the execution backend broke", not "the
#: request was wrong": a broken process/thread pool underneath a
#: submission.  The serving layer's circuit breaker
#: (:class:`repro.serve.chaos.CircuitBreaker`) opens on these (plus the
#: chaos-injected :class:`~repro.serve.chaos.InjectedWorkerDeath`),
#: while ordinary exceptions pass through as per-request errors.
POOL_BREAK_EXCEPTIONS: tuple = (BrokenExecutor,)

#: Kernel failures the vectorized->object degradation rung catches: hard
#: numpy faults (array allocation failure, trapped floating-point error).
#: Anything else -- kernel contract violations, model violations -- is a
#: bug and must propagate.
_NUMPY_FAULTS = (FloatingPointError, MemoryError)

#: Default bound on concurrently *orchestrated* executions.  Each slot is
#: a coordinating thread (cheap: it blocks on process-pool futures most
#: of its life), so the default is sized for request concurrency, not
#: core count.
DEFAULT_MAX_CONCURRENCY = 16


class ExecutionEngine:
    """Submit/await execution core shared by sessions and the server.

    Parameters
    ----------
    max_concurrency:
        Orchestration slots: how many submitted executions may be in
        flight at once.  Submissions beyond it queue inside the thread
        pool (FIFO), they are never dropped -- bounded *admission* is the
        server layer's job (:mod:`repro.serve.admission`).
    """

    def __init__(self, max_concurrency: int = DEFAULT_MAX_CONCURRENCY) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency
        self._threads: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # -- blocking primitives (extracted from RunSession) ---------------
    def execute_run(
        self,
        policy: ExecutionPolicy,
        net: CongestNetwork,
        algorithm: Any,
        *,
        max_rounds: int,
        seed: Optional[int],
        stop_on_reject: bool = False,
        fallback: Any = None,
        profile: Any = None,
        governor: Any = None,
        on_degrade: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> ExecutionResult:
        """One engine run of ``algorithm`` on ``net`` under ``policy``.

        This is the execution body :meth:`RunSession.run` used to own:
        metrics mode, sanitizer, fault plan, and backend come from the
        policy; ``fallback`` arms the vectorized->object degradation rung
        (a hard numpy fault retries the run on the object lane and
        reports the step through ``on_degrade``); a ``governor`` observes
        the run's cost so later amplifications start throttled.
        """
        try:
            result = net.run(
                algorithm,
                max_rounds=max_rounds,
                seed=seed,
                stop_on_reject=stop_on_reject,
                metrics=policy.metrics,
                sanitize=policy.sanitize,
                faults=policy.faults,
                backend=policy.backend,
                profile=profile,
            )
        except _NUMPY_FAULTS as exc:
            if fallback is None:
                raise
            step = {
                "step": "lane-fallback",
                "from": type(algorithm).__name__,
                "to": type(fallback).__name__,
                "error": repr(exc),
            }
            if on_degrade is not None:
                on_degrade(step)
            result = net.run(
                fallback,
                max_rounds=max_rounds,
                seed=seed,
                stop_on_reject=stop_on_reject,
                metrics=policy.metrics,
                sanitize=policy.sanitize,
                faults=policy.faults,
            )
        if governor is not None:
            # Keep the peak-hold estimate warm across direct runs too, so
            # an amplify after expensive inline runs starts throttled.
            governor.observe(result.rounds * result.metrics.total_bits)
        return result

    def execute_amplify(
        self,
        policy: ExecutionPolicy,
        graph: nx.Graph,
        algo_factory: Callable[[int], Any],
        iterations: int,
        *,
        bandwidth: Optional[int],
        max_rounds: int,
        seed: int,
        stop_on_detect: bool = True,
        chunks_per_job: int = 4,
        network_kwargs: Optional[Dict[str, Any]] = None,
        share_graph: Optional[bool] = None,
        pool_retries: int = 2,
        backoff_base: float = 0.05,
        worker_timeout: Optional[float] = None,
        success_probability: Optional[float] = None,
        governor: Any = None,
        on_degrade: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_govern: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> AmplifiedOutcome:
        """Policy-driven amplified fan-out (extracted from
        :meth:`RunSession.amplify`); bit-identical to the sequential
        loop regardless of ``policy.jobs``."""
        return run_amplified(
            graph,
            algo_factory,
            iterations,
            jobs=policy.jobs,
            seed=seed,
            bandwidth=bandwidth,
            max_rounds=max_rounds,
            metrics=policy.metrics,
            stop_on_detect=stop_on_detect,
            chunks_per_job=chunks_per_job,
            network_kwargs=network_kwargs,
            share_graph=share_graph,
            faults=policy.faults,
            pool_retries=pool_retries,
            backoff_base=backoff_base,
            worker_timeout=worker_timeout,
            on_degrade=on_degrade,
            success_probability=success_probability,
            target_confidence=policy.amplify_confidence,
            max_seeds=policy.amplify_max_seeds,
            batch_seeds=policy.amplify_batch,
            governor=governor,
            on_govern=on_govern,
        )

    # -- submit/await surface ------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is shut down")
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-engine",
                )
            return self._threads

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on an orchestration slot.

        Returns a :class:`concurrent.futures.Future`; asyncio callers
        bridge it with ``asyncio.wrap_future``.  The callable runs on an
        engine thread, so anything it touches concurrently (records,
        governors, caches) must be thread-safe -- the runtime's own
        pieces are.
        """
        return self._executor().submit(fn, *args, **kwargs)

    def submit_run(self, policy: ExecutionPolicy, net: CongestNetwork,
                   algorithm: Any, **kwargs: Any) -> Future:
        """Async variant of :meth:`execute_run` (same arguments)."""
        return self.submit(self.execute_run, policy, net, algorithm, **kwargs)

    def submit_amplify(self, policy: ExecutionPolicy, graph: nx.Graph,
                       algo_factory: Callable[[int], Any], iterations: int,
                       **kwargs: Any) -> Future:
        """Async variant of :meth:`execute_amplify` (same arguments)."""
        return self.submit(
            self.execute_amplify, policy, graph, algo_factory, iterations,
            **kwargs,
        )

    # -- lifecycle -----------------------------------------------------
    def release_pools(self) -> None:
        """Tear down the persistent worker pools and shm segments.

        Exactly what an owning session's close used to do directly; the
        orchestration threads stay up (they are cheap and stateless), so
        the next submission re-warms only the process pools.
        """
        shutdown_pools()

    def shutdown(self, *, pools: bool = True, wait: bool = True) -> None:
        """Retire the orchestration threads (and, by default, the pools).

        Idempotent and safe to call from signal handlers: a second call
        (or a reentrant one) finds nothing left to do.  ``wait`` applies
        to the threads only; the pools are always joined (see
        :func:`~repro.congest.parallel.shutdown_pools`).
        """
        with self._lock:
            threads, self._threads = self._threads, None
            self._closed = True
        if threads is not None:
            threads.shutdown(wait=wait, cancel_futures=True)
        if pools:
            shutdown_pools()

    @property
    def closed(self) -> bool:
        return self._closed


# -- process-wide default engine -----------------------------------------
#
# One engine per process is the normal shape: every session and server
# shares its orchestration slots and (through the process-global pool
# registry) its worker pools.  Tests and embedders can still construct
# private engines for isolation.

_default_lock = threading.Lock()
_default: Optional[ExecutionEngine] = None


def default_engine() -> ExecutionEngine:
    """The process-wide shared engine (created on first use)."""
    global _default
    with _default_lock:
        if _default is None or _default.closed:
            _default = ExecutionEngine()
        return _default


def shutdown_default_engine() -> None:
    """Shut the shared engine down (idempotent; re-creatable).

    Registered with :mod:`atexit`; the next :func:`default_engine` call
    after an explicit shutdown builds a fresh engine.
    """
    global _default
    with _default_lock:
        engine, _default = _default, None
    if engine is not None:
        engine.shutdown(pools=True, wait=False)


atexit.register(shutdown_default_engine)

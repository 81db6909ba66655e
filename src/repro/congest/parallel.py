"""Parallel amplification for color-coding style detectors.

The randomized upper bounds in the paper (Theorem 1.1 even-cycle detection,
the linear color-BFS baseline, color-coded tree DP) all amplify a
low-success-probability iteration over many *independent* colorings.  The
iterations share nothing -- iteration ``t`` is a fresh run with seed
``seed + t`` -- so they are embarrassingly parallel.  This module fans them
out over a :class:`concurrent.futures.ProcessPoolExecutor` with *chunked
seeds* and a *deterministic merge*:

* the iteration range is split into contiguous chunks; each worker builds
  the network once and runs its chunk sequentially (stopping at the chunk's
  first rejection, exactly like the sequential loop would);
* the merge takes the **first rejecting seed** (smallest iteration index
  that rejected).  Because iteration ``t`` is bit-for-bit the same run the
  sequential loop would have executed, the merged decision, witness set,
  and per-iteration aggregates are identical to the sequential loop with
  ``stop_on_detect`` -- independent of ``jobs`` and of chunk boundaries.

The executor is **persistent**: pools are created once per worker count,
kept in a module-level registry, and reused by every later
:func:`run_amplified` call (shut down at interpreter exit, or explicitly
via :func:`shutdown_pools`).  The parent and every worker additionally
keep a small LRU cache of constructed networks keyed by a content token
of (graph, bandwidth, network kwargs), so repeated amplification over
the same instance skips both process spawn *and* network construction.
The graph half of the token is computed once per graph object and
reused only while the graph still has exactly the nodes, node order and
neighbour sets it was computed from, so an in-place mutation can never
serve a stale network.  A shared-memory export (see
:mod:`repro.congest.shm`) is unlinked when its network leaves the
parent's LRU, or when the last call still shipping it finishes.

Adaptive early stopping: amplification exists to drive the one-sided
miss probability of a single low-success iteration down to a target, and
once enough all-accept seeds have run the target is met -- running the
rest is waste.  ``run_amplified`` therefore supports a *sequential test*
(``target_confidence`` + the iteration's documented
``success_probability``): seeds are spawned in batches and the loop
stops once the stopping rule fires.  The rule
(:func:`_stopping_point`) is a pure function of the *ordered* seed
outcomes -- never of timing, worker identity, or chunk boundaries -- so
an adaptive run's decision, witness set, and seeds-run count are
bit-identical across ``jobs`` and batch shapes, and compose with the
first-rejecting-seed merge unchanged.

Load governing: an optional peak-hold governor (see
:mod:`repro.runtime.governor`) observes each seed run's cost (rounds x
bits) and throttles how many chunks a batch submits concurrently.  The
governor shapes scheduling only; outcomes are unaffected.

Resilience (see ``docs/robustness.md``): a worker crash breaks a pool;
:func:`run_amplified` discards it, sleeps a deterministic bounded
exponential backoff, rebuilds, and retries up to ``pool_retries`` times
before degrading to the inline serial path -- which is bit-identical to
the parallel merge, so the degradation costs wall-clock only.  Chunks
that finished before the break are harvested from their futures and
never recomputed; a rebuilt attempt resubmits only the true holes.  A
``worker_timeout`` bounds each chunk wait; on expiry the (possibly hung)
pool is discarded, finished-but-uncollected results are harvested, and
the remaining holes are salvaged inline, preserving the
first-rejecting-seed merge exactly.  ``KeyboardInterrupt`` cancels
outstanding futures and tears the pool down before propagating, so Ctrl-C
never leaks worker processes.  Fault plans ride along in the chunk specs:
workers inject the same deterministic schedule the inline path would.

Workers return compact :class:`IterationOutcome` summaries (decision,
rounds, aggregate bits, witnesses) rather than full
:class:`~repro.congest.network.ExecutionResult` objects, so the fan-out
stays cheap to pickle.  The factory passed in must itself be picklable
(a module-level function, a ``functools.partial`` of one, or a dataclass
with ``__call__`` -- see ``_EvenCycleFactory`` in
:mod:`repro.core.even_cycle` for the pattern).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import operator
import os
import sys
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import networkx as nx

from .algorithm import Algorithm, Decision
from .identifiers import identifier_order
from .network import CongestNetwork, ExecutionResult
from .sanitizer import check_pool_crossing

__all__ = [
    "IterationOutcome",
    "AmplifiedOutcome",
    "prefix_outcome",
    "run_amplified",
    "shutdown_pools",
]

# -- persistent pool registry (parent process) ---------------------------

if sys.version_info >= (3, 12):
    _Pool = ProcessPoolExecutor
else:
    from concurrent.futures import InvalidStateError
    from concurrent.futures import process as _cf_process

    class _ManagerThread(_cf_process._ExecutorManagerThread):
        """The CPython 3.12 fix for a worker death, backported.

        When a worker dies, the stock ``terminate_broken`` fails every
        pending future.  Before 3.12 it raises ``InvalidStateError`` on
        one a caller already cancelled (``stop_on_detect`` cancels the
        chunks past a rejection) and the thread dies: the pool's other
        futures, other callers' included, never resolve and its
        surviving workers are never terminated.
        """

        def terminate_broken(self, cause: Any) -> None:
            bpe = BrokenProcessPool(
                "A process in the process pool was terminated abruptly "
                "while the future was running or pending."
            )
            for item in self.pending_work_items.values():
                try:
                    item.future.set_exception(bpe)
                except InvalidStateError:
                    pass  # cancelled: nobody waits on it
            self.pending_work_items.clear()
            super().terminate_broken(cause)

    class _Pool(ProcessPoolExecutor):
        """A ``ProcessPoolExecutor`` managed by :class:`_ManagerThread`
        (the stock method body, with the manager class swapped)."""

        def _start_executor_manager_thread(self) -> None:
            if self._executor_manager_thread is None:
                if not self._safe_to_dynamically_spawn_children:  # fork
                    self._launch_processes()
                self._executor_manager_thread = _ManagerThread(self)
                self._executor_manager_thread.start()
                _cf_process._threads_wakeups[
                    self._executor_manager_thread
                ] = self._executor_manager_thread_wakeup

_POOLS: Dict[int, ProcessPoolExecutor] = {}

#: Serializes registry access across engine threads and signal handlers.
#: Reentrant on purpose: a SIGTERM arriving while the main thread holds
#: the lock inside ``_get_pool`` runs the handler's ``shutdown_pools`` on
#: that same thread, and a plain Lock would deadlock the process right
#: when it is trying to die cleanly.
_POOL_LOCK = threading.RLock()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    # The registry is parent-side state reached through the engine's
    # *thread* pool (no fork boundary); access is serialized by the lock.
    with _POOL_LOCK:
        pool = _POOLS.get(jobs)  # repro: noqa[L8]
        if pool is None:
            pool = _Pool(max_workers=jobs)
            _POOLS[jobs] = pool  # repro: noqa[L8]
        return pool


def _discard_pool(
    jobs: int, wait: bool = False, pool: Optional[ProcessPoolExecutor] = None
) -> None:
    """Pop the registry's ``jobs`` pool and shut it down.

    With ``pool`` given, only if the registry still holds that pool: a
    concurrent caller may already have discarded it and registered a
    healthy rebuild, which must not be torn down under its users.  Only
    :func:`shutdown_pools` cancels queued chunks; a caller cancels its own.
    """
    cancel = pool is None
    with _POOL_LOCK:
        if pool is None or _POOLS.get(jobs) is pool:  # repro: noqa[L8]
            pool = _POOLS.pop(jobs, None)  # repro: noqa[L8]
        else:
            pool = None
    if pool is not None:
        try:
            pool.shutdown(wait=wait, cancel_futures=cancel)
        except Exception:
            # A pool broken by worker death (or half-torn-down by a
            # concurrent shutdown) must not abort the teardown sweep.
            pass


def shutdown_pools() -> None:
    """Shut down every persistent amplification pool (idempotent).

    Registered with :mod:`atexit`; call it directly to reclaim the worker
    processes early (e.g. between benchmark scenarios).  Also releases
    every shared-memory graph segment this process exported or attached
    (see :mod:`repro.congest.shm`), so no named segment outlives the
    pools that were using it.

    Joins each pool's workers and manager thread before returning, so a
    call that lands mid-run blocks until the chunks already handed to
    workers finish (the rest are cancelled).  A pool shut down without waiting
    keeps its manager thread winding down in the background; if the
    interpreter exits meanwhile, ``concurrent.futures``' exit hook can
    write to the wakeup pipe that thread just closed and print
    ``OSError: [Errno 9] Bad file descriptor``.  Only pools broken by a
    dead or hung worker are discarded without waiting, and
    :func:`run_amplified` does that itself.

    Safe to call from several threads at once: each pool is popped from
    the registry under the (reentrant) lock before being shut down, so a
    second caller -- or a reentrant one, a SIGTERM landing mid-teardown
    -- finds nothing left to do.
    """
    with _POOL_LOCK:
        stale = list(_POOLS)
    for jobs in stale:
        _discard_pool(jobs, wait=True)
    from .shm import release_shared_graphs

    release_shared_graphs()


atexit.register(shutdown_pools)

# -- network cache (parent and workers) ----------------------------------

_NET_CACHE: "OrderedDict[str, CongestNetwork]" = OrderedDict()
_NET_CACHE_MAX = 8

#: Parent side: per token, the ``run_amplified`` calls currently shipping
#: its shared-memory handle to workers.  An export evicted from the LRU
#: while shipped is unlinked by the last of those calls instead.
_SHIPPING: Dict[str, int] = {}

#: Guards ``_NET_CACHE``, ``_SHIPPING`` and ``_DIGESTS`` against
#: concurrent engine threads.  Recreated in a forked child (see
#: ``_reset_after_fork``): a worker forked while a parent thread held it
#: would otherwise deadlock on its first cache insert.
_NET_LOCK = threading.Lock()


def _cached_network(token: str, build: Callable[[], CongestNetwork]) -> CongestNetwork:
    """The LRU's one lookup-or-insert path, used by parent and workers.

    Hits move to the back; a miss calls ``build`` (outside the lock) and
    inserts, evicting from the front past ``_NET_CACHE_MAX`` entries and
    releasing whatever shared memory backed each evicted network.
    """
    # The LRU is *intentionally* process-local: each pool process keeps
    # its own cache of constructed networks, nothing is merged back, and
    # a hit only skips reconstruction of an immutable input -- so the L8
    # "global read in a pooled function" finding is a false alarm here.
    with _NET_LOCK:
        net = _NET_CACHE.get(token)  # repro: noqa[L8]
        if net is not None:
            _NET_CACHE.move_to_end(token)  # repro: noqa[L8]
            return net
    net = build()
    with _NET_LOCK:
        _NET_CACHE[token] = net  # repro: noqa[L8]
        while len(_NET_CACHE) > _NET_CACHE_MAX:  # repro: noqa[L8]
            evicted, stale = _NET_CACHE.popitem(last=False)  # repro: noqa[L8]
            del stale  # drop the array views before closing the segment
            _release_evicted(evicted)
    return net


def _release_evicted(token: str) -> None:
    """Release the shared memory behind an evicted cache entry.

    Called with ``_NET_LOCK`` held.  A worker closes its attachment (the
    eviction dropped the cache's reference to the mapped arrays); the
    parent unlinks its export unless a running call still ships the
    handle, in which case that call's ``_shipping`` exit does it.  No-op
    for networks built from pickled graphs.
    """
    from .shm import release_attachment, release_export

    release_attachment(token)
    # Worker-local copy starts empty (reset at fork); parent-side it is
    # the in-flight count kept by ``_shipping``.
    if not _SHIPPING.get(token):  # repro: noqa[L8]
        release_export(token)


@contextlib.contextmanager
def _shipping(token: str) -> Iterator[None]:
    """Hold ``token``'s shared-memory export open while a call ships it.

    On the last exit, unlink the export if the LRU already evicted its
    network.
    """
    # Parent-only bookkeeping (workers never ship handles); the L8 pass
    # sees it only because ``run_amplified`` itself is in the pool closure.
    with _NET_LOCK:
        _SHIPPING[token] = _SHIPPING.get(token, 0) + 1  # repro: noqa[L8]
    try:
        yield
    finally:
        with _NET_LOCK:
            left = _SHIPPING.pop(token) - 1  # repro: noqa[L8]
            if left:
                _SHIPPING[token] = left  # repro: noqa[L8]
            elif token not in _NET_CACHE:  # repro: noqa[L8]
                from .shm import release_export

                release_export(token)


def _reset_after_fork() -> None:
    # A forked child ships nothing and must not inherit a held lock.
    global _NET_LOCK
    _NET_LOCK = threading.Lock()
    _SHIPPING.clear()


os.register_at_fork(after_in_child=_reset_after_fork)

# -- network token ---------------------------------------------------------

#: Node insertion order and each node's neighbour key set, in that order.
_Snapshot = Tuple[List[Hashable], List[frozenset]]

#: graph -> (digest, the snapshot it was computed from).  A hit is served
#: only while the graph still matches its snapshot exactly (see
#: ``_graph_digest``).
_DIGESTS: "weakref.WeakKeyDictionary[Any, Tuple[bytes, _Snapshot]]" = (
    weakref.WeakKeyDictionary()
)

_keys = operator.methodcaller("keys")


def _net_token(
    graph: nx.Graph, bandwidth: Optional[int], network_kwargs: Dict[str, Any]
) -> str:
    """Content token for the parent- and worker-side network cache.

    Two calls get the same token exactly when they would build the same
    network: same bandwidth, same kwargs, same graph digest.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(bandwidth).encode())
    h.update(repr(sorted(network_kwargs.items())).encode())
    h.update(_graph_digest(graph))
    return h.hexdigest()


def _graph_digest(graph: nx.Graph) -> bytes:
    """Digest of the network-relevant structure of ``graph``, memoized.

    The digest is computed once per graph object and served from
    ``_DIGESTS`` on later calls -- but only after an exact recheck: the
    graph's node order must be the stored one, node for node by
    identity, and every node's neighbour key set must equal the stored
    set.  Any node or edge added or removed, through any API, and any
    remove-and-re-add that reorders the nodes, fails the check and
    recomputes.  Only keys are compared, never attribute values (which
    may be arrays whose ``==`` does not return a bool).  Graphs without
    ``_adj`` or that cannot be weakly referenced are hashed directly.
    """
    adj = getattr(graph, "_adj", None)
    if adj is None:
        return _structure_digest(*_snapshot(graph.adj))
    try:
        with _NET_LOCK:
            memo = _DIGESTS.get(graph)
    except TypeError:  # not weakly referenceable
        return _structure_digest(*_snapshot(adj))
    if memo is not None:
        digest, (order, nbrs) = memo
        if (
            len(adj) == len(order)
            and all(map(operator.is_, adj, order))
            and all(map(operator.eq, map(_keys, adj.values()), nbrs))
        ):
            return digest
    snapshot = _snapshot(adj)
    digest = _structure_digest(*snapshot)
    with _NET_LOCK:
        _DIGESTS[graph] = (digest, snapshot)
    return digest


def _snapshot(adj: Any) -> _Snapshot:
    return list(adj), [frozenset(d) for d in adj.values()]


def _structure_digest(order: List[Hashable], nbrs: List[frozenset]) -> bytes:
    """Hash a snapshot as the network sees it.

    Nodes are hashed in :func:`identifier_order`, the order
    :class:`CongestNetwork` numbers them, so two graphs whose unsortable
    nodes were inserted in different orders get different digests; edges
    are hashed as sorted neighbour-identifier rows.  Built from reprs, so
    it assumes node objects have faithful reprs -- true for every graph
    family in this repo (ints, strings, tuples).
    """
    ids = identifier_order(order)
    index = {v: i for i, v in enumerate(ids)}
    rows: List[Any] = [None] * len(ids)
    for v, s in zip(order, nbrs):
        rows[index[v]] = sorted(map(index.__getitem__, s))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(list(map(repr, ids))).encode())
    h.update(repr(rows).encode())
    return h.digest()


@dataclass(frozen=True)
class IterationOutcome:
    """Picklable summary of one amplification iteration."""

    index: int
    rejected: bool
    rounds: int
    total_bits: int
    total_messages: int
    max_message_bits: int
    witnesses: Tuple[Any, ...]
    rejecting_nodes: Tuple[int, ...]


@dataclass
class AmplifiedOutcome:
    """Merged outcome of an amplified run, sequential-equivalent.

    ``outcomes`` lists exactly the iterations the *sequential* loop would
    have executed (``0 .. iterations_run - 1``), in order; extra iterations
    that parallel workers happened to run past the first rejecting seed are
    discarded by the merge.

    ``seeds_requested`` is the caller's ``iterations`` argument;
    ``stop_reason`` says why the loop stopped (``"detect"``: first
    rejecting seed with ``stop_on_detect``; ``"confidence"``: the
    sequential test met its all-accept target ``target_accepts``;
    ``"exhausted"``: every permitted seed ran).  ``seeds_saved`` is the
    adaptive win: requested seeds that never had to run.
    """

    rejected: bool
    first_reject: Optional[int]
    iterations_run: int
    outcomes: List[IterationOutcome] = field(default_factory=list)
    seeds_requested: Optional[int] = None
    target_accepts: Optional[int] = None
    stop_reason: str = "exhausted"

    @property
    def seeds_saved(self) -> int:
        if self.seeds_requested is None:
            return 0
        return max(0, self.seeds_requested - self.iterations_run)

    @property
    def witnesses(self) -> List[Any]:
        out: List[Any] = []
        for o in self.outcomes:
            if o.rejected:
                out.extend(o.witnesses)
        return out

    @property
    def total_bits(self) -> int:
        return sum(o.total_bits for o in self.outcomes)

    @property
    def total_messages(self) -> int:
        return sum(o.total_messages for o in self.outcomes)


def _summarize(index: int, res: ExecutionResult) -> IterationOutcome:
    # node_decisions iterates in the contexts' order; reading only the
    # rejecting nodes' contexts keeps the vectorized lane's lazy mapping
    # from synthesizing the other n - k.
    rejecting = [u for u, d in res.node_decisions.items() if d is Decision.REJECT]
    witnesses = tuple(res.contexts[u].state.get("witness") for u in rejecting)
    m = res.metrics
    return IterationOutcome(
        index=index,
        rejected=res.rejected,
        rounds=res.rounds,
        total_bits=m.total_bits,
        total_messages=m.total_messages,
        max_message_bits=m.max_message_bits,
        witnesses=witnesses,
        rejecting_nodes=tuple(sorted(rejecting)),
    )


def _run_chunk(spec: Dict[str, Any]) -> List[IterationOutcome]:
    """Worker: run a contiguous chunk of iterations on one network build.

    Module-level so it pickles under every multiprocessing start method.
    A ``net_token`` in the spec enables the worker-side LRU: the network
    is constructed once per (graph, bandwidth, kwargs) per worker and
    reused across chunks and across :func:`run_amplified` calls.
    """
    def build() -> CongestNetwork:
        handle = spec.get("shm_graph")
        if handle is not None:
            # Shared-graph spec: attach to the parent's exported CSR
            # arrays instead of rebuilding the network from a pickled
            # graph (namespace_size / knows_n travel in the handle).
            from .shm import attach_network

            return attach_network(handle, bandwidth=spec["bandwidth"])
        return CongestNetwork(
            spec["graph"], bandwidth=spec["bandwidth"], **spec["network_kwargs"]
        )

    token = spec.get("net_token")
    net = build() if token is None else _cached_network(token, build)
    factory: Callable[[int], Algorithm] = spec["algo_factory"]
    out: List[IterationOutcome] = []
    for t in range(spec["start"], spec["stop"]):
        res = net.run(
            factory(t),
            max_rounds=spec["max_rounds"],
            seed=spec["seed"] + t,
            metrics=spec["metrics"],
            faults=spec.get("faults"),
        )
        out.append(_summarize(t, res))
        if res.rejected and spec["stop_on_detect"]:
            break
    return out


def _stopping_point(
    outcomes: List[IterationOutcome],
    cap: int,
    target: Optional[int],
    stop_on_detect: bool,
) -> Optional[Tuple[int, str]]:
    """The sequential test, as a pure function of the ordered outcomes.

    Given the contiguous prefix of seed outcomes run so far, returns
    ``(seeds_to_keep, reason)`` for the smallest prefix at which the
    stopping rule fires, or ``None`` if more seeds are needed.  Because
    the rule inspects only the ordered outcomes -- never timing, worker
    identity, or chunk boundaries -- an adaptive run stops at the same
    seed for every ``jobs`` and batch shape:

    * a rejecting seed with ``stop_on_detect`` stops at that seed
      (``"detect"``, the classic first-rejecting-seed cut);
    * ``target`` all-accept seeds from the start meet the confidence
      target (``"confidence"``); a rejection with ``stop_on_detect``
      off disables this stop -- the caller asked for every seed;
    * ``cap`` seeds run is the hard stop (``"exhausted"``).
    """
    rejected_seen = False
    for t, o in enumerate(outcomes):
        if o.rejected:
            if stop_on_detect:
                return t + 1, "detect"
            rejected_seen = True
        if target is not None and not rejected_seen and t + 1 >= target:
            return t + 1, "confidence"
        if t + 1 >= cap:
            return t + 1, "exhausted"
    return None


def prefix_outcome(
    ordered: List[IterationOutcome],
    iterations: int,
    *,
    stop_on_detect: bool = True,
    target: Optional[int] = None,
) -> AmplifiedOutcome:
    """Derive the outcome a run with ``iterations`` seeds would produce.

    Because the stopping rule (:func:`_stopping_point`) and the
    first-rejecting-seed merge are pure functions of the *ordered* seed
    outcomes, a request for a seed-prefix of an already-executed run
    needs no new execution: replay the rule over the prefix and merge
    what it keeps.  This is what lets the serving layer's batch coalescer
    (:mod:`repro.serve.coalesce`) attach a follower request to a leader
    with a superset iteration budget and still answer bit-identically --
    same decision, same kept iterations, same ``stop_reason`` -- to a run
    it never performed.

    ``ordered`` must cover seeds ``0 .. iterations-1`` *or* end at a
    point where the rule already fired (a shorter leader run is fine as
    long as it stopped for a reason the prefix shares); otherwise the
    derivation would have to invent outcomes, and raises ``ValueError``
    instead.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    prefix = ordered[:iterations]
    point = _stopping_point(prefix, iterations, target, stop_on_detect)
    if point is None:
        raise ValueError(
            f"ordered outcomes ({len(ordered)}) do not cover the requested "
            f"prefix of {iterations} iterations"
        )
    kept, reason = point
    amp = _merge([prefix[:kept]], kept, stop_on_detect)
    amp.seeds_requested = iterations
    amp.target_accepts = target
    amp.stop_reason = reason
    return amp


def run_amplified(
    graph: nx.Graph,
    algo_factory: Callable[[int], Algorithm],
    iterations: int,
    jobs: int = 1,
    seed: int = 0,
    *,
    bandwidth: Optional[int],
    max_rounds: int,
    metrics: str = "lite",
    stop_on_detect: bool = True,
    chunks_per_job: int = 4,
    network_kwargs: Optional[Dict[str, Any]] = None,
    share_graph: Optional[bool] = None,
    faults: Optional[str] = None,
    pool_retries: int = 2,
    backoff_base: float = 0.05,
    worker_timeout: Optional[float] = None,
    on_degrade: Optional[Callable[[Dict[str, Any]], None]] = None,
    success_probability: Optional[float] = None,
    target_confidence: Optional[float] = None,
    max_seeds: Optional[int] = None,
    batch_seeds: Optional[int] = None,
    governor: Optional[Any] = None,
    on_govern: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> AmplifiedOutcome:
    """Amplify ``algo_factory`` over ``iterations`` independent colorings.

    Semantically equivalent -- decision, witness set, per-iteration
    aggregates -- to the sequential loop::

        net = CongestNetwork(graph, bandwidth=bandwidth, **network_kwargs)
        for t in range(iterations):
            res = net.run(algo_factory(t), max_rounds, seed=seed + t,
                          metrics=metrics, faults=faults)
            if res.rejected and stop_on_detect:
                break

    With ``jobs > 1`` chunks of the iteration range run in a *persistent*
    process pool (reused across calls, see the module docstring); the
    first-rejecting-seed merge keeps the output independent of ``jobs``.
    ``jobs <= 1`` runs inline with no executor (the exact sequential path).

    Resilience knobs (all on the parallel path only):

    ``pool_retries``
        How many times a :class:`BrokenProcessPool` is answered with a
        pool rebuild before degrading to the serial path.  Rebuild ``k``
        sleeps ``backoff_base * 2**(k-1)`` seconds first (deterministic,
        bounded: the retry count caps the total wait).
    ``worker_timeout``
        Seconds to wait on each chunk future; ``None`` waits forever.
        On expiry the pool is discarded (a hung worker poisons it) and
        every unfinished chunk is salvaged inline, so the merged outcome
        is still exactly the sequential one.
    ``on_degrade``
        Optional callback invoked (parent-side) with a dict describing
        each degradation step taken -- pool rebuilds, the serial
        fallback, timeout salvage.  Used by
        :meth:`repro.runtime.session.RunSession.amplify` to record the
        ladder in the run record.

    ``share_graph``
        Place the parent's CSR edge index in shared memory and ship
        workers a small handle instead of the pickled graph (see
        :mod:`repro.congest.shm`).  ``None`` (default) auto-enables for
        graphs with at least ``GRAPH_SHARE_MIN_NODES`` nodes when the
        network is built from the graph alone (plus ``namespace_size`` /
        ``knows_n``); ``True`` forces sharing (and raises
        :class:`ValueError` for ineligible ``network_kwargs`` -- custom
        ``inputs`` / ``assignment`` never ride shared memory); ``False``
        always pickles the graph.  Sharing changes wall-clock and peak
        RSS only, never outcomes.

    Adaptive stopping knobs (see the module docstring):

    ``target_confidence`` / ``success_probability``
        Arm the sequential test: stop once
        ``seeds_for_confidence(target_confidence, success_probability)``
        all-accept seeds have run.  ``target_confidence`` requires
        ``success_probability`` (the iteration's documented
        single-iteration success rate, e.g. ``(2k)^(-2k)`` for even-cycle
        color coding).
    ``max_seeds``
        Hard cap on seeds run (clamped to ``iterations``).
    ``batch_seeds``
        Seeds per adaptive batch; ``None`` uses
        ``jobs * chunks_per_job``.
    ``governor`` / ``on_govern``
        A peak-hold governor (``observe`` / ``allowed`` / ``snapshot``
        duck type, see :class:`repro.runtime.governor.PeakHoldGovernor`)
        throttling concurrent chunk submission; ``on_govern`` is called
        with a snapshot dict each time a batch is actually throttled.

    ``KeyboardInterrupt`` during the gather cancels outstanding futures
    and shuts the pool down before re-raising.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if pool_retries < 0:
        raise ValueError("pool_retries must be >= 0")
    if max_seeds is not None and max_seeds < 1:
        raise ValueError("max_seeds must be >= 1")
    if batch_seeds is not None and batch_seeds < 1:
        raise ValueError("batch_seeds must be >= 1")
    network_kwargs = dict(network_kwargs or {})

    # Sharing eligibility: only networks fully determined by (graph,
    # bandwidth, namespace_size, knows_n) can be rebuilt from the CSR
    # arrays alone -- custom inputs / assignments would be silently lost.
    shareable_kwargs = set(network_kwargs) <= {"namespace_size", "knows_n"}
    if share_graph and not shareable_kwargs:
        raise ValueError(
            "share_graph=True requires a network built from the graph "
            "alone (plus namespace_size / knows_n); custom network_kwargs "
            "cannot ride shared memory"
        )
    if share_graph is None:
        from .shm import GRAPH_SHARE_MIN_NODES

        share_graph = (
            shareable_kwargs
            and graph.number_of_nodes() >= GRAPH_SHARE_MIN_NODES
        )

    cap = iterations if max_seeds is None else min(iterations, max_seeds)
    target: Optional[int] = None
    if target_confidence is not None:
        if success_probability is None:
            raise ValueError(
                "target_confidence needs success_probability: the "
                "sequential test's accept threshold is a function of the "
                "iteration's documented success rate"
            )
        from ..runtime.policy import seeds_for_confidence

        target = seeds_for_confidence(target_confidence, success_probability)

    # L8 guard: everything in the spec is pickled into workers; a
    # non-frozen dataclass factory would mutate per-process copies.
    check_pool_crossing(algo_factory, "algo_factory")

    spec_base: Dict[str, Any] = {
        "graph": graph,
        "algo_factory": algo_factory,
        "seed": seed,
        "bandwidth": bandwidth,
        "max_rounds": max_rounds,
        "metrics": metrics,
        "stop_on_detect": stop_on_detect,
        "network_kwargs": network_kwargs,
        "faults": faults,
        # Parent- and worker-side network LRU alike key off this token,
        # so serial and parallel paths share construction reuse.
        "net_token": _net_token(graph, bandwidth, network_kwargs),
    }

    def _finish(
        ordered: List[IterationOutcome], point: Tuple[int, str]
    ) -> AmplifiedOutcome:
        kept, reason = point
        amp = _merge([ordered[:kept]], kept, stop_on_detect)
        amp.seeds_requested = iterations
        amp.target_accepts = target
        amp.stop_reason = reason
        return amp

    if jobs == 1 or cap == 1:
        # Inline path: run up to the first point the rule *could* fire
        # (the confidence target if one is set, else the cap); only a
        # rejection under stop_on_detect=False forces the continuation.
        first_stop = cap if target is None else min(cap, target)
        ordered = _run_chunk({**spec_base, "start": 0, "stop": first_stop})
        if governor is not None:
            for o in ordered:
                governor.observe(o.rounds * o.total_bits)
        point = _stopping_point(ordered, cap, target, stop_on_detect)
        if point is None:
            tail = _run_chunk(
                {**spec_base, "start": len(ordered), "stop": cap}
            )
            if governor is not None:
                for o in tail:
                    governor.observe(o.rounds * o.total_bits)
            ordered = ordered + tail
            point = _stopping_point(ordered, cap, target, stop_on_detect)
        assert point is not None
        return _finish(ordered, point)

    jobs = min(jobs, cap)
    sharing = bool(share_graph) and jobs > 1
    token = spec_base["net_token"]
    with _shipping(token) if sharing else contextlib.nullcontext():
        if sharing:
            # Build (or reuse) the network parent-side, export its CSR
            # arrays once, and swap the pickled graph out of the specs for
            # a small handle.  The parent-side LRU entry means the inline
            # fallback paths (_salvage, serial degradation) hit the cache
            # -- and attach_network reuses the export mapping in-process
            # anyway.  ``_shipping`` keeps the export linked until this
            # call is done with it, even if the LRU evicts the network.
            from .shm import export_network

            net = _cached_network(
                token,
                lambda: CongestNetwork(graph, bandwidth=bandwidth, **network_kwargs),
            )
            spec_base = {k: v for k, v in spec_base.items() if k != "graph"}
            spec_base["shm_graph"] = export_network(net, token)
        adaptive = (
            target is not None or batch_seeds is not None or governor is not None
        )
        want = batch_seeds or (jobs * max(1, chunks_per_job) if adaptive else cap)

        ordered = []
        state: Dict[str, Any] = {"attempt": 0, "serial": False}
        next_seed = 0
        point = None
        while point is None and next_seed < cap:
            size = min(want, cap - next_seed)
            eff_jobs = jobs
            if governor is not None:
                eff_jobs = governor.allowed(jobs)
                if eff_jobs < jobs:
                    size = min(size, eff_jobs * max(1, chunks_per_job))
                    _notify(
                        on_govern,
                        requested_jobs=jobs,
                        granted_jobs=eff_jobs,
                        batch=size,
                        **governor.snapshot(),
                    )
            # Unthrottled, a batch fans out jobs * chunks_per_job chunks
            # (small chunks keep the stop-on-detect cut tight); a throttled
            # batch submits exactly eff_jobs chunks so at most that many run
            # concurrently.
            n_chunks = min(size, eff_jobs if eff_jobs < jobs else jobs * max(
                1, chunks_per_job
            ))
            bounds = [
                next_seed + (size * i) // n_chunks for i in range(n_chunks + 1)
            ]
            specs = [
                {**spec_base, "start": lo, "stop": hi}
                for lo, hi in zip(bounds, bounds[1:])
            ]
            chunks = _resilient_chunks(
                jobs, specs, stop_on_detect, worker_timeout,
                pool_retries, backoff_base, on_degrade, state,
            )
            flat = [o for chunk in chunks for o in chunk]
            if governor is not None:
                for o in flat:
                    governor.observe(o.rounds * o.total_bits)
            ordered.extend(flat)
            next_seed += size
            point = _stopping_point(ordered, cap, target, stop_on_detect)
        assert point is not None
        return _finish(ordered, point)


def _notify(
    on_degrade: Optional[Callable[[Dict[str, Any]], None]], **step: Any
) -> None:
    if on_degrade is not None:
        on_degrade(dict(step))


def _resilient_chunks(
    jobs: int,
    specs: List[Dict[str, Any]],
    stop_on_detect: bool,
    timeout: Optional[float],
    pool_retries: int,
    backoff_base: float,
    on_degrade: Optional[Callable[[Dict[str, Any]], None]],
    state: Dict[str, Any],
) -> List[List[IterationOutcome]]:
    """Run one batch of chunk specs to completion, surviving the ladder.

    ``state`` carries the degradation position across batches of one
    :func:`run_amplified` call: ``attempt`` counts pool rebuilds (the
    retry budget is per-call, not per-batch) and ``serial`` pins the
    call to inline execution once the budget is spent.  Each gather pass
    fills a positional ``results`` list; a broken pool costs only the
    chunks that were genuinely lost -- finished futures are harvested,
    and the rebuilt attempt resubmits the true holes alone.
    """
    results: List[Optional[List[IterationOutcome]]] = [None] * len(specs)
    while not state["serial"]:
        timed_out, broken = _submit_and_gather(
            jobs, specs, results, stop_on_detect, timeout
        )
        if timed_out:
            # A worker blew its deadline and may hang forever; the pool
            # was discarded (a wedged worker would stall every later
            # caller), and the holes are recomputed inline.
            salvaged = _salvage(results, specs, stop_on_detect)
            _notify(
                on_degrade,
                step="timeout-salvage",
                timeout_s=timeout,
                chunks_salvaged=sum(
                    1 for i in range(len(salvaged)) if results[i] is None
                ),
            )
            return salvaged
        if not broken:
            return _salvage(results, specs, stop_on_detect)
        # A worker died (OOM-killed, signalled, ...).  The pool is
        # unusable and already discarded; back off, rebuild, retry --
        # and after pool_retries rebuilds give up on parallelism
        # entirely: the serial path is bit-identical, just slower.
        state["attempt"] += 1
        if state["attempt"] > pool_retries:
            state["serial"] = True
            _notify(
                on_degrade,
                step="serial-fallback",
                reason="broken-process-pool",
                rebuilds=state["attempt"] - 1,
            )
            break
        delay = backoff_base * (2 ** (state["attempt"] - 1))
        _notify(
            on_degrade,
            step="pool-rebuild",
            attempt=state["attempt"],
            of=pool_retries,
            backoff_s=delay,
            chunks_kept=sum(1 for r in results if r is not None),
        )
        time.sleep(delay)
    return _salvage(results, specs, stop_on_detect)


def _harvest_done(
    futures: Dict[int, Any],
    results: List[Optional[List[IterationOutcome]]],
) -> None:
    """Collect finished futures' results positionally.

    Called before a pool is discarded (break or timeout): chunks that
    completed must never be recomputed.  Futures whose result *is* the
    failure (the crashed chunk, or siblings poisoned by the broken pool)
    stay holes for the retry/salvage path.
    """
    for i, fut in futures.items():
        if results[i] is not None or not fut.done():
            continue
        try:
            results[i] = fut.result(timeout=0)
        except Exception:
            continue


def _submit_and_gather(
    jobs: int,
    specs: List[Dict[str, Any]],
    results: List[Optional[List[IterationOutcome]]],
    stop_on_detect: bool,
    timeout: Optional[float],
) -> Tuple[bool, bool]:
    """Submit the unresolved chunk specs; gather in order, in place.

    Fills ``results`` (positionally aligned with ``specs``) and returns
    ``(timed_out, broken)``.  Only holes are submitted -- indices already
    resolved by a previous attempt are kept -- and holes past the first
    known rejecting chunk are skipped entirely (the merge never needs
    them).  On a timeout or a broken pool, finished-but-uncollected
    futures are harvested and the pool is discarded before returning,
    so a failure costs only the work that was genuinely lost.  Only the
    pool this call used is discarded: concurrent callers share it, and
    a sibling may already have registered a healthy rebuild.
    """
    holes = [i for i, r in enumerate(results) if r is None]
    if stop_on_detect:
        for j, r in enumerate(results):
            if r is not None and any(o.rejected for o in r):
                holes = [i for i in holes if i < j]
                break
    if not holes:
        return False, False
    pool = _get_pool(jobs)
    try:
        futures = {i: pool.submit(_run_chunk, specs[i]) for i in holes}
    except BrokenProcessPool:
        _discard_pool(jobs, pool=pool)
        return False, True
    timed_out = broken = False
    try:
        for i in holes:
            fut = futures[i]
            try:
                results[i] = fut.result(timeout=timeout)
            except FuturesTimeoutError:
                timed_out = True
                break
            except BrokenProcessPool:
                broken = True
                break
            if stop_on_detect and any(o.rejected for o in results[i]):
                # Everything before the first rejecting seed is in hand;
                # later chunks can only lose the first-reject race.
                break
    except KeyboardInterrupt:
        # Ctrl-C: don't leak workers.  Cancel what hasn't started, tear
        # the pool down without waiting on what has, propagate.
        for fut in futures.values():
            fut.cancel()
        _discard_pool(jobs, pool=pool)
        raise
    finally:
        if timed_out or broken:
            _harvest_done(futures, results)
            _discard_pool(jobs, pool=pool)
        for fut in futures.values():
            fut.cancel()
    return timed_out, broken


def _salvage(
    results: List[Optional[List[IterationOutcome]]],
    specs: List[Dict[str, Any]],
    stop_on_detect: bool,
) -> List[List[IterationOutcome]]:
    """Fill result holes inline, stopping past the first rejecting chunk.

    Walking specs in iteration order and re-running only the holes that
    the sequential loop would have reached keeps the merge input exactly
    what the sequential loop produces: holes after a rejecting chunk are
    (correctly) never run, holes before it are recomputed inline --
    deterministic, so a salvaged chunk equals the one the lost worker
    was computing.
    """
    out: List[List[IterationOutcome]] = []
    for i, res in enumerate(results):
        if res is None:
            res = _run_chunk(specs[i])
        out.append(res)
        if stop_on_detect and any(o.rejected for o in res):
            break
    return out


def _merge(
    chunks: List[List[IterationOutcome]], iterations: int, stop_on_detect: bool
) -> AmplifiedOutcome:
    by_index: Dict[int, IterationOutcome] = {}
    for chunk in chunks:
        for o in chunk:
            by_index[o.index] = o
    rejecting = sorted(i for i, o in by_index.items() if o.rejected)
    first_reject = rejecting[0] if rejecting else None
    if first_reject is not None and stop_on_detect:
        iterations_run = first_reject + 1
    else:
        iterations_run = iterations
    outcomes = [by_index[i] for i in range(iterations_run) if i in by_index]
    # Contiguity invariant: chunks are contiguous and only stop early at a
    # rejection, so every index < iterations_run must be present.
    if len(outcomes) != iterations_run:
        missing = [i for i in range(iterations_run) if i not in by_index]
        raise RuntimeError(f"amplification lost iterations {missing[:5]}")
    # Parent-side merge: the outcome never crosses into a worker, and its
    # fields are deliberately settable post-merge (stop_reason, targets).
    return AmplifiedOutcome(  # repro: noqa[L8]
        rejected=first_reject is not None,
        first_reject=first_reject,
        iterations_run=iterations_run,
        outcomes=outcomes,
    )

"""The vectorized execution lane of the CONGEST engine.

The object lane (:meth:`CongestNetwork.run` driving an
:class:`~repro.congest.algorithm.Algorithm`) calls one Python method per
node per round and allocates one :class:`~repro.congest.message.Message`
per directed edge per round.  For the paper's uniform-message workloads --
adjacency-bitmap shipping (clique detection [10]), pipelined color-coded
BFS (Theorem 1.1 and the O(n) baseline), the one-round broadcast protocols
of Section 5 -- that per-object overhead dominates the wall clock.

This module is the opt-in fast lane: a :class:`VectorizedAlgorithm`
declares a per-message payload dtype and implements **one** batched
:meth:`~VectorizedAlgorithm.step_all` over numpy arrays covering every
node at once.  The engine packs and unpacks inboxes through precomputed
CSR-style edge index arrays (:class:`EdgeIndex`), so a round is a handful
of array operations instead of ``n`` callbacks and ``2m`` allocations.

Model fidelity is not relaxed:

* **Bandwidth is enforced**, not merely recorded: a declared per-message
  size above ``B`` raises :class:`~repro.congest.message.BandwidthExceeded`
  exactly as in the object lane.
* **Bit accounting is exact.**  Aggregates come from array shapes and
  sums; ``metrics="full"`` is supported via lazy expansion (per-edge /
  per-node totals are accumulated in flat arrays during the run and
  expanded into the :class:`~repro.congest.metrics.CommMetrics`
  dictionaries once, at the end).  A vectorized run and its object-lane
  reference produce bit-identical ledgers -- the differential test suite
  in ``tests/core/test_vectorized_diff.py`` pins this.
* **At most one message per directed edge per round** is validated on
  every outbox.
* **Randomness** is spawned from the master seed per node in sorted-id
  order -- the same derivation as the object lane, so color draws and
  coin flips agree bit-for-bit between lanes.

Inbox ordering contract: within one receiver, messages are ordered by
ascending sender identifier -- the same order in which the object lane's
``inbox.items()`` iterates (the engine visits senders in sorted-id order).
Kernels that resolve same-round races by "first message wins" therefore
agree with their object-lane reference by construction.

When the object lane is mandatory: the lower-bound harnesses (transcript
extraction, per-message adversaries) observe individual messages through
the observer slot and through ``metrics="full"`` per-edge queries *during*
the run; they must drive the object lane.  The vectorized lane is for
upper-bound sweeps and benchmarks.  See ``docs/engine_performance.md``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algorithm import Decision
from .kernels import KernelProfile, RoundKernel, resolve_backend
from .message import BandwidthExceeded
from .metrics import METRIC_MODES, CommMetrics

__all__ = [
    "EdgeIndex",
    "VecInbox",
    "VecOutbox",
    "VecRun",
    "VectorizedAlgorithm",
    "execute_vectorized",
    "execute_vectorized_reference",
    "VEC_UNDECIDED",
    "VEC_ACCEPT",
    "VEC_REJECT",
]

#: Integer codes used in the engine-owned per-node ``decision`` array.
VEC_UNDECIDED, VEC_ACCEPT, VEC_REJECT = 0, 1, 2

_DECISION_OF_CODE = {
    VEC_UNDECIDED: Decision.UNDECIDED,
    VEC_ACCEPT: Decision.ACCEPT,
    VEC_REJECT: Decision.REJECT,
}

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+counts[i])`` without a loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return out + np.arange(total, dtype=np.int64)


class EdgeIndex:
    """Read-only CSR-style index of a network's directed edges.

    Built once per :class:`~repro.congest.network.CongestNetwork` (see
    :meth:`CongestNetwork.edge_index`) and shared by every vectorized run
    on that network.  All arrays are flagged read-only so that sharing
    them across runs -- and handing them to kernels -- can never become a
    covert channel (the sanitizer's :class:`AliasGuard` exempts
    non-writable arrays for exactly this reason).

    Positions vs identifiers: kernels index nodes by *position*
    ``0..n-1`` in sorted-identifier order; ``ids[pos]`` maps back to the
    identifier, :meth:`pos_of` maps identifiers to positions.

    Attributes
    ----------
    ids : ``(n,)`` node identifiers, ascending.
    src, dst : ``(E,)`` endpoint *positions* of each directed edge, sorted
        lexicographically by ``(src, dst)`` ("out order").
    out_ptr : ``(n+1,)`` CSR offsets: node ``p``'s out-edges are
        ``src[out_ptr[p]:out_ptr[p+1]]``.
    in_rank : ``(E,)`` rank of each out-order edge in the ``(dst, src)``
        ordering ("in order") -- the delivery permutation.
    deg : ``(n,)`` node degrees.
    in_order : ``(E,)`` inverse of ``in_rank``: the out-order edge index at
        each in-order rank (``in_rank[in_order] == arange(E)``).
    in_recv, in_send : ``(E,)`` receiver / sender positions in in order --
        the precomputed ``(recv, send)`` layout a full-broadcast round
        delivers into without any per-round sorting.
    """

    __slots__ = (
        "n",
        "num_directed",
        "ids",
        "src",
        "dst",
        "out_ptr",
        "in_rank",
        "deg",
        "in_order",
        "in_recv",
        "in_send",
        "_all_edges",
    )

    def __init__(
        self,
        node_ids: Sequence[int],
        neighbor_tuples: Dict[int, Tuple[int, ...]],
    ) -> None:
        ids = np.asarray(node_ids, dtype=np.int64)
        n = ids.shape[0]
        deg = np.fromiter(
            (len(neighbor_tuples[int(u)]) for u in ids), dtype=np.int64, count=n
        )
        e = int(deg.sum())
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        nbr_ids = np.fromiter(
            chain.from_iterable(neighbor_tuples[int(u)] for u in ids),
            dtype=np.int64,
            count=e,
        )
        # Every neighbor identifier is a node identifier, so searchsorted
        # against the sorted id array is the id -> position map.
        dst = np.searchsorted(ids, nbr_ids)
        # node_ids and each neighbor tuple are sorted ascending, so (src,
        # dst) is already in lexicographic out order.
        self._finalize(ids, src, dst, deg=deg)

    @classmethod
    def from_arrays(
        cls,
        ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        deg: Optional[np.ndarray] = None,
        out_ptr: Optional[np.ndarray] = None,
        in_rank: Optional[np.ndarray] = None,
        in_order: Optional[np.ndarray] = None,
        in_recv: Optional[np.ndarray] = None,
        in_send: Optional[np.ndarray] = None,
    ) -> "EdgeIndex":
        """Build an index directly from CSR arrays.

        The shared-memory attach path (:mod:`repro.congest.shm`) uses this
        to wrap a worker's zero-copy views of the parent's arrays; any
        derived array not supplied is recomputed.  ``src``/``dst`` must be
        in lexicographic out order and ``ids`` ascending -- exactly what
        a regular construction produces.
        """
        self = object.__new__(cls)
        self._finalize(
            np.asarray(ids, dtype=np.int64),
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            deg=deg,
            out_ptr=out_ptr,
            in_rank=in_rank,
            in_order=in_order,
            in_recv=in_recv,
            in_send=in_send,
        )
        return self

    def _finalize(
        self,
        ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        deg: Optional[np.ndarray] = None,
        out_ptr: Optional[np.ndarray] = None,
        in_rank: Optional[np.ndarray] = None,
        in_order: Optional[np.ndarray] = None,
        in_recv: Optional[np.ndarray] = None,
        in_send: Optional[np.ndarray] = None,
    ) -> None:
        n = ids.shape[0]
        e = int(src.shape[0])
        if deg is None:
            deg = np.bincount(src, minlength=n).astype(np.int64)
        if out_ptr is None:
            out_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=out_ptr[1:])
        if in_rank is None:
            in_order = np.lexsort((src, dst)).astype(np.int64, copy=False)
            in_rank = np.empty_like(in_order)
            in_rank[in_order] = np.arange(e, dtype=np.int64)
        elif in_order is None:
            in_order = np.empty_like(in_rank)
            in_order[in_rank] = np.arange(e, dtype=np.int64)
        if in_recv is None:
            in_recv = dst[in_order]
        if in_send is None:
            in_send = src[in_order]
        all_edges = np.arange(e, dtype=np.int64)
        for arr in (
            ids,
            src,
            dst,
            out_ptr,
            in_rank,
            deg,
            in_order,
            in_recv,
            in_send,
            all_edges,
        ):
            arr.setflags(write=False)
        self.n = int(n)
        self.num_directed = e
        self.ids = ids
        self.src = src
        self.dst = dst
        self.out_ptr = out_ptr
        self.in_rank = in_rank
        self.deg = deg
        self.in_order = in_order
        self.in_recv = in_recv
        self.in_send = in_send
        self._all_edges = all_edges

    # ------------------------------------------------------------------
    def pos_of(self, identifiers: np.ndarray) -> np.ndarray:
        """Positions of the given identifiers (which must all be node ids)."""
        return np.searchsorted(self.ids, identifiers)

    def out_edges(self, sender_positions: np.ndarray) -> np.ndarray:
        """Out-order edge indices of all edges leaving the given positions.

        Within one sender the edges appear in ascending receiver order;
        senders appear in the order given.  ``broadcast`` kernels build
        their outbox edge list with this.
        """
        sender_positions = np.asarray(sender_positions, dtype=np.int64)
        return _ranges(self.out_ptr[sender_positions], self.deg[sender_positions])

    def all_edges(self) -> np.ndarray:
        """Out-order indices of every directed edge (global broadcast).

        Returns the index's cached read-only arange: an outbox built from
        it is recognised *by identity* in the fused round kernel and skips
        outbox validation entirely (the array is the engine's own
        constant, necessarily sorted / unique / in range).
        """
        return self._all_edges


@dataclass
class VecInbox:
    """One round's delivered traffic, packed.

    Messages are sorted by ``(recv, send)`` -- i.e. grouped by receiver,
    ascending sender within each receiver, matching the object lane's
    inbox iteration order.  ``payload`` is ``None`` for an empty round.
    ``sizes`` is per-message bit sizes when they vary, else ``None`` with
    the uniform size in ``size_bits``.
    """

    recv: np.ndarray
    send: np.ndarray
    payload: Optional[np.ndarray]
    sizes: Optional[np.ndarray] = None
    size_bits: int = 0

    @staticmethod
    def empty() -> "VecInbox":
        return VecInbox(recv=_EMPTY_I64, send=_EMPTY_I64, payload=None)

    def __len__(self) -> int:
        return int(self.recv.shape[0])


@dataclass
class VecOutbox:
    """One round's sends, packed.

    ``edges`` are out-order directed edge indices (at most one message per
    edge per round -- the engine validates).  ``payload`` is an array with
    leading dimension ``len(edges)``, row ``i`` riding edge ``edges[i]``.
    ``size_bits`` is the honest on-wire cost: a scalar when every message
    has the same size this round, else a per-message array.  It is a
    required argument by design -- vectorized senders always declare their
    bit cost (the L5 lint rule checks this statically).
    """

    edges: np.ndarray
    payload: np.ndarray
    size_bits: Union[int, np.ndarray]


@dataclass
class VecRun:
    """Engine-owned run context handed to every kernel callback.

    ``decision`` and ``halted`` are the engine's per-node output arrays
    (indexed by position); kernels write them directly.  ``rngs`` holds
    one per-node generator spawned from the master seed in sorted-id
    order -- identical derivation to the object lane, so randomized
    kernels reproduce their reference bit-for-bit.  ``inputs`` is keyed
    by *identifier* (as in :class:`CongestNetwork`).
    """

    grid: EdgeIndex
    n: int
    namespace_size: int
    bandwidth: Optional[int]
    knows_n: bool
    inputs: Dict[int, Any]
    rngs: List[Optional[np.random.Generator]]
    decision: np.ndarray = field(default=None)  # type: ignore[assignment]
    halted: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.decision is None:
            self.decision = np.zeros(self.n, dtype=np.int8)
        if self.halted is None:
            self.halted = np.zeros(self.n, dtype=bool)

    def input_of(self, pos: int) -> Any:
        return self.inputs.get(int(self.grid.ids[pos]))


class _LazyRngs:
    """Per-node generators spawned on first touch (fused lane only).

    Constructing ``n`` :class:`numpy.random.Generator` objects dominates
    the whole engine wrapper at ``n ~ 10^5`` (well over a second at
    ``n = 65536``), yet most vectorized kernels never read ``run.rngs``.
    This sequence holds only the derived seeds and builds each generator
    at its first ``[p]`` access, caching it for repeat reads.

    Seed derivation is bit-identical to the eager list: numpy's bounded
    ``integers(0, 2**63)`` consumes exactly one 64-bit word per value
    (the bound is a power of two, so masking never rejects), hence the
    vectorized ``size=n`` draw yields the same stream as ``n`` sequential
    single-value draws -- pinned by a regression test.
    """

    __slots__ = ("_seeds", "_made")

    def __init__(self, seeds: np.ndarray):
        self._seeds = seeds
        self._made: Dict[int, np.random.Generator] = {}

    def __len__(self) -> int:
        return int(self._seeds.shape[0])

    def __getitem__(self, pos: int) -> np.random.Generator:
        rng = self._made.get(pos)
        if rng is None:
            rng = np.random.default_rng(int(self._seeds[pos]))
            self._made[pos] = rng
        return rng

    def materialized(self, pos: int) -> Optional[np.random.Generator]:
        """The generator for ``pos`` if the run ever touched it."""
        return self._made.get(pos)


class VectorizedAlgorithm(abc.ABC):
    """A CONGEST algorithm expressed as batched array kernels.

    One instance describes what *every* node runs, exactly like
    :class:`~repro.congest.algorithm.Algorithm`; but instead of a per-node
    ``round`` callback it implements :meth:`step_all`, called once per
    round with the whole network's packed inbox.  All run state lives in
    the dict returned by :meth:`init_state` -- the instance itself must
    stay read-only configuration (the sanitizer enforces this under
    ``sanitize=True``).

    The dtype contract: ``message_dtype`` (class attribute or per-run via
    the payload arrays) fixes the wire format; every outbox declares its
    honest per-message ``size_bits``.  The engine never infers sizes from
    payload bytes -- declared bits are the accounting, as with
    ``Message.of_record`` in the object lane.

    Halting discipline: the engine skips :meth:`step_all` only once
    **every** node has halted.  A kernel whose nodes halt at different
    times must itself refrain from acting for halted positions.

    Optional ``wake_round(run, state, r) -> int`` hook: the earliest round
    ``>= r`` in which any non-halted node could send, change ``state``,
    its decision or its halt flag, assuming nothing is delivered.  After a
    silent round the engine jumps straight there and bills the skipped
    rounds as executed silent rounds -- the object lane's
    ``Algorithm.wake_round`` contract, batched.  ``None`` (the default)
    runs every round.
    """

    #: Human-readable name used in benchmark tables.
    name: str = "vectorized-algorithm"
    #: Optional ``wake_round(run, state, r) -> int`` hook (see the class doc).
    wake_round: Optional[Callable[[VecRun, Dict[str, Any], int], int]] = None
    #: Fixed per-message payload dtype, when one exists for the whole
    #: class (``None``: the kernel builds payloads per run, e.g. chunked
    #: bitmaps whose width depends on ``B``).
    message_dtype: Optional[np.dtype] = None

    @abc.abstractmethod
    def init_state(self, run: VecRun) -> Dict[str, Any]:
        """Build the packed run state (the analogue of every ``init``)."""

    @abc.abstractmethod
    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        """Execute round ``r`` for all nodes at once.

        Returns the packed outbox, or ``None`` for a silent round.
        """

    def finish_all(self, run: VecRun, state: Dict[str, Any]) -> None:
        """Called once after the last round (the analogue of ``finish``)."""

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        """Affirm that every non-halted node is idle (quiescence probe).

        Mirrors the object lane's optional ``is_quiescent`` hook: the
        default ``False`` means "never assume quiescent", so silent
        rounds mid-schedule are billed exactly as in the object lane.
        """
        return False

    def node_state(self, run: VecRun, state: Dict[str, Any], pos: int) -> Dict[str, Any]:
        """Per-node state dict for the synthesized final ``NodeContext``.

        Ports expose whatever their object-lane reference leaves behind
        that callers read -- e.g. ``{"witness": ...}`` for rejecting
        nodes, consumed by ``run_amplified``'s summary.
        """
        return {}


def execute_vectorized(
    net: Any,
    algorithm: VectorizedAlgorithm,
    max_rounds: int,
    seed: Optional[int],
    stop_on_reject: bool,
    metrics: str,
    observer: Optional[Any] = None,
    injector: Optional[Any] = None,
    backend: Optional[str] = None,
    profile: Optional[KernelProfile] = None,
):
    """One pass of the vectorized round loop over ``net``.

    Semantics mirror :meth:`CongestNetwork._execute` exactly: round
    boundaries, ``stop_on_reject``, the terminal silent quiescence-probe
    rollback, the ``wake_round`` fast-forward over silent rounds, and the
    metrics ledger are all bit-identical to an object-lane run of the
    same algorithm.  ``observer`` (when set) receives ``vec_after_init`` /
    ``vec_wake_promise`` / ``vec_round`` / ``vec_after_round`` /
    ``vec_after_finish`` callbacks -- the sanitizer's attachment points.

    ``injector`` (a :class:`~repro.faults.inject.FaultInjector`, when
    set) applies the same stateless fault schedule as the object lane:
    crash-stopped positions are force-halted with frozen decisions and
    their sends masked out of the outbox before validation and billing;
    delivery faults mask and zero rows of the packed inbox *after*
    billing, so the accounting still reflects what was sent.

    The per-round validate -> bill -> deliver sequence runs on a fused
    :class:`~repro.congest.kernels.RoundKernel` (``backend`` selects its
    primitive implementation; ``None``/``"numpy"`` is the reference).
    :func:`execute_vectorized_reference` is the frozen pre-fusion loop the
    differential suites and benchmarks compare against.  ``profile``
    (a :class:`~repro.congest.kernels.KernelProfile`, opt-in) accumulates
    per-phase wall-clock for the run; ``None`` keeps the loop timer-free.
    """
    from .network import ExecutionResult  # local import: network imports us
    from .algorithm import NodeContext

    if metrics not in METRIC_MODES:
        raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
    ops = resolve_backend(backend)
    comm = CommMetrics(mode=metrics)
    grid = net.edge_index()
    n = grid.n
    if seed is not None:
        master = np.random.default_rng(seed)
        # One vectorized draw, same stream as n sequential draws (see
        # _LazyRngs); generators themselves are built only on first use.
        rngs: Any = _LazyRngs(master.integers(0, 2**63, size=n))
    else:
        rngs = [None] * n
    run = VecRun(
        grid=grid,
        n=n,
        namespace_size=net.namespace_size,
        bandwidth=net.bandwidth,
        knows_n=net.knows_n,
        inputs=net.inputs,
        rngs=rngs,
    )
    state = algorithm.init_state(run)
    if observer is not None:
        observer.vec_after_init(run)

    full = metrics == "full"
    kernel = RoundKernel(
        grid,
        net.bandwidth,
        comm,
        observer=observer,
        injector=injector,
        ops=ops,
        profile=profile,
        track_full=full,
    )

    # Fault state: per-position crash rounds (schedule entries naming
    # identifiers absent from this graph are ignored, as in the object
    # lane) and the frozen decisions of activated crashes.
    crash_round_pos: Optional[np.ndarray] = None
    if injector is not None and injector.crash_round_of:
        never = np.iinfo(np.int64).max
        cr = np.full(n, never, dtype=np.int64)
        for u, at in injector.crash_round_of.items():
            p = int(np.searchsorted(grid.ids, u))
            if p < n and int(grid.ids[p]) == u:
                cr[p] = at
        if bool((cr != never).any()):
            crash_round_pos = cr
    crash_halted = np.zeros(n, dtype=bool)
    frozen_decision = np.zeros(n, dtype=run.decision.dtype)

    # Same wake-round policy as the object lane: no skip and no audit
    # under faults; under an observer every round runs and is audited.
    wake = algorithm.wake_round if injector is None else None
    inbox = VecInbox.empty()
    rounds_run = 0
    any_traffic = True
    r = 0
    while r < max_rounds:
        if crash_round_pos is not None:
            # Crash-stop activation, identical to the object lane: the
            # node is a forced halt from its scheduled round on and its
            # decision freezes at the value it had when that round began.
            newly = (~crash_halted) & (crash_round_pos <= r)
            if newly.any():
                frozen_decision[newly] = run.decision[newly]
                crash_halted |= newly
                run.halted[newly] = True
        if run.halted.all():
            break
        if stop_on_reject and bool((run.decision == VEC_REJECT).any()):
            break
        if not any_traffic and wake is not None:
            nxt = wake(run, state, r)
            if observer is not None:
                observer.vec_wake_promise(r, run, state, nxt)
            elif nxt > r:
                # Provably silent rounds r .. nxt-1: billed as executed.
                r = rounds_run = min(nxt, max_rounds)
                if r >= max_rounds:
                    break
        if profile is not None:
            t0 = time.perf_counter()
        out = algorithm.step_all(run, r, state, inbox)
        if profile is not None:
            profile.step_s += time.perf_counter() - t0
        if crash_round_pos is not None and crash_halted.any():
            # Kernels may keep writing crashed positions' outputs; the
            # engine owns crash semantics, so pin them back every round.
            run.decision[crash_halted] = frozen_decision[crash_halted]
            run.halted |= crash_halted
        any_traffic = out is not None and out.edges.shape[0] > 0
        if any_traffic:
            edges = np.asarray(out.edges, dtype=np.int64)
            payload = np.asarray(out.payload)
            if payload.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: outbox payload rows ({payload.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            sizes = out.size_bits
            per_message = isinstance(sizes, np.ndarray)
            if per_message and sizes.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: size_bits array length ({sizes.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            if crash_round_pos is not None and crash_halted.any():
                # A crashed node sends nothing: mask its edges out before
                # validation and billing, exactly as the object lane's
                # forced halt keeps its round callback from running.
                alive = ~crash_halted[grid.src[edges]]
                if not alive.all():
                    edges = edges[alive]
                    payload = payload[alive]
                    if per_message:
                        sizes = sizes[alive]
                    any_traffic = edges.shape[0] > 0
        if any_traffic:
            # Fused validate -> bill -> deliver pass (see kernels.py).
            inbox = kernel.process(r, edges, payload, sizes, per_message)
        else:
            inbox = VecInbox.empty()
            if observer is not None:
                observer.vec_round(r, _EMPTY_I64, 0, None)
        rounds_run = r + 1
        if observer is not None:
            observer.vec_after_round(r, run)
        if not any_traffic and algorithm.all_quiescent(run, state):
            # Terminal silent quiescence probe: not billable (see the
            # engine module docstring).  Identical rollback to the object
            # lane.
            rounds_run = r
            break
        r += 1

    algorithm.finish_all(run, state)
    if crash_round_pos is not None and crash_halted.any():
        # A crashed node never reaches finish: restore its frozen
        # decision over whatever finish_all computed from its dead state.
        run.decision[crash_halted] = frozen_decision[crash_halted]
        run.halted |= crash_halted

    contexts: Dict[int, NodeContext] = {}
    decisions: Dict[int, Decision] = {}
    lazy_rngs = rngs if isinstance(rngs, _LazyRngs) else None
    for p in range(n):
        u = int(grid.ids[p])
        d = _DECISION_OF_CODE[int(run.decision[p])]
        ctx = NodeContext(
            id=u,
            neighbors=net._neighbor_tuples[u],
            n=net.n if net.knows_n else None,
            namespace_size=net.namespace_size,
            bandwidth=net.bandwidth,
            input=net.inputs.get(u),
            # Only generators the kernel actually touched ride into the
            # synthesized contexts; spawning n untouched ones here would
            # undo the lazy win.  (node.rng is only ever *used* during
            # object-lane execution.)
            rng=lazy_rngs.materialized(p) if lazy_rngs is not None else rngs[p],
            state=dict(algorithm.node_state(run, state, p)),
            round=max(rounds_run - 1, 0),
            decision=d,
        )
        ctx._halted = bool(run.halted[p])
        contexts[u] = ctx
        decisions[u] = d
    if observer is not None:
        observer.vec_after_finish(contexts)

    # Lazy full-mode expansion: the kernel's flat accumulators become the
    # per-edge / per-node dictionaries only now, once, instead of 2m dict
    # updates per round.  No-op under lite metrics.
    kernel.expand_full_ledger()

    if any(d is Decision.REJECT for d in decisions.values()):
        global_decision = Decision.REJECT
    else:
        global_decision = Decision.ACCEPT
    return ExecutionResult(
        decision=global_decision,
        rounds=rounds_run,
        metrics=comm,
        node_decisions=decisions,
        contexts=contexts,
    )


def execute_vectorized_reference(
    net: Any,
    algorithm: VectorizedAlgorithm,
    max_rounds: int,
    seed: Optional[int],
    stop_on_reject: bool,
    metrics: str,
    observer: Optional[Any] = None,
    injector: Optional[Any] = None,
):
    """The frozen pre-fusion vectorized round loop.

    A verbatim copy of :func:`execute_vectorized` as it stood before the
    fused :class:`~repro.congest.kernels.RoundKernel` landed: per-round
    stable argsorts for outbox validation and delivery ordering, fresh
    temporaries every round, inline full-mode accumulators.  Kept as the
    baseline the fused engine is differentially tested against
    (``tests/congest/test_kernels.py``) and benchmarked against
    (``benchmarks/bench_scale.py`` asserts the fused speedup).  Not part
    of the production call path -- do not optimise.
    """
    from .network import ExecutionResult  # local import: network imports us
    from .algorithm import NodeContext

    if metrics not in METRIC_MODES:
        raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
    comm = CommMetrics(mode=metrics)
    grid = net.edge_index()
    n = grid.n
    master = np.random.default_rng(seed) if seed is not None else None
    rngs: List[Optional[np.random.Generator]] = [
        np.random.default_rng(master.integers(0, 2**63)) if master is not None else None
        for _ in range(n)
    ]
    run = VecRun(
        grid=grid,
        n=n,
        namespace_size=net.namespace_size,
        bandwidth=net.bandwidth,
        knows_n=net.knows_n,
        inputs=net.inputs,
        rngs=rngs,
    )
    state = algorithm.init_state(run)
    if observer is not None:
        observer.vec_after_init(run)

    full = metrics == "full"
    if full:
        edge_bits_acc = np.zeros(grid.num_directed, dtype=np.int64)
        edge_msgs_acc = np.zeros(grid.num_directed, dtype=np.int64)
        node_bits_acc = np.zeros(n, dtype=np.int64)
        node_msgs_acc = np.zeros(n, dtype=np.int64)

    apply_delivery = injector is not None and injector.affects_delivery
    crash_round_pos: Optional[np.ndarray] = None
    if injector is not None and injector.crash_round_of:
        never = np.iinfo(np.int64).max
        cr = np.full(n, never, dtype=np.int64)
        for u, at in injector.crash_round_of.items():
            p = int(np.searchsorted(grid.ids, u))
            if p < n and int(grid.ids[p]) == u:
                cr[p] = at
        if bool((cr != never).any()):
            crash_round_pos = cr
    crash_halted = np.zeros(n, dtype=bool)
    frozen_decision = np.zeros(n, dtype=run.decision.dtype)

    bandwidth = net.bandwidth
    inbox = VecInbox.empty()
    rounds_run = 0
    for r in range(max_rounds):
        if crash_round_pos is not None:
            newly = (~crash_halted) & (crash_round_pos <= r)
            if newly.any():
                frozen_decision[newly] = run.decision[newly]
                crash_halted |= newly
                run.halted[newly] = True
        if run.halted.all():
            break
        if stop_on_reject and bool((run.decision == VEC_REJECT).any()):
            break
        out = algorithm.step_all(run, r, state, inbox)
        if crash_round_pos is not None and crash_halted.any():
            run.decision[crash_halted] = frozen_decision[crash_halted]
            run.halted |= crash_halted
        any_traffic = out is not None and out.edges.shape[0] > 0
        if any_traffic:
            edges = np.asarray(out.edges, dtype=np.int64)
            payload = np.asarray(out.payload)
            if payload.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: outbox payload rows ({payload.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            sizes = out.size_bits
            per_message = isinstance(sizes, np.ndarray)
            if per_message and sizes.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: size_bits array length ({sizes.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            if crash_round_pos is not None and crash_halted.any():
                alive = ~crash_halted[grid.src[edges]]
                if not alive.all():
                    edges = edges[alive]
                    payload = payload[alive]
                    if per_message:
                        sizes = sizes[alive]
                    any_traffic = edges.shape[0] > 0
        if any_traffic:
            order = np.argsort(edges, kind="stable")
            if not np.array_equal(order, np.arange(order.shape[0])):
                edges = edges[order]
                payload = payload[order]
                if per_message:
                    sizes = sizes[order]
            if edges[0] < 0 or edges[-1] >= grid.num_directed:
                raise ValueError(f"round {r}: outbox edge index out of range")
            if edges.shape[0] > 1 and bool((np.diff(edges) == 0).any()):
                dup = int(edges[np.nonzero(np.diff(edges) == 0)[0][0]])
                u = int(grid.ids[grid.src[dup]])
                v = int(grid.ids[grid.dst[dup]])
                raise ValueError(
                    f"node {u} tried to send two messages to {v} in round {r}; "
                    "the model allows one message per edge per round"
                )
            if per_message:
                sizes = sizes.astype(np.int64, copy=False)
                max_size = int(sizes.max())
                min_size = int(sizes.min())
                bits = int(sizes.sum())
            else:
                max_size = min_size = int(sizes)
                bits = max_size * edges.shape[0]
            if min_size < 0:
                raise ValueError(f"round {r}: negative size_bits")
            if bandwidth is not None and max_size > bandwidth:
                if per_message:
                    bad = int(np.argmax(sizes > bandwidth))
                else:
                    bad = 0
                e = int(edges[bad])
                u = int(grid.ids[grid.src[e]])
                v = int(grid.ids[grid.dst[e]])
                sz = int(sizes[bad]) if per_message else max_size
                raise BandwidthExceeded(
                    f"node {u} -> {v}: message of {sz} bits exceeds B={bandwidth}"
                )
            comm.add_round(r, bits, int(edges.shape[0]), max_size)
            if full:
                if per_message:
                    edge_bits_acc[edges] += sizes
                    np.add.at(node_bits_acc, grid.src[edges], sizes)
                else:
                    edge_bits_acc[edges] += max_size
                    np.add.at(node_bits_acc, grid.src[edges], max_size)
                edge_msgs_acc[edges] += 1
                np.add.at(node_msgs_acc, grid.src[edges], 1)
            if observer is not None:
                observer.vec_round(r, edges, sizes, payload)
            if apply_delivery:
                keep, corrupt = injector.delivery_mask(
                    r,
                    grid.ids[grid.src[edges]],
                    grid.ids[grid.dst[edges]],
                    sizes if per_message else int(sizes),
                )
                if corrupt.any():
                    payload = payload.copy()
                    payload[corrupt] = np.zeros((), dtype=payload.dtype)
                if not keep.all():
                    edges = edges[keep]
                    payload = payload[keep]
                    if per_message:
                        sizes = sizes[keep]
            if edges.shape[0] == 0:
                inbox = VecInbox.empty()
            else:
                dorder = np.argsort(grid.in_rank[edges], kind="stable")
                d_edges = edges[dorder]
                inbox = VecInbox(
                    recv=grid.dst[d_edges],
                    send=grid.src[d_edges],
                    payload=payload[dorder],
                    sizes=sizes[dorder] if per_message else None,
                    size_bits=0 if per_message else max_size,
                )
        else:
            inbox = VecInbox.empty()
            if observer is not None:
                observer.vec_round(r, _EMPTY_I64, 0, None)
        rounds_run = r + 1
        if observer is not None:
            observer.vec_after_round(r, run)
        if not any_traffic and algorithm.all_quiescent(run, state):
            rounds_run = r
            break

    algorithm.finish_all(run, state)
    if crash_round_pos is not None and crash_halted.any():
        run.decision[crash_halted] = frozen_decision[crash_halted]
        run.halted |= crash_halted

    contexts: Dict[int, NodeContext] = {}
    decisions: Dict[int, Decision] = {}
    for p in range(n):
        u = int(grid.ids[p])
        d = _DECISION_OF_CODE[int(run.decision[p])]
        ctx = NodeContext(
            id=u,
            neighbors=net._neighbor_tuples[u],
            n=net.n if net.knows_n else None,
            namespace_size=net.namespace_size,
            bandwidth=net.bandwidth,
            input=net.inputs.get(u),
            rng=rngs[p],
            state=dict(algorithm.node_state(run, state, p)),
            round=max(rounds_run - 1, 0),
            decision=d,
        )
        ctx._halted = bool(run.halted[p])
        contexts[u] = ctx
        decisions[u] = d
    if observer is not None:
        observer.vec_after_finish(contexts)

    if full:
        src_ids = grid.ids[grid.src]
        dst_ids = grid.ids[grid.dst]
        for e in np.nonzero(edge_msgs_acc)[0]:
            comm.edge_bits[(int(src_ids[e]), int(dst_ids[e]))] = int(edge_bits_acc[e])
        for p in np.nonzero(node_msgs_acc)[0]:
            u = int(grid.ids[p])
            comm.node_bits[u] = int(node_bits_acc[p])
            comm.node_messages[u] = int(node_msgs_acc[p])

    if any(d is Decision.REJECT for d in decisions.values()):
        global_decision = Decision.REJECT
    else:
        global_decision = Decision.ACCEPT
    return ExecutionResult(
        decision=global_decision,
        rounds=rounds_run,
        metrics=comm,
        node_decisions=decisions,
        contexts=contexts,
    )

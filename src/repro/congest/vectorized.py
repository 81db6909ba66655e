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
* **Randomness** is one stream per node derived from the master seed in
  sorted-id order by :mod:`repro.congest.randomness`, which the object
  lane uses too, so color draws and coin flips agree bit-for-bit between
  lanes.

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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algorithm import Decision, NodeContext
from .kernels import KernelProfile, RoundKernel
from .metrics import METRIC_MODES, CommMetrics
from .randomness import LazyRngs
from .schedule import run_schedule

__all__ = [
    "EdgeIndex",
    "VecInbox",
    "VecOutbox",
    "VecRun",
    "VectorizedAlgorithm",
    "execute_vectorized",
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
_CODE_OF_DECISION = {d: c for c, d in _DECISION_OF_CODE.items()}

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
        """Positions of the given identifiers (which must all be node ids).

        Ascending distinct ids running from 0 to n - 1 are exactly
        ``0..n-1`` (the canonical labelling), where a position is its id:
        that case copies instead of binary-searching every identifier."""
        ids = self.ids
        if self.n and ids[0] == 0 and ids[-1] == self.n - 1:
            return np.array(identifiers, dtype=np.int64)
        return np.searchsorted(ids, identifiers)

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
    (indexed by position); kernels write them directly.  ``rngs`` is the
    run's :class:`~repro.congest.randomness.LazyRngs` (a list of ``None``
    for an unseeded run): one stream per position, derived from the master
    seed in sorted-id order exactly as in the object lane, so randomized
    kernels reproduce their reference bit-for-bit.  ``inputs`` is keyed
    by *identifier* (as in :class:`CongestNetwork`).
    """

    grid: EdgeIndex
    n: int
    namespace_size: int
    bandwidth: Optional[int]
    knows_n: bool
    inputs: Dict[int, Any]
    rngs: Union[LazyRngs, List[None]]
    decision: np.ndarray = field(default=None)  # type: ignore[assignment]
    halted: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.decision is None:
            self.decision = np.zeros(self.n, dtype=np.int8)
        if self.halted is None:
            self.halted = np.zeros(self.n, dtype=bool)

    def input_of(self, pos: int) -> Any:
        return self.inputs.get(int(self.grid.ids[pos]))


class _FinalContexts(Mapping[int, NodeContext]):
    """Read-only ``id -> NodeContext`` view of a finished fused run.

    Each node's final context is synthesized on first access and cached;
    iteration is in ascending-identifier order, like the eager dict the
    object lane builds.  Most callers read a handful of contexts (e.g.
    ``run_amplified``'s summary reads only the rejecting nodes), so
    building all ``n`` up front would be pure overhead.  A context's
    ``rng`` is the node's generator as the run left it if the run touched
    that stream (built on demand after a :meth:`LazyRngs.first_integers`
    draw), else ``None`` -- as for an unseeded run; its ``state`` is
    :meth:`VectorizedAlgorithm.node_state`.
    """

    __slots__ = ("_net", "_algorithm", "_run", "_state", "_round", "_made")

    def __init__(
        self,
        net: Any,
        algorithm: "VectorizedAlgorithm",
        run: VecRun,
        state: Dict[str, Any],
        final_round: int,
    ) -> None:
        self._net = net
        self._algorithm = algorithm
        self._run = run
        self._state = state
        self._round = final_round
        self._made: Dict[int, NodeContext] = {}

    def __len__(self) -> int:
        return self._run.n

    def __iter__(self) -> Iterator[int]:
        return iter(self._run.grid.ids.tolist())

    def __getitem__(self, u: Any) -> NodeContext:
        ctx = self._made.get(u)
        if ctx is not None:
            return ctx
        ids = self._run.grid.ids
        try:
            p = int(np.searchsorted(ids, u))
        except (TypeError, ValueError):
            raise KeyError(u) from None
        if p >= ids.shape[0] or ids[p] != u:
            raise KeyError(u)
        u = int(ids[p])
        net, run = self._net, self._run
        rngs = run.rngs
        # Streams the run never touched stay None: building a generator
        # per context would cost every full pass over the mapping n
        # constructions (over a second at n = 65536).
        touched = rngs.touched(p) if isinstance(rngs, LazyRngs) else True
        ctx = NodeContext(
            id=u,
            neighbors=net._neighbor_tuples[u],
            n=net.n if net.knows_n else None,
            namespace_size=net.namespace_size,
            bandwidth=net.bandwidth,
            input=net.inputs.get(u),
            rng=rngs[p] if touched else None,
            state=dict(self._algorithm.node_state(run, self._state, p)),
            round=self._round,
            decision=_DECISION_OF_CODE[int(run.decision[p])],
        )
        ctx._halted = bool(run.halted[p])
        self._made[u] = ctx
        return ctx


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
    its decision or its halt flag, assuming nothing is delivered -- the
    object lane's ``Algorithm.wake_round``, batched.  ``None`` (the
    default) runs every round.  :mod:`repro.congest.schedule` states how
    the engine uses it and :meth:`all_quiescent`.
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

        Called when that node's final context is first read, after
        :meth:`finish_all`.  Ports expose whatever their object-lane
        reference leaves behind that callers read -- e.g. ``{"witness":
        ...}`` for rejecting nodes, consumed by ``run_amplified``'s
        summary.
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
    profile: Optional[KernelProfile] = None,
):
    """One vectorized-lane run over ``net`` on the shared round schedule
    (:func:`~repro.congest.schedule.run_schedule`), bit-identical to an
    object-lane run of the same algorithm.

    ``observer`` (the sanitizer) also gets ``vec_round`` once per round
    with the packed traffic.  ``injector`` (a
    :class:`~repro.faults.inject.FaultInjector`) masks and zeroes rows of
    the packed inbox *after* billing, as the object lane does per message;
    crashed positions' sends are masked out before validation and billing.
    Each round's validate -> bill -> deliver pass runs on a fused
    :class:`~repro.congest.kernels.RoundKernel`; ``profile`` (a
    :class:`~repro.congest.kernels.KernelProfile`, opt-in) times its
    phases.  The result's ``contexts`` synthesizes each final
    :class:`NodeContext` on first access.
    """
    if metrics not in METRIC_MODES:
        raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
    lane = _VecLane(net, algorithm, seed, metrics, observer, injector, profile)
    return run_schedule(lane, max_rounds, stop_on_reject, observer, injector)


class _VecLane:
    """The vectorized lane as the schedule driver sees it: one
    :meth:`VectorizedAlgorithm.step_all` and one fused kernel pass per
    step."""

    def __init__(self, net, algorithm, seed, metrics, observer, injector, profile) -> None:
        grid = net.edge_index()
        rngs: Any = LazyRngs.derive(seed, grid.n) if seed is not None else [None] * grid.n
        self.run = VecRun(
            grid=grid,
            n=grid.n,
            namespace_size=net.namespace_size,
            bandwidth=net.bandwidth,
            knows_n=net.knows_n,
            inputs=net.inputs,
            rngs=rngs,
        )
        self.state = algorithm.init_state(self.run)
        self.comm = CommMetrics(mode=metrics)
        self.kernel = RoundKernel(
            grid, net.bandwidth, self.comm, observer=observer, injector=injector,
            profile=profile, track_full=metrics == "full",
        )
        self.net = net
        self.algorithm = algorithm
        self.wake = algorithm.wake_round
        #: Per-node contexts exist only once the run is finished.
        self.contexts: Mapping[int, NodeContext] = {}
        self._observer = observer
        self._profile = profile
        self._inbox = VecInbox.empty()
        #: Positions force-halted by a crash (``None`` until the first).
        self._crashed: Optional[np.ndarray] = None

    def crash(self, ids: List[int]) -> List[Decision]:
        run = self.run
        pos = run.grid.pos_of(np.asarray(ids, dtype=np.int64))
        if self._crashed is None:
            self._crashed = np.zeros(run.n, dtype=bool)
        self._crashed[pos] = run.halted[pos] = True
        return [_DECISION_OF_CODE[c] for c in run.decision[pos].tolist()]

    def pin(self, frozen: Mapping[int, Decision]) -> None:
        pos = self.run.grid.pos_of(np.fromiter(frozen, dtype=np.int64))
        self.run.decision[pos] = [_CODE_OF_DECISION[d] for d in frozen.values()]
        self.run.halted[pos] = True

    def all_halted(self) -> bool:
        return bool(self.run.halted.all())

    def any_reject(self) -> bool:
        return bool((self.run.decision == VEC_REJECT).any())

    def earliest_wake(self, r: int) -> Tuple[int, int]:
        nxt = self.wake(self.run, self.state, r)
        return nxt, nxt

    def skip_to(self, r: int) -> None:
        """Nothing to do: final contexts take their round from the run's."""

    def quiescent(self) -> bool:
        return self.algorithm.all_quiescent(self.run, self.state)

    def step(self, r: int) -> bool:
        run, profile = self.run, self._profile
        if profile is not None:
            t0 = time.perf_counter()
        out = self.algorithm.step_all(run, r, self.state, self._inbox)
        if profile is not None:
            profile.step_s += time.perf_counter() - t0
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
            if self._crashed is not None:
                # A crashed node sends nothing: mask its edges out before
                # validation and billing.
                alive = ~self._crashed[run.grid.src[edges]]
                if not alive.all():
                    edges = edges[alive]
                    payload = payload[alive]
                    if per_message:
                        sizes = sizes[alive]
                    any_traffic = edges.shape[0] > 0
        if any_traffic:
            # Fused validate -> bill -> deliver pass (see kernels.py).
            self._inbox = self.kernel.process(r, edges, payload, sizes, per_message)
        else:
            self._inbox = VecInbox.empty()
            if self._observer is not None:
                self._observer.vec_round(r, _EMPTY_I64, 0, None)
        return any_traffic

    def finish(self, rounds: int) -> None:
        self.algorithm.finish_all(self.run, self.state)
        # Lazy full-mode expansion: the kernel's flat accumulators become
        # the per-edge / per-node dictionaries only now, once.
        self.kernel.expand_full_ledger()
        self.contexts = _FinalContexts(
            self.net, self.algorithm, self.run, self.state, max(rounds - 1, 0)
        )

    def decisions(self) -> Dict[int, Decision]:
        codes = self.run.decision.tolist()
        return dict(zip(self.run.grid.ids.tolist(), map(_DECISION_OF_CODE.__getitem__, codes)))

"""The synchronous CONGEST engine.

This is the substrate every upper bound in the paper runs on: a synchronous
message-passing network in which, per round, each node may send at most ``B``
bits over each incident edge (CONGEST model, Section 2 of the paper).  With
``bandwidth=None`` the same engine is the LOCAL model.

The engine is deterministic given the algorithm, the graph, the identifier
assignment, and the seed: each node's private randomness is a stream derived
from a single master seed in ascending-identifier order
(:mod:`repro.congest.randomness`, shared with the vectorized lane), so a run
can be replayed bit-for-bit.

Faithfulness notes
------------------
* Message delivery is synchronous and reliable: everything sent in round
  ``r`` is in the receivers' inboxes at round ``r + 1``.
* Bandwidth is enforced, not merely recorded: oversized messages raise
  :class:`~repro.congest.message.BandwidthExceeded`.  Lower-bound harnesses
  rely on this to certify that the algorithms they defeat really were
  low-bandwidth.
* A node may send at most one :class:`~repro.congest.message.Message` per
  edge per round; multi-part data must be pipelined over rounds, exactly as
  in the model.

Termination and round accounting
--------------------------------
The round schedule -- when a run ends, the unbilled quiescence probe, the
``wake_round`` skip and its billing, crash-stop semantics -- is stated
once, in :mod:`repro.congest.schedule`, whose driver runs both lanes.
This module supplies the object lane: one ``round`` callback per live
node per round and one :class:`~repro.congest.message.Message` per sent
edge.

Fast path
---------
Adjacency sets and sorted neighbor tuples are precomputed once per
:class:`CongestNetwork`, straight from the input graph through the identifier
assignment, so per-message send validation and per-run context construction
never touch networkx; the relabelled ``graph`` is built only if read.  A
run's set-up builds no random generator: a node's ``rng`` is a
:class:`~repro.congest.randomness.NodeRng` view that serves a first
``integers(0, high)`` from one lane-wide array and builds the node's
generator only on any other use.  ``run(..., metrics="lite")`` keeps the
aggregate bit counters but skips the per-edge metric dictionaries (see
:mod:`repro.congest.metrics` for the exact contract); lower-bound harnesses
must keep the default ``metrics="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

import networkx as nx

from .algorithm import Algorithm, Decision, NodeContext
from .identifiers import canonical_assignment, identifier_order
from .message import BandwidthExceeded, Message
from .metrics import METRIC_MODES, CommMetrics
from .randomness import LazyRngs, NodeRng
from .schedule import run_schedule

__all__ = ["CongestNetwork", "ExecutionResult", "run_congest"]

#: Shared read-only inbox for rounds in which a node received nothing.
_EMPTY_INBOX: Mapping[int, Message] = MappingProxyType({})


@dataclass
class ExecutionResult:
    """Outcome of one simulator run.

    ``decision`` follows Definition 1: REJECT iff some node rejected,
    otherwise ACCEPT.  ``rounds`` counts billable communication rounds (all
    executed rounds except a terminal silent quiescence probe -- see
    :mod:`repro.congest.schedule`).  ``metrics`` holds the exact bit accounting.

    ``contexts`` maps each identifier to its final :class:`NodeContext`,
    in ``node_decisions`` order.  The object lane returns its live dict;
    the vectorized lane returns a read-only mapping that synthesizes each
    context on first access, so read only the contexts you need (e.g. the
    rejecting nodes from ``node_decisions``).
    """

    decision: Decision
    rounds: int
    metrics: CommMetrics
    node_decisions: Dict[int, Decision]
    contexts: Mapping[int, NodeContext]

    @property
    def rejected(self) -> bool:
        return self.decision is Decision.REJECT

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPT

    def rejecting_nodes(self) -> Tuple[int, ...]:
        """The rejecting identifiers, ascending (``node_decisions``
        order: both lanes list nodes by ascending identifier)."""
        reject = Decision.REJECT  # a local: one attribute read, not n
        return tuple(sorted([u for u, d in self.node_decisions.items() if d is reject]))


class CongestNetwork:
    """A network instance: graph + identifier assignment + model parameters.

    Parameters
    ----------
    graph:
        The network graph.  Vertices may be arbitrary hashables; they are
        relabelled by ``assignment``.
    assignment:
        Mapping from graph vertex to identifier.  Defaults to the canonical
        ``0..n-1`` labelling in sorted-vertex order when vertices are
        sortable, else insertion order.
    bandwidth:
        Per-edge per-round bit budget ``B``; ``None`` means unbounded
        (LOCAL).
    namespace_size:
        Size of the identifier namespace nodes assume.  Defaults to ``n``.
    knows_n:
        Whether nodes are told ``n`` (most CONGEST algorithms assume this).
    inputs:
        Optional per-vertex private inputs, keyed by *original* vertex.

    ``graph`` is the network graph relabelled by ``assignment``, built on
    first access from the graph as it is then.
    """

    graph: nx.Graph

    def __init__(
        self,
        graph: nx.Graph,
        bandwidth: Optional[int],
        assignment: Optional[Mapping[Hashable, int]] = None,
        namespace_size: Optional[int] = None,
        knows_n: bool = True,
        inputs: Optional[Mapping[Hashable, Any]] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty network")
        if assignment is None:
            assignment = canonical_assignment(identifier_order(graph.nodes()))
        ids = list(assignment.values())
        if len(set(ids)) != len(ids):
            raise ValueError("identifier assignment must be injective")
        if set(assignment.keys()) != set(graph.nodes()):
            raise ValueError("assignment must cover exactly the graph's vertices")

        self.original_graph = graph
        self.assignment: Dict[Hashable, int] = dict(assignment)
        self.vertex_of: Dict[int, Hashable] = {i: v for v, i in assignment.items()}
        self.bandwidth = bandwidth
        self.n = graph.number_of_nodes()
        self.namespace_size = (
            namespace_size if namespace_size is not None else max(max(ids) + 1, self.n)
        )
        self.knows_n = knows_n
        self.inputs = {
            self.assignment[v]: inp for v, inp in (inputs or {}).items()
        }
        # Fast-path precomputation: adjacency sets for send validation and
        # sorted neighbor tuples for context construction, read straight
        # from the graph through the assignment (self-loops included) and
        # built once, so the round loop (and repeated runs on the same
        # network) never query networkx again.  The relabelled ``graph``
        # itself is built only if something reads it (see __getattr__).
        a = self.assignment
        self._node_ids: Tuple[int, ...] = tuple(sorted(ids))
        self._adj: Dict[int, frozenset] = {
            a[v]: frozenset([a[w] for w in nbrs]) for v, nbrs in graph.adj.items()
        }
        self._neighbor_tuples: Dict[int, Tuple[int, ...]] = {
            u: tuple(sorted(self._adj[u])) for u in self._node_ids
        }
        # CSR edge index for the vectorized lane, built lazily on first use
        # and shared (read-only) by every vectorized run on this network.
        self._edge_index_cache: Optional["EdgeIndex"] = None

    @classmethod
    def from_csr(
        cls,
        edge_index: "EdgeIndex",
        bandwidth: Optional[int],
        *,
        namespace_size: Optional[int] = None,
        knows_n: bool = True,
    ) -> "CongestNetwork":
        """Build a network directly over a prebuilt CSR edge index.

        The shared-memory attach path (:mod:`repro.congest.shm`) uses this
        so amplification workers wrap the parent's exported arrays without
        re-deriving anything from a networkx graph.  Identifiers are the
        index's ``ids`` with the identity assignment; private ``inputs``
        are not supported (they never ride shared memory).  The
        object-lane structures (``graph``, ``_adj``, ``_neighbor_tuples``)
        materialize lazily on first use -- see :meth:`__getattr__` -- so
        purely vectorized runs only ever pay for the neighbor tuples the
        final contexts need.
        """
        grid = edge_index
        if grid.n == 0:
            raise ValueError("cannot simulate an empty network")
        self = object.__new__(cls)
        identity = {int(u): int(u) for u in grid.ids}
        self.original_graph = None
        self.assignment = identity
        self.vertex_of = dict(identity)
        self.bandwidth = bandwidth
        self.n = grid.n
        self.namespace_size = (
            namespace_size
            if namespace_size is not None
            else max(int(grid.ids[-1]) + 1, grid.n)
        )
        self.knows_n = knows_n
        self.inputs = {}
        self._node_ids = tuple(identity)
        self._edge_index_cache = grid
        return self

    def __getattr__(self, name: str) -> Any:
        # Lazy structures: ``graph`` for every network (the relabelled
        # copy of the original graph, or the CSR index's edges), and the
        # object-lane adjacency of from_csr networks, which regular
        # construction sets eagerly in __init__.
        if name in ("_neighbor_tuples", "_adj", "graph"):
            original = self.__dict__.get("original_graph")
            grid = self.__dict__.get("_edge_index_cache")
            if name == "graph" and original is not None:
                value: Any = nx.relabel_nodes(original, self.assignment, copy=True)
            elif grid is None:
                raise AttributeError(name)
            elif name == "_neighbor_tuples":
                out_ptr = grid.out_ptr.tolist()
                dst_ids = grid.ids[grid.dst].tolist()
                value = {
                    int(u): tuple(dst_ids[out_ptr[p] : out_ptr[p + 1]])
                    for p, u in enumerate(grid.ids.tolist())
                }
            elif name == "_adj":
                value = {
                    u: frozenset(t) for u, t in self._neighbor_tuples.items()
                }
            else:
                value = nx.Graph()
                value.add_nodes_from(self._node_ids)
                src_ids = grid.ids[grid.src]
                dst_ids = grid.ids[grid.dst]
                fwd = src_ids < dst_ids
                value.add_edges_from(
                    zip(src_ids[fwd].tolist(), dst_ids[fwd].tolist())
                )
            setattr(self, name, value)
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def edge_index(self) -> "EdgeIndex":
        """The network's read-only CSR edge index (vectorized lane)."""
        if self._edge_index_cache is None:
            from .vectorized import EdgeIndex

            self._edge_index_cache = EdgeIndex(self._node_ids, self._neighbor_tuples)
        return self._edge_index_cache

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: Algorithm,
        max_rounds: int,
        seed: Optional[int] = 0,
        stop_on_reject: bool = False,
        metrics: str = "full",
        sanitize: bool = False,
        faults: Any = None,
        profile: Any = None,
    ) -> ExecutionResult:
        """Execute ``algorithm`` for up to ``max_rounds`` rounds.

        The run may end early (see :mod:`repro.congest.schedule`).
        ``seed=None`` gives nodes no randomness (deterministic algorithms).
        ``metrics`` selects the accounting mode: ``"full"`` (exact per-edge
        ledger, required by lower-bound harnesses) or ``"lite"`` (aggregate
        counters only, the fast path for upper-bound sweeps).

        ``sanitize=True`` arms the runtime model-soundness sanitizer (see
        :mod:`repro.congest.sanitizer`): the algorithm instance and node
        states are audited for cross-node aliasing after ``init``, after
        every round, and after ``finish``, and the whole run is replayed
        with the same seed to detect hidden nondeterminism.  Violations
        raise :class:`~repro.congest.sanitizer.SanitizerViolation` tagged
        with the catalog rule (``L2`` aliasing, ``L3`` nondeterminism).
        Sanitized runs execute the algorithm twice and must therefore only
        be used with replayable algorithms (which the model demands
        anyway).

        ``faults`` injects deterministic network faults: a
        :class:`~repro.faults.plan.FaultPlan`, a spec string (see
        :mod:`repro.faults.plan`), or ``None`` for a reliable network.
        The schedule is a pure function of the plan, ``seed``, and each
        ``(round, sender, receiver)`` triple, so both lanes -- and the
        sanitizer's replay pass -- see identical faults.

        A :class:`~repro.congest.vectorized.VectorizedAlgorithm` is
        dispatched to the vectorized lane (batched array kernels over the
        precomputed edge index) with identical semantics -- decisions,
        round accounting, metrics ledger, ``sanitize`` and ``faults``
        support all match the object lane bit-for-bit.  ``profile`` (a
        :class:`~repro.congest.kernels.KernelProfile`) opts into the
        vectorized lane's per-phase wall-clock counters; the object lane
        ignores it.
        """
        from .vectorized import VectorizedAlgorithm, execute_vectorized

        injector = _build_injector(faults, seed)
        vectorized = isinstance(algorithm, VectorizedAlgorithm)

        def execute(observer: Any, profile: Any) -> ExecutionResult:
            if vectorized:
                return execute_vectorized(
                    self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                    observer=observer, injector=injector, profile=profile,
                )
            return self._execute(
                algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=observer, injector=injector,
            )

        if not sanitize:
            return execute(None, profile)
        from .sanitizer import AliasGuard, TrafficDigest, VecTrafficDigest, verify_replay

        digest = VecTrafficDigest if vectorized else TrafficDigest
        first = digest(guard=AliasGuard(algorithm))
        result = execute(first, profile)
        replay = digest()
        execute(replay, None)
        verify_replay(first, replay)
        return result

    def _execute(
        self,
        algorithm: Algorithm,
        max_rounds: int,
        seed: Optional[int],
        stop_on_reject: bool,
        metrics: str,
        observer: Optional[Any],
        injector: Optional[Any] = None,
    ) -> ExecutionResult:
        """One object-lane run on the shared round schedule
        (:func:`~repro.congest.schedule.run_schedule`).  ``observer`` (the
        sanitizer) also gets ``on_message`` per sent message;
        ``observer=None`` keeps the hot loop free of that indirection.
        ``injector`` (a :class:`~repro.faults.inject.FaultInjector`) may
        drop, stall, throttle or corrupt each billed send on the wire."""
        if metrics not in METRIC_MODES:
            raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
        lane = _ObjectLane(self, algorithm, seed, metrics, observer, injector)
        return run_schedule(lane, max_rounds, stop_on_reject, observer, injector)


class _ObjectLane:
    """The object lane as the schedule driver sees it: one ``round``
    callback per live node and one :class:`Message` per sent edge."""

    def __init__(self, net, algorithm, seed, metrics, observer, injector) -> None:
        # One lazy stream per node (repro.congest.randomness): nothing is
        # built until a node draws, and a first integers(0, high) draw
        # comes from one lane-wide array.
        rngs = LazyRngs.derive(seed, net.n) if seed is not None else None
        self.contexts: Dict[int, NodeContext] = {}
        for p, u in enumerate(net._node_ids):
            self.contexts[u] = NodeContext(
                id=u,
                neighbors=net._neighbor_tuples[u],
                n=net.n if net.knows_n else None,
                namespace_size=net.namespace_size,
                bandwidth=net.bandwidth,
                input=net.inputs.get(u),
                rng=NodeRng(rngs, p) if rngs is not None else None,
            )
        for ctx in self.contexts.values():
            algorithm.init(ctx)
        self.algorithm = algorithm
        self.comm = CommMetrics(mode=metrics)
        self.wake = algorithm.wake_round
        self._probe = getattr(algorithm, "is_quiescent", None)
        self._net = net
        self._items = tuple(self.contexts.items())
        self._values = tuple(self.contexts.values())
        self._on_message = observer.on_message if observer is not None else None
        self._injector = injector if injector and injector.affects_delivery else None
        self._inboxes: Dict[int, Dict[int, Message]] = {}

    def crash(self, ids: List[int]) -> List[Decision]:
        for u in ids:
            self.contexts[u]._halted = True
        return [self.contexts[u].decision for u in ids]

    def pin(self, frozen: Mapping[int, Decision]) -> None:
        for u, decision in frozen.items():
            self.contexts[u].decision = decision
            self.contexts[u]._halted = True

    def all_halted(self) -> bool:
        return all(ctx._halted for ctx in self._values)

    def any_reject(self) -> bool:
        return any(ctx.decision is Decision.REJECT for ctx in self._values)

    def earliest_wake(self, r: int) -> Tuple[int, Dict[int, int]]:
        wakes = {u: self.wake(ctx, r) for u, ctx in self._items if not ctx._halted}
        return min(wakes.values()), wakes

    def skip_to(self, r: int) -> None:
        for ctx in self._values:
            if not ctx._halted:
                ctx.round = r - 1

    def quiescent(self) -> bool:
        probe = self._probe
        return probe is not None and all(
            ctx._halted or probe(ctx) for ctx in self._values
        )

    def step(self, r: int) -> bool:
        comm = self.comm
        lite = comm.mode == "lite"
        record = comm.record
        adj = self._net._adj
        bandwidth = self._net.bandwidth
        on_message = self._on_message
        injector = self._injector
        round_fn = self.algorithm.round
        inboxes = self._inboxes
        next_inboxes: Dict[int, Dict[int, Message]] = {}
        any_traffic = False
        round_total = 0
        round_msgs = 0
        round_max = 0
        for u, ctx in self._items:
            if ctx._halted:
                continue
            ctx.round = r
            outbox = round_fn(ctx, inboxes.get(u, _EMPTY_INBOX))
            if not outbox:
                continue
            u_adj = adj[u]
            for v, msg in outbox.items():
                if not isinstance(msg, Message):
                    raise TypeError(
                        f"node {u} tried to send a non-Message: {msg!r}"
                    )
                if v not in u_adj:
                    raise ValueError(
                        f"node {u} tried to send to non-neighbor {v}"
                    )
                size = msg.size_bits
                if bandwidth is not None and size > bandwidth:
                    raise BandwidthExceeded(
                        f"node {u} -> {v}: message of {size} bits "
                        f"exceeds B={bandwidth}"
                    )
                if lite:
                    round_total += size
                    round_msgs += 1
                    if size > round_max:
                        round_max = size
                else:
                    record(r, u, v, size)
                if on_message is not None:
                    on_message(r, u, v, msg)
                any_traffic = True
                if injector is not None:
                    # The send is billed (and observed) above; faults
                    # act on the wire, between send and inbox.
                    delivered, corrupted = injector.delivery(r, u, v, size)
                    if not delivered:
                        continue
                    if corrupted:
                        msg = injector.corrupted_message(msg)
                box = next_inboxes.get(v)
                if box is None:
                    box = next_inboxes[v] = {}
                box[u] = msg
        if lite and round_msgs:
            comm.add_round(r, round_total, round_msgs, round_max)
        self._inboxes = next_inboxes
        return any_traffic

    def finish(self, rounds: int) -> None:
        for ctx in self._values:
            self.algorithm.finish(ctx)

    def decisions(self) -> Dict[int, Decision]:
        return {u: ctx.decision for u, ctx in self._items}


def _build_injector(faults: Any, seed: Optional[int]) -> Optional[Any]:
    """Resolve a ``faults`` argument (plan / spec string / injector /
    ``None``) into a :class:`~repro.faults.inject.FaultInjector`, or
    ``None`` when the plan injects nothing."""
    if faults is None:
        return None
    from ..faults.inject import FaultInjector
    from ..faults.plan import FaultPlan

    if isinstance(faults, FaultInjector):
        return faults
    plan = FaultPlan.from_spec(faults) if isinstance(faults, str) else faults
    if plan.is_null:
        return None
    return FaultInjector(plan, seed)


def run_congest(
    graph: nx.Graph,
    algorithm: Algorithm,
    bandwidth: Optional[int],
    max_rounds: int,
    seed: Optional[int] = 0,
    **kwargs: Any,
) -> ExecutionResult:
    """One-shot convenience wrapper: build a network and run an algorithm."""
    stop_on_reject = kwargs.pop("stop_on_reject", False)
    metrics = kwargs.pop("metrics", "full")
    sanitize = kwargs.pop("sanitize", False)
    faults = kwargs.pop("faults", None)
    net = CongestNetwork(graph, bandwidth=bandwidth, **kwargs)
    return net.run(
        algorithm,
        max_rounds=max_rounds,
        seed=seed,
        stop_on_reject=stop_on_reject,
        metrics=metrics,
        sanitize=sanitize,
        faults=faults,
    )

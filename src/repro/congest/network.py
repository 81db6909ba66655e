"""The synchronous CONGEST engine.

This is the substrate every upper bound in the paper runs on: a synchronous
message-passing network in which, per round, each node may send at most ``B``
bits over each incident edge (CONGEST model, Section 2 of the paper).  With
``bandwidth=None`` the same engine is the LOCAL model.

The engine is deterministic given the algorithm, the graph, the identifier
assignment, and the seed: per-node randomness is spawned from a single master
seed keyed by node identifier, so a run can be replayed bit-for-bit.

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
The round loop ends when (a) ``max_rounds`` is reached, (b) every node has
halted, (c) ``stop_on_reject`` is set and some node rejected, or (d) a round
carries no traffic **and** the algorithm's optional ``is_quiescent`` hook
affirms every non-halted node is idle.  An algorithm *without* the hook is
never assumed quiescent: schedule-driven algorithms (peeling phases, round
deadlines) have legitimately silent rounds mid-schedule and must run to
completion or halt explicitly.

``ExecutionResult.rounds`` bills every executed round *except* the terminal
all-silent round that merely confirms quiescence (case (d)): nothing was
sent in it and nothing was pending, so it is a probe, not a communication
round.  For message-driven algorithms that fall silent only when done, this
makes ``ExecutionResult.rounds == CommMetrics.rounds`` exactly.

Schedule-driven algorithms may implement the optional ``wake_round(node,
r)`` hook (``wake_round(run, state, r)`` in the vectorized lane): the
earliest round ``>= r`` in which the node could send, change its state or
decision, or halt, assuming it receives nothing.  After a round that sent
nothing and did not end the run, the engine jumps to the minimum wake
round over the non-halted nodes (capped at ``max_rounds``).  The skipped
rounds are billed exactly as executed silent rounds: ``rounds``, the
metrics ledger and every live context's final ``round`` are what running
them would have produced.  The skip is off when an observer (the
sanitizer) or a fault plan is attached; under the sanitizer every round
runs and the hook's promises are audited instead
(:meth:`~repro.congest.sanitizer.TrafficDigest.wake_promises`).  An
algorithm without the hook runs every round.  Skipped rounds never
consult ``is_quiescent``, so an algorithm with both hooks must make the
probe a function of node state, not of ``node.round``.

Fast path
---------
Adjacency sets and sorted neighbor tuples are precomputed once per
:class:`CongestNetwork`, so per-message send validation and per-run context
construction never touch networkx.  ``run(..., metrics="lite")`` keeps the
aggregate bit counters but skips the per-edge metric dictionaries (see
:mod:`repro.congest.metrics` for the exact contract); lower-bound harnesses
must keep the default ``metrics="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from .algorithm import Algorithm, Decision, NodeContext
from .identifiers import canonical_assignment, identifier_order
from .message import BandwidthExceeded, Message
from .metrics import METRIC_MODES, CommMetrics

__all__ = ["CongestNetwork", "ExecutionResult", "run_congest"]

#: Shared read-only inbox for rounds in which a node received nothing.
_EMPTY_INBOX: Mapping[int, Message] = MappingProxyType({})


@dataclass
class ExecutionResult:
    """Outcome of one simulator run.

    ``decision`` follows Definition 1: REJECT iff some node rejected,
    otherwise ACCEPT.  ``rounds`` counts billable communication rounds (all
    executed rounds except a terminal silent quiescence probe -- see the
    module docstring).  ``metrics`` holds the exact bit accounting.

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
        return tuple(
            sorted(u for u, d in self.node_decisions.items() if d is Decision.REJECT)
        )


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
    """

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
        self.graph: nx.Graph = nx.relabel_nodes(graph, self.assignment, copy=True)
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
        # sorted neighbor tuples for context construction, built once so the
        # round loop (and repeated runs on the same network) never query
        # networkx again.
        self._node_ids: Tuple[int, ...] = tuple(sorted(self.graph.nodes()))
        self._adj: Dict[int, frozenset] = {
            u: frozenset(self.graph[u]) for u in self._node_ids
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
        # Lazy object-lane structures for from_csr networks; regular
        # construction sets all of these eagerly in __init__, so this
        # only fires on CSR-built instances (or truly missing names).
        if name in ("_neighbor_tuples", "_adj", "graph"):
            grid = self.__dict__.get("_edge_index_cache")
            if grid is None:
                raise AttributeError(name)
            if name == "_neighbor_tuples":
                out_ptr = grid.out_ptr.tolist()
                dst_ids = grid.ids[grid.dst].tolist()
                value: Any = {
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

        The run ends early when every node has halted, when (if
        ``stop_on_reject``) some node rejects at a round boundary, or when a
        silent round is confirmed quiescent by the algorithm's
        ``is_quiescent`` hook (never assumed when the hook is absent).
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
        if isinstance(algorithm, VectorizedAlgorithm):
            if not sanitize:
                return execute_vectorized(
                    self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                    injector=injector, profile=profile,
                )
            from .sanitizer import AliasGuard, VecTrafficDigest, verify_replay

            vguard = AliasGuard(algorithm)
            vfirst = VecTrafficDigest(guard=vguard)
            result = execute_vectorized(
                self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=vfirst, injector=injector, profile=profile,
            )
            vreplay = VecTrafficDigest()
            execute_vectorized(
                self, algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=vreplay, injector=injector,
            )
            verify_replay(vfirst, vreplay)
            return result
        if not sanitize:
            return self._execute(
                algorithm, max_rounds, seed, stop_on_reject, metrics,
                observer=None, injector=injector,
            )
        from .sanitizer import AliasGuard, TrafficDigest, verify_replay

        guard = AliasGuard(algorithm)
        first = TrafficDigest(guard=guard)
        result = self._execute(
            algorithm, max_rounds, seed, stop_on_reject, metrics,
            observer=first, injector=injector,
        )
        replay = TrafficDigest()
        self._execute(
            algorithm, max_rounds, seed, stop_on_reject, metrics,
            observer=replay, injector=injector,
        )
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
        """One pass of the round loop; ``observer`` (when set) receives
        ``after_init`` / ``wake_promises`` / ``on_message`` /
        ``after_round`` / ``after_finish`` callbacks -- the sanitizer's
        attachment points -- and turns the ``wake_round`` skip into an
        audit.  ``observer=None`` keeps the hot loop free of per-message
        indirection.

        ``injector`` (a :class:`~repro.faults.inject.FaultInjector`, when
        set) applies the fault plan: crash-stopped nodes are force-halted
        at their scheduled round with their decision frozen at its
        pre-crash value, and every send is billed normally but may be
        dropped, stalled, throttled, or corrupted at delivery."""
        if metrics not in METRIC_MODES:
            raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
        comm = CommMetrics(mode=metrics)
        master = np.random.default_rng(seed) if seed is not None else None

        contexts: Dict[int, NodeContext] = {}
        for u in self._node_ids:
            rng = (
                np.random.default_rng(master.integers(0, 2**63))
                if master is not None
                else None
            )
            contexts[u] = NodeContext(
                id=u,
                neighbors=self._neighbor_tuples[u],
                n=self.n if self.knows_n else None,
                namespace_size=self.namespace_size,
                bandwidth=self.bandwidth,
                input=self.inputs.get(u),
                rng=rng,
            )
        for ctx in contexts.values():
            algorithm.init(ctx)
        if observer is not None:
            observer.after_init(contexts)

        # Hoisted hot-loop state.
        on_message = observer.on_message if observer is not None else None
        probe = getattr(algorithm, "is_quiescent", None)
        # Faults act on scheduled rounds (crashes), so a faulty run neither
        # skips nor audits; under an observer every round runs and the
        # observer audits the wake promises instead of trusting them.
        wake = algorithm.wake_round if injector is None else None
        lite = metrics == "lite"
        adj = self._adj
        bandwidth = self.bandwidth
        ctx_items = tuple(contexts.items())
        ctx_values = tuple(contexts.values())
        record = comm.record
        round_fn = algorithm.round

        # Fault state: pending crash schedule (nodes present in this
        # graph only) and the frozen decisions of activated crashes.
        apply_delivery = injector is not None and injector.affects_delivery
        crash_pending: Dict[int, int] = {}
        if injector is not None:
            crash_pending = {
                u: cr
                for u, cr in injector.crash_round_of.items()
                if u in contexts
            }
        crashed_frozen: Dict[int, Decision] = {}

        inboxes: Dict[int, Dict[int, Message]] = {}
        rounds_run = 0
        any_traffic = True
        r = 0
        while r < max_rounds:
            if crash_pending:
                # Crash-stop activation: from its scheduled round on, a
                # crashed node is a forced halt -- it executes nothing and
                # sends nothing -- and its decision freezes at the value it
                # had when the crash round began.
                for u, cr in tuple(crash_pending.items()):
                    if r >= cr:
                        ctx = contexts[u]
                        crashed_frozen[u] = ctx.decision
                        ctx._halted = True
                        del crash_pending[u]
            if all(ctx._halted for ctx in ctx_values):
                break
            if stop_on_reject and any(
                ctx.decision is Decision.REJECT for ctx in ctx_values
            ):
                break
            if not any_traffic and wake is not None:
                # Round r - 1 sent nothing, so every inbox is empty: ask
                # each live node when it next acts on its own.
                wakes = {u: wake(ctx, r) for u, ctx in ctx_items if not ctx._halted}
                nxt = min(min(wakes.values()), max_rounds)
                if observer is not None:
                    observer.wake_promises(r, contexts, wakes)
                elif nxt > r:
                    # Rounds r .. nxt-1 are provably silent and change no
                    # state: bill them as executed and leave each live
                    # context's round where running them would have.
                    for ctx in ctx_values:
                        if not ctx._halted:
                            ctx.round = nxt - 1
                    r = rounds_run = nxt
                    if r >= max_rounds:
                        break
            next_inboxes: Dict[int, Dict[int, Message]] = {}
            any_traffic = False
            round_total = 0
            round_msgs = 0
            round_max = 0
            for u, ctx in ctx_items:
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
                    if apply_delivery:
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
            inboxes = next_inboxes
            rounds_run = r + 1
            if observer is not None:
                observer.after_round(r, contexts)
            if not any_traffic and (
                probe is not None
                and all(ctx._halted or probe(ctx) for ctx in ctx_values)
            ):
                # Nothing was sent, nothing is pending, and the algorithm
                # affirms every node is idle: the network is quiescent.  The
                # just-executed silent round was only a probe, so it is not
                # billable -- roll it back so ExecutionResult.rounds agrees
                # with CommMetrics.rounds for message-driven algorithms.
                rounds_run = r
                break
            r += 1

        for ctx in contexts.values():
            algorithm.finish(ctx)
        if crashed_frozen:
            # A crashed node never reaches finish: restore its frozen
            # decision over whatever finish computed from its dead state.
            for u, frozen in crashed_frozen.items():
                contexts[u].decision = frozen
                contexts[u]._halted = True
        if observer is not None:
            observer.after_finish(contexts)

        decisions = {u: ctx.decision for u, ctx in contexts.items()}
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

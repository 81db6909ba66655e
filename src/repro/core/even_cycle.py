"""Theorem 1.1: sublinear-time ``C_{2k}`` detection in CONGEST (Section 6).

The algorithm runs in ``O(n^{1 - 1/(k(k-1))})`` rounds per iteration and
combines three ingredients:

* **Phase I (high-degree nodes).**  Color-code with ``2k`` colors and start
  a *color-coded BFS* from every node of degree at least ``n^δ``
  (``δ = 1/(k-1)``) holding color 0.  Tokens ``(origin, hop)`` move only to
  nodes whose color is one higher; an origin receiving its own token at hop
  ``2k-1`` has closed a properly-colored 2k-cycle and rejects.  Queued
  tokens are *pipelined*: one token per node per round, for
  ``R1 = ceil(M/n^δ) + 2k`` rounds, where ``M`` bounds ``ex(n, C_{2k})``.
  If any queue is non-empty at the deadline, ``|E| > M`` and the graph must
  contain a 2k-cycle (Lemma 6.3), so the node rejects.
* **Phase II (the residual low-degree graph).**  High-degree nodes remove
  themselves.  The rest peel into ``ceil(log n)`` *layers* with up-degree at
  most ``τ = O(M/n)`` (see :mod:`repro.core.decomposition`); a node left
  unassigned rejects.  Then color-coded *prefixes* grow from every assigned
  color-0 node: increasing prefixes through colors ``1, 2, ..., k-1`` and
  decreasing prefixes through ``2k-1, 2k-2, ..., k+1``, with the layer
  filter ``ℓ(u_0) >= ℓ(v)`` applied at colors 1 and ``2k-1`` (this is what
  caps the number of prefixes through any node).  A color-``k`` node seeing
  an increasing and a decreasing prefix from the same origin has found a
  properly-colored 2k-cycle and rejects.

One run of :class:`EvenCycleIterationAlgorithm` is one coloring iteration
(success probability ``(2k)^{-2k}`` per present cycle);
:func:`detect_even_cycle` amplifies over independent iterations.

Soundness contract (matching the paper's "putting everything together"):
a rejection certifies *either* a witnessed properly-colored 2k-cycle *or*
``|E(G)| > M`` -- both imply a 2k-cycle exists when ``M`` is a valid upper
bound on ``ex(n, C_{2k})``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.algorithm import Algorithm, Decision, NodeContext, broadcast
from ..congest.message import Message, int_width
from ..congest.network import CongestNetwork, ExecutionResult
from ..congest.parallel import run_amplified
from ..theory.turan import even_cycle_edge_budget
from .color_coding import ColorSource, RandomColorSource
from .decomposition import peel_threshold

__all__ = [
    "EvenCycleIterationAlgorithm",
    "IterationSchedule",
    "DetectionReport",
    "detect_even_cycle",
    "required_bandwidth",
]


@dataclass(frozen=True)
class IterationSchedule:
    """Round layout of one iteration; every node derives it from ``(n, k, M)``."""

    k: int
    n: int
    edge_budget: int  # M
    high_threshold: int  # n^delta
    r1: int  # Phase I rounds
    peel_steps: int  # L
    tau: int  # peel threshold / up-degree bound
    r2: int  # Phase II propagation round cap

    # Phase boundaries (first round of each phase).
    @property
    def phase_bfs_start(self) -> int:
        return 1  # round 0 is the HIGH announcement

    @property
    def phase_bfs_end(self) -> int:
        return self.phase_bfs_start + self.r1

    @property
    def phase_peel_start(self) -> int:
        return self.phase_bfs_end

    @property
    def phase_peel_end(self) -> int:
        return self.phase_peel_start + self.peel_steps + 1

    @property
    def phase_prefix_start(self) -> int:
        return self.phase_peel_end

    @property
    def phase_prefix_end(self) -> int:
        return self.phase_prefix_start + self.r2

    @property
    def total_rounds(self) -> int:
        return self.phase_prefix_end + 1

    @staticmethod
    def build(n: int, k: int, edge_constant: float = 1.0) -> "IterationSchedule":
        # Every node of every iteration derives the same schedule from
        # (n, k, M); memoized so per-node init stays O(1) on the fast path.
        return _build_schedule(n, k, edge_constant)


@lru_cache(maxsize=1024)
def _build_schedule(n: int, k: int, edge_constant: float) -> IterationSchedule:
    if k < 2:
        raise ValueError("Theorem 1.1 needs k >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    m_budget = even_cycle_edge_budget(n, k, constant=edge_constant)
    delta = 1.0 / (k - 1)
    high = max(1, math.ceil(n**delta))
    # At most 2M/n^delta nodes can have degree >= n^delta when |E| <= M
    # (degree sum), and each injects one token traveling 2k hops.
    r1 = math.ceil(2 * m_budget / high) + 2 * k
    peel_steps = max(1, math.ceil(math.log2(n))) + 1
    tau = peel_threshold(n, m_budget)
    # Prefix count through a node: <= tau origins survive the layer
    # filter, each extended through at most n^{delta(k-2)} low-degree
    # continuations; 2k covers travel time.
    r2 = (
        2 * k
        + tau
        + math.ceil(2 * k * tau * (n ** (delta * max(0, k - 2))))
    )
    return IterationSchedule(
        k=k,
        n=n,
        edge_budget=m_budget,
        high_threshold=high,
        r1=r1,
        peel_steps=peel_steps,
        tau=tau,
        r2=r2,
    )


def required_bandwidth(n: int, k: int, namespace_size: Optional[int] = None) -> int:
    """Minimum ``B`` for the algorithm's largest message.

    Section 6 "assume[s] the bandwidth is sufficiently large to send a
    sequence of 2k identifiers in one message"; our largest message is a
    length-k prefix (k ids) plus direction/length/layer bookkeeping.
    """
    w = int_width(namespace_size if namespace_size is not None else max(n, 2))
    layer_bits = int_width(max(2, math.ceil(math.log2(max(n, 2))) + 2))
    return 2 * k * w + layer_bits + int_width(2 * k) + 2


class EvenCycleIterationAlgorithm(Algorithm):
    """One coloring iteration of the Section 6 algorithm (see module doc).

    Per-node state machine keyed on the shared :class:`IterationSchedule`.
    All knowledge used is local: own color/degree, neighbor ids, round
    number, received messages.
    """

    name = "even-cycle-detection"

    def __init__(
        self,
        k: int,
        edge_constant: float = 1.0,
        color_source: Optional[ColorSource] = None,
        enable_phase1: bool = True,
        layer_filter: bool = True,
    ):
        """``enable_phase1`` / ``layer_filter`` exist for the ablation
        benchmarks only: disabling Phase I loses cycles through high-degree
        nodes (Corollary 6.2's job), and disabling the layer filter at
        colors 1 / 2k-1 removes the cap on prefixes per node, breaking the
        Phase II round bound.  Production use keeps both on."""
        if k < 2:
            raise ValueError("need k >= 2")
        self.k = k
        self.edge_constant = edge_constant
        self.colors = color_source if color_source is not None else RandomColorSource(k)
        if self.colors.k != k:
            raise ValueError("color source k mismatch")
        self.enable_phase1 = enable_phase1
        self.layer_filter = layer_filter

    # ------------------------------------------------------------------
    def init(self, node: NodeContext) -> None:
        if node.n is None:
            raise ValueError("the Theorem 1.1 algorithm requires knowledge of n")
        sched = IterationSchedule.build(node.n, self.k, self.edge_constant)
        st = node.state
        st["sched"] = sched
        # Phase boundaries and message widths as plain ints: the round
        # dispatch below runs once per node per round, and re-deriving the
        # schedule properties there dominates the engine's wall-clock.
        st["bfs_end"] = sched.phase_bfs_end
        st["peel_start"] = sched.phase_peel_start
        st["peel_end"] = sched.phase_peel_end
        st["prefix_start"] = sched.phase_prefix_start
        st["prefix_end"] = sched.phase_prefix_end
        st["peel_steps"] = sched.peel_steps
        st["tau"] = sched.tau
        st["id_width"] = int_width(node.namespace_size)
        st["layer_bits"] = int_width(sched.peel_steps + 1)
        st["color"] = self.colors.color(node.id, node.rng, iteration=0)
        st["is_high"] = node.degree >= sched.high_threshold
        st["high_neighbors"] = set()
        st["queue"] = deque()  # Phase I token queue
        st["seen_tokens"] = set()
        st["layer"] = None
        st["removed_neighbors"] = set()  # peeled or high neighbors
        st["pfx_queue"] = deque()  # Phase II prefix queue
        st["inc_origins"] = set()
        st["dec_origins"] = set()
        st["witness"] = None
        st["max_pfx_queue"] = 0  # ablation metric: peak prefix-queue size
        st["pfx_enqueued"] = 0  # ablation metric: total prefixes queued

    def is_quiescent(self, node: NodeContext) -> bool:
        # Keep the engine ticking through silent scheduled rounds.
        return node._halted

    def wake_round(self, node: NodeContext, r: int) -> int:
        # Walk the schedule from round r and stop at the first round in
        # which round() would act with an empty inbox.
        st = node.state
        if r == 0:
            return 0  # the HIGH announcement
        if r < st["bfs_end"]:
            if st["queue"]:
                return r
            r = st["bfs_end"]
        if st["is_high"]:
            return max(r, st["prefix_end"])
        if r < st["peel_end"]:
            if st["layer"] is None:
                # Without arrivals the active degree is frozen: either
                # this node peels now, or it rejects on the last step.
                if self._active_degree(node) <= st["tau"]:
                    return r
                return max(r, st["peel_start"] + st["peel_steps"])
            r = st["peel_end"]
        if r < st["prefix_end"]:
            if st["pfx_queue"]:
                return r
            if (
                r == st["prefix_start"]
                and st["layer"] is not None
                and st["color"] == 0
            ):
                return r
            r = st["prefix_end"]
        return r

    # ------------------------------------------------------------------
    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        r = node.round

        # ---- ingest ---------------------------------------------------
        if inbox:
            for sender, msg in inbox.items():
                kind = msg.kind
                if kind == "high":
                    st["high_neighbors"].add(sender)
                    st["removed_neighbors"].add(sender)
                elif kind == "bfs":
                    self._ingest_bfs(node, msg)
                elif kind == "peeled":
                    st["removed_neighbors"].add(sender)
                elif kind == "pfx":
                    self._ingest_prefix(node, sender, msg)
                else:  # pragma: no cover - defensive
                    raise AssertionError(f"unknown message kind {kind!r}")

        # ---- act by phase ----------------------------------------------
        if r == 0:
            # HIGH announcement; color-0 high nodes seed their BFS.
            if st["is_high"]:
                if st["color"] == 0 and self.enable_phase1:
                    st["queue"].append((node.id, 0))
                    st["seen_tokens"].add((node.id, 0))
                return broadcast(node, Message.of_record(None, 1, kind="high"))
            return {}

        bfs_end = st["bfs_end"]
        if r < bfs_end:
            out = self._phase_bfs_round(node)
            if r == bfs_end - 1 and st["queue"]:
                # Lemma 6.3: a clogged queue certifies |E| > M.
                node.reject()
                st["witness"] = ("queue-overflow-phase1", len(st["queue"]))
            return out

        # From here on, high-degree nodes are removed from the graph.
        prefix_end = st["prefix_end"]
        if st["is_high"]:
            if r >= prefix_end:
                self._finish_iteration(node)
            return {}

        if r < st["peel_end"]:
            return self._phase_peel_round(node, r - st["peel_start"])

        if r < prefix_end:
            out = self._phase_prefix_round(node, r - st["prefix_start"])
            if r == prefix_end - 1 and st["pfx_queue"]:
                node.reject()
                st["witness"] = ("queue-overflow-phase2", len(st["pfx_queue"]))
            return out

        self._finish_iteration(node)
        return {}

    # ------------------------------------------------------------------
    # Phase I: pipelined color-coded BFS
    # ------------------------------------------------------------------
    def _ingest_bfs(self, node: NodeContext, msg: Message) -> None:
        st = node.state
        origin, hop = msg.payload
        k = self.k
        if (origin, hop) in st["seen_tokens"]:
            return
        st["seen_tokens"].add((origin, hop))
        if origin == node.id and hop == 2 * k - 1:
            node.reject()
            st["witness"] = ("phase1-cycle", origin)
            return
        if st["color"] != (hop + 1) % (2 * k) or hop + 1 >= 2 * k:
            # Not the next color on the path (or the path is complete and
            # only the origin may consume it).
            return
        st["queue"].append((origin, hop + 1))
        st["seen_tokens"].add((origin, hop + 1))

    def _phase_bfs_round(self, node: NodeContext):
        st = node.state
        if not st["queue"]:
            return {}
        origin, hop = st["queue"].popleft()
        msg = Message.of_record(
            (origin, hop),
            size_bits=st["id_width"] + int_width(2 * self.k),
            kind="bfs",
        )
        return broadcast(node, msg)

    # ------------------------------------------------------------------
    # Phase II part 1: distributed layer peeling
    # ------------------------------------------------------------------
    def _active_degree(self, node: NodeContext) -> int:
        st = node.state
        return sum(1 for v in node.neighbors if v not in st["removed_neighbors"])

    def _phase_peel_round(self, node: NodeContext, step: int):
        st = node.state
        if st["layer"] is not None:
            return {}
        peel_steps = st["peel_steps"]
        if step > peel_steps:
            return {}
        if step == peel_steps:
            # Budget exhausted and still unassigned: |E| > M, reject.
            node.reject()
            st["witness"] = ("unassigned-layer", self._active_degree(node))
            return {}
        if self._active_degree(node) <= st["tau"]:
            st["layer"] = step
            return broadcast(node, Message.of_record(None, 1, kind="peeled"))
        return {}

    # ------------------------------------------------------------------
    # Phase II part 2: prefix propagation
    # ------------------------------------------------------------------
    def _prefix_message(self, node: NodeContext, direction: str, path: Tuple[int, ...], origin_layer: int) -> Message:
        st = node.state
        size = (
            len(path) * st["id_width"]
            + st["layer_bits"]
            + int_width(2 * self.k)
            + 2
        )
        return Message.of_record((direction, path, origin_layer), size, kind="pfx")

    def _ingest_prefix(self, node: NodeContext, sender: int, msg: Message) -> None:
        st = node.state
        if st["is_high"] or st["layer"] is None:
            return
        k = self.k
        direction, path, origin_layer = msg.payload
        c = st["color"]
        if direction == "start":
            # A length-0 prefix (u0,) from a color-0 node.
            (u0,) = path
            if self.layer_filter and origin_layer < st["layer"]:
                return  # the layer filter at colors 1 and 2k-1
            if c == 1:
                st["pfx_queue"].append(("inc", (u0, node.id), origin_layer))
            if c == 2 * k - 1:
                st["pfx_queue"].append(("dec", (u0, node.id), origin_layer))
            st["max_pfx_queue"] = max(st["max_pfx_queue"], len(st["pfx_queue"]))
            st["pfx_enqueued"] += 1
            return
        hops = len(path) - 1  # prefix length in the paper's sense
        if direction == "inc":
            if c == k and hops == k - 1:
                u0 = path[0]
                st["inc_origins"].add(u0)
                if u0 in st["dec_origins"]:
                    node.reject()
                    st["witness"] = ("phase2-cycle", u0)
                return
            if hops + 1 <= k - 1 and c == hops + 1:
                st["pfx_queue"].append(("inc", path + (node.id,), origin_layer))
                st["max_pfx_queue"] = max(st["max_pfx_queue"], len(st["pfx_queue"]))
            st["pfx_enqueued"] += 1
        elif direction == "dec":
            if c == k and hops == k - 1:
                u0 = path[0]
                st["dec_origins"].add(u0)
                if u0 in st["inc_origins"]:
                    node.reject()
                    st["witness"] = ("phase2-cycle", u0)
                return
            if hops + 1 <= k - 1 and c == 2 * k - (hops + 1):
                st["pfx_queue"].append(("dec", path + (node.id,), origin_layer))
                st["max_pfx_queue"] = max(st["max_pfx_queue"], len(st["pfx_queue"]))
            st["pfx_enqueued"] += 1

    def _phase_prefix_round(self, node: NodeContext, step: int):
        st = node.state
        if st["layer"] is None:
            return {}
        if step == 0:
            if st["color"] == 0:
                return broadcast(
                    node,
                    self._prefix_message(node, "start", (node.id,), st["layer"]),
                )
            return {}
        if not st["pfx_queue"]:
            return {}
        direction, path, origin_layer = st["pfx_queue"].popleft()
        return broadcast(node, self._prefix_message(node, direction, path, origin_layer))

    # ------------------------------------------------------------------
    def _finish_iteration(self, node: NodeContext) -> None:
        if node.decision is Decision.UNDECIDED:
            node.accept()
        node.halt()


@dataclass
class DetectionReport:
    """Outcome of an amplified detection run.

    ``total_bits`` / ``total_messages`` aggregate the exact communication of
    every executed iteration; they are identical whichever ``metrics`` mode
    or ``jobs`` count produced them.

    ``seeds_requested`` / ``seeds_saved`` / ``stop_reason`` report the
    adaptive-amplification outcome (see
    :mod:`repro.congest.parallel`): under a policy with
    ``amplify_confidence`` set, the run may stop before exhausting the
    requested iterations (``stop_reason="confidence"``), and
    ``seeds_saved`` counts the iterations that never had to run.
    """

    detected: bool
    iterations_run: int
    rounds_per_iteration: int
    total_rounds: int
    schedule: IterationSchedule
    witnesses: List[Tuple] = field(default_factory=list)
    results: List[ExecutionResult] = field(default_factory=list)
    total_bits: int = 0
    total_messages: int = 0
    seeds_requested: int = 0
    seeds_saved: int = 0
    stop_reason: str = "exhausted"


@dataclass(frozen=True)
class _EvenCycleFactory:
    """Picklable per-iteration algorithm factory for parallel amplification."""

    k: int
    edge_constant: float
    color_source: Optional[ColorSource]
    enable_phase1: bool
    layer_filter: bool

    def __call__(self, iteration: int) -> EvenCycleIterationAlgorithm:
        return EvenCycleIterationAlgorithm(
            self.k,
            edge_constant=self.edge_constant,
            color_source=self.color_source,
            enable_phase1=self.enable_phase1,
            layer_filter=self.layer_filter,
        )


def detect_even_cycle(
    graph: nx.Graph,
    k: int,
    iterations: int,
    seed: int = 0,
    bandwidth: Optional[int] = None,
    edge_constant: float = 1.0,
    color_source: Optional[ColorSource] = None,
    stop_on_detect: bool = True,
    keep_results: bool = False,
    enable_phase1: bool = True,
    layer_filter: bool = True,
    jobs: int = 1,
    metrics: str = "full",
    session: Optional["RunSession"] = None,
) -> DetectionReport:
    """Run the Theorem 1.1 algorithm for up to ``iterations`` colorings.

    Each iteration uses independent colors (a fresh seed).  Rejection in any
    iteration is final (soundness is one-sided).  ``bandwidth`` defaults to
    the minimum the algorithm needs (:func:`required_bandwidth`).
    ``enable_phase1`` / ``layer_filter`` are ablation switches (see
    :class:`EvenCycleIterationAlgorithm`).

    ``jobs > 1`` fans the independent iterations out over a process pool
    (:func:`repro.congest.parallel.run_amplified`); the first-rejecting-seed
    merge keeps the decision and witness set bit-identical to the
    sequential loop.  ``metrics`` selects the engine's accounting mode
    (``"lite"`` skips the per-edge ledger; aggregates stay exact).  With
    a ``session``, its policy supplies jobs/metrics and those legacy
    kwargs are ignored.
    """
    from ..runtime.session import use_session

    ses = use_session(session, metrics=metrics, jobs=jobs)
    n = graph.number_of_nodes()
    sched = IterationSchedule.build(n, k, edge_constant)
    if bandwidth is None:
        bandwidth = required_bandwidth(n, k)
    # One color-coding iteration finds an existing C_2k with probability
    # at least (2k)^(-2k) (the 2k cycle vertices draw the right colors);
    # this is the success rate the adaptive sequential test amplifies.
    success_probability = float(2 * k) ** -(2 * k)

    adaptive = not ses.policy.amplification().is_null
    if ses.policy.jobs > 1 or (adaptive and not keep_results):
        if keep_results:
            raise ValueError(
                "keep_results needs jobs=1: full ExecutionResults are not "
                "shipped back from worker processes"
            )
        factory = _EvenCycleFactory(
            k, edge_constant, color_source, enable_phase1, layer_filter
        )
        amp = ses.amplify(
            graph,
            factory,
            iterations,
            seed=seed,
            bandwidth=bandwidth,
            max_rounds=sched.total_rounds + 1,
            stop_on_detect=stop_on_detect,
            label=f"even-cycle-C{2 * k}",
            success_probability=success_probability,
        )
        return DetectionReport(
            detected=amp.rejected,
            iterations_run=amp.iterations_run,
            rounds_per_iteration=sched.total_rounds,
            total_rounds=amp.iterations_run * sched.total_rounds,
            schedule=sched,
            witnesses=list(amp.witnesses),
            results=[],
            total_bits=amp.total_bits,
            total_messages=amp.total_messages,
            seeds_requested=iterations,
            seeds_saved=amp.seeds_saved,
            stop_reason=amp.stop_reason,
        )

    # keep_results pins the sequential loop; of the adaptive knobs only
    # the max_seeds cap applies here (the confidence stop needs the
    # amplified path's sequential-test bookkeeping).
    if ses.policy.amplify_max_seeds is not None:
        iterations = min(iterations, ses.policy.amplify_max_seeds)
    net = ses.network(graph, bandwidth=bandwidth)
    witnesses: List[Tuple] = []
    results: List[ExecutionResult] = []
    detected = False
    iterations_run = 0
    total_bits = 0
    total_messages = 0
    for t in range(iterations):
        algo = EvenCycleIterationAlgorithm(
            k,
            edge_constant=edge_constant,
            color_source=color_source,
            enable_phase1=enable_phase1,
            layer_filter=layer_filter,
        )
        res = ses.run(
            net,
            algo,
            max_rounds=sched.total_rounds + 1,
            seed=seed + t,
            label=f"even-cycle-C{2 * k}",
        )
        iterations_run += 1
        total_bits += res.metrics.total_bits
        total_messages += res.metrics.total_messages
        if keep_results:
            results.append(res)
        if res.rejected:
            detected = True
            witnesses.extend(
                ctx.state.get("witness")
                for ctx in res.contexts.values()
                if ctx.decision is Decision.REJECT
            )
            if stop_on_detect:
                break
    return DetectionReport(
        detected=detected,
        iterations_run=iterations_run,
        rounds_per_iteration=sched.total_rounds,
        total_rounds=iterations_run * sched.total_rounds,
        schedule=sched,
        witnesses=witnesses,
        results=results,
        total_bits=total_bits,
        total_messages=total_messages,
        seeds_requested=iterations,
        seeds_saved=iterations - iterations_run,
        stop_reason="detect" if detected and stop_on_detect else "exhausted",
    )

"""The O(n)-round cycle-detection baseline (any fixed length, odd or even).

Section 1.1: "It is easy to see that O(n) rounds suffice" for ``C_k``
detection.  The folklore algorithm is the unthrottled version of Phase I of
Theorem 1.1: color-code with ``ℓ`` colors and run a pipelined color-coded
BFS from *every* color-0 node (no degree threshold).  At most ``n`` tokens
exist, each node relays each token once, so all queues drain within
``n + ℓ`` rounds; a token returning to its origin at hop ``ℓ - 1`` closes a
properly-colored ``C_ℓ``.

This is the baseline E1 compares Theorem 1.1 against (who wins, and where
the crossover in ``n`` falls), and -- run with odd ``ℓ`` -- the matching
upper bound for the ``Ω̃(n)`` odd-cycle lower bound of [10] quoted in the
paper (experiment E7).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.algorithm import Algorithm, Decision, NodeContext, broadcast
from ..congest.message import Message, int_width
from ..congest.network import CongestNetwork, ExecutionResult
from ..congest.parallel import run_amplified
from ..congest.vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VEC_UNDECIDED,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)
from .color_coding import ColorSource

__all__ = [
    "LinearCycleIterationAlgorithm",
    "VectorizedLinearCycle",
    "LinearCycleReport",
    "detect_cycle_linear",
    "linear_iterations_for_constant_success",
]


def linear_iterations_for_constant_success(length: int, target: float = 2.0 / 3.0) -> int:
    """Repetitions for the ``ℓ``-color coding to hit a fixed cycle:
    per-iteration success ``ℓ^{-ℓ}``."""
    if length < 3:
        raise ValueError("cycles have length >= 3")
    if not 0 < target < 1:
        raise ValueError("target in (0,1)")
    p = float(length) ** (-length)
    return math.ceil(math.log(1.0 / (1.0 - target)) / p)


class _AnyLengthColorSource:
    """Uniform colors over {0..length-1} (RandomColorSource is 2k-specific)."""

    def __init__(self, length: int):
        self.length = length

    def color(self, node_id, rng, iteration):
        if rng is None:
            raise ValueError("random coloring needs per-node randomness")
        return int(rng.integers(0, self.length))


class LinearCycleIterationAlgorithm(Algorithm):
    """One coloring iteration of the O(n) baseline."""

    name = "linear-cycle-detection"

    def __init__(self, length: int, color_map: Optional[Mapping[int, int]] = None):
        if length < 3:
            raise ValueError("cycles have length >= 3")
        self.length = length
        self.color_map = dict(color_map) if color_map is not None else None

    def init(self, node: NodeContext) -> None:
        if node.n is None:
            raise ValueError("baseline requires knowledge of n")
        st = node.state
        if self.color_map is not None:
            st["color"] = self.color_map.get(node.id, self.length - 1)
        else:
            st["color"] = _AnyLengthColorSource(self.length).color(
                node.id, node.rng, 0
            )
        st["deadline"] = node.n + self.length + 1
        st["queue"] = deque()
        st["seen"] = set()
        if st["color"] == 0:
            st["queue"].append((node.id, 0))
            st["seen"].add((node.id, 0))

    def is_quiescent(self, node: NodeContext) -> bool:
        return node._halted

    def wake_round(self, node: NodeContext, r: int) -> int:
        # Without arrivals a node only pops its queue or halts at the
        # deadline.
        st = node.state
        return r if st["queue"] else max(r, st["deadline"])

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        ell = self.length
        for msg in inbox.values():
            origin, hop = msg.payload
            if (origin, hop) in st["seen"]:
                continue
            st["seen"].add((origin, hop))
            if origin == node.id and hop == ell - 1:
                node.reject()
                st["witness"] = origin
                continue
            if hop + 1 < ell and st["color"] == hop + 1:
                st["queue"].append((origin, hop + 1))
                st["seen"].add((origin, hop + 1))
        if node.round >= st["deadline"]:
            # With <= n tokens each traveling <= ell hops, queues must have
            # drained; a clogged queue is impossible, but guard anyway.
            if node.decision is Decision.UNDECIDED:
                node.accept()
            node.halt()
            return {}
        if not st["queue"]:
            return {}
        origin, hop = st["queue"].popleft()
        w = int_width(node.namespace_size)
        return broadcast(
            node,
            Message.of_record((origin, hop), w + int_width(self.length), kind="bfs"),
        )


def _seen_key(recv, origin, hop, n: int, ell: int):
    """Flat int64 key of a ``(receiver, origin, hop)`` position triple."""
    return (np.asarray(recv, dtype=np.int64) * n + origin) * ell + hop


class VectorizedLinearCycle(VectorizedAlgorithm):
    """Vectorized lane of :class:`LinearCycleIterationAlgorithm` (bit-exact).

    The pipelined color-coded BFS, batched: one round ingests every
    arrival at once (first-occurrence dedup per ``(receiver, origin,
    hop)`` in ascending-sender order -- the object lane's ``seen`` check),
    detects closures, relays trigger tokens into per-node FIFO queues,
    and emits all pops as one packed broadcast.  Two object-lane quirks
    are reproduced deliberately, because traffic (and hence the metrics
    ledger) depends on them:

    * relays are enqueued *without* consulting ``seen`` -- a token can be
      enqueued, and later broadcast, more than once;
    * an arrival ``(o, c)`` processed after a same-round relay trigger
      ``(o, c-1)`` from a smaller sender is skipped (the trigger marks
      ``(o, c)`` seen first), which can suppress a closure.

    Colors are drawn from the same per-node generators in the same order,
    so random colorings agree with the reference bit-for-bit.
    """

    name = "linear-cycle-detection-vec"
    message_dtype = np.dtype([("origin", np.int64), ("hop", np.int64)])

    def __init__(self, length: int, color_map: Optional[Mapping[int, int]] = None):
        if length < 3:
            raise ValueError("cycles have length >= 3")
        self.length = length
        self.color_map = dict(color_map) if color_map is not None else None

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        if not run.knows_n:
            raise ValueError("baseline requires knowledge of n")
        ell = self.length
        n = run.n
        grid = run.grid
        colors = np.empty(n, dtype=np.int64)
        if self.color_map is not None:
            cm = self.color_map
            for p in range(n):
                colors[p] = cm.get(int(grid.ids[p]), ell - 1)
        else:
            for p in range(n):
                rng = run.rngs[p]
                if rng is None:
                    raise ValueError("random coloring needs per-node randomness")
                colors[p] = int(rng.integers(0, ell))
        queues: List[deque] = [deque() for _ in range(n)]
        start = np.nonzero(colors == 0)[0]
        for p in start:
            queues[p].append((int(grid.ids[p]), 0))
        return {
            "colors": colors,
            # The object lane's per-node ``seen`` sets, as one sorted array
            # of (receiver, origin, hop) keys -- see _seen_key.  A dense
            # (n, n, ell) mask would cost n^2 * ell bytes.
            "seen": _seen_key(start, start, 0, n, ell),
            "queues": queues,
            "has_queue": colors == 0,
            "witness": np.full(n, -1, dtype=np.int64),
            "deadline": n + ell + 1,
            "msg_bits": int_width(run.namespace_size) + int_width(ell),
        }

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        return bool(run.halted.all())

    def wake_round(self, run: VecRun, state: Dict[str, Any], r: int) -> int:
        # The object lane's hook, batched: any queued token, else the
        # deadline on which every node halts.
        return r if bool(state["has_queue"].any()) else max(r, state["deadline"])

    def node_state(self, run: VecRun, state: Dict[str, Any], pos: int) -> Dict[str, Any]:
        w = int(state["witness"][pos])
        return {"witness": w} if w >= 0 else {}

    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        grid = run.grid
        ell = self.length
        colors = state["colors"]
        seen = state["seen"]
        queues = state["queues"]
        has_queue = state["has_queue"]
        if len(inbox):
            rv = inbox.recv
            ov = inbox.payload["origin"]
            hv = inbox.payload["hop"]
            op = grid.pos_of(ov)
            # First occurrence per (receiver, origin, hop); arrivals are in
            # (receiver, ascending sender) order, so "first" is exactly the
            # arrival the object lane's seen-check lets through.
            key = _seen_key(rv, op, hv, grid.n, ell)
            _, first_idx = np.unique(key, return_index=True)
            first = np.zeros(key.shape[0], dtype=bool)
            first[first_idx] = True
            processed = first & ~np.isin(key, seen)
            closure = processed & (ov == grid.ids[rv]) & (hv == ell - 1)
            trigger = processed & ~closure & (hv + 1 < ell) & (colors[rv] == hv + 1)
            # Same-round suppression: an arrival (o, c) at a node of color c
            # is skipped if a trigger (o, c-1) from a smaller sender already
            # marked (o, c) seen this round.
            cand = processed & (hv == colors[rv])
            if bool(trigger.any()) and bool(cand.any()):
                t_idx = np.nonzero(trigger)[0]
                t_key = rv[t_idx] * grid.n + op[t_idx]  # unique per trigger
                t_order = np.argsort(t_key, kind="stable")
                t_key_s = t_key[t_order]
                t_idx_s = t_idx[t_order]
                c_idx = np.nonzero(cand)[0]
                c_key = rv[c_idx] * grid.n + op[c_idx]
                where = np.searchsorted(t_key_s, c_key)
                safe = np.minimum(where, t_key_s.shape[0] - 1)
                hit = (where < t_key_s.shape[0]) & (t_key_s[safe] == c_key)
                blocked_c = hit & (t_idx_s[safe] < c_idx)
                if bool(blocked_c.any()):
                    blocked = np.zeros_like(processed)
                    blocked[c_idx[blocked_c]] = True
                    processed &= ~blocked
                    closure &= ~blocked
                    # triggers are never blocked: their hop is c-1 != c.
            # key + 1 is the (receiver, origin, hop + 1) key of a trigger.
            seen = state["seen"] = np.union1d(
                seen, np.concatenate((key[processed], key[trigger] + 1))
            )
            if bool(trigger.any()):
                # Enqueue relays in arrival order (FIFO parity with the
                # object lane); deliberately no seen-check -- see class doc.
                for i in np.nonzero(trigger)[0]:
                    p = int(rv[i])
                    queues[p].append((int(ov[i]), int(hv[i]) + 1))
                    has_queue[p] = True
            if bool(closure.any()):
                run.decision[rv[closure]] = VEC_REJECT
                # Fancy assignment: the last (largest-sender) closure wins,
                # matching the object lane's per-arrival overwrite.
                state["witness"][rv[closure]] = ov[closure]
        if r >= state["deadline"]:
            run.decision[run.decision == VEC_UNDECIDED] = VEC_ACCEPT
            run.halted[:] = True
            return None
        senders = np.nonzero(has_queue)[0]
        if senders.shape[0] == 0:
            return None
        origins = np.empty(senders.shape[0], dtype=np.int64)
        hops = np.empty(senders.shape[0], dtype=np.int64)
        for j, p in enumerate(senders):
            o, h = queues[p].popleft()
            origins[j] = o
            hops[j] = h
            if not queues[p]:
                has_queue[p] = False
        edges = grid.out_edges(senders)
        deg = grid.deg[senders]
        payload = np.empty(edges.shape[0], dtype=self.message_dtype)
        payload["origin"] = np.repeat(origins, deg)
        payload["hop"] = np.repeat(hops, deg)
        return VecOutbox(edges, payload, state["msg_bits"])


@dataclass
class LinearCycleReport:
    detected: bool
    iterations_run: int
    rounds_per_iteration: int
    total_rounds: int
    results: List[ExecutionResult] = field(default_factory=list)
    total_bits: int = 0
    total_messages: int = 0
    seeds_requested: int = 0
    seeds_saved: int = 0
    stop_reason: str = "exhausted"


@dataclass(frozen=True)
class _LinearCycleFactory:
    """Picklable per-iteration algorithm factory for parallel amplification."""

    length: int
    color_map: Optional[Tuple[Tuple[int, int], ...]]
    lane: str = "object"

    def __call__(self, iteration: int):
        cmap = dict(self.color_map) if self.color_map is not None else None
        cls = VectorizedLinearCycle if self.lane == "vectorized" else (
            LinearCycleIterationAlgorithm
        )
        return cls(self.length, color_map=cmap)


def detect_cycle_linear(
    graph: nx.Graph,
    length: int,
    iterations: int,
    seed: int = 0,
    bandwidth: Optional[int] = None,
    color_map: Optional[Mapping[int, int]] = None,
    stop_on_detect: bool = True,
    keep_results: bool = False,
    jobs: int = 1,
    metrics: str = "full",
    lane: str = "object",
    session: Optional["RunSession"] = None,
) -> LinearCycleReport:
    """Amplified O(n)-baseline detection of ``C_length``.

    ``jobs`` / ``metrics`` mirror :func:`repro.core.even_cycle.detect_even_cycle`:
    iterations fan out over a process pool with a first-rejecting-seed merge,
    so the decision is bit-identical to the sequential loop.
    ``lane="vectorized"`` runs :class:`VectorizedLinearCycle` per iteration
    (same decisions, witnesses, and bit totals as the object lane).  With a
    ``session``, its policy supplies jobs/metrics/lane and those legacy
    kwargs are ignored.
    """
    from ..runtime.session import use_session

    if lane not in ("object", "vectorized"):
        raise ValueError(f"lane must be 'object' or 'vectorized', got {lane!r}")
    ses = use_session(session, metrics=metrics, lane=lane, jobs=jobs)
    n = graph.number_of_nodes()
    if bandwidth is None:
        bandwidth = int_width(max(n, 2)) + int_width(length)
    rounds_per = n + length + 2
    # A uniform coloring assigns all `length` cycle positions correctly
    # with probability length^(-length); a fixed color_map is
    # deterministic, so one iteration suffices.
    success_probability = (
        1.0 if color_map is not None else float(length) ** -length
    )

    adaptive = not ses.policy.amplification().is_null
    if ses.policy.jobs > 1 or (adaptive and not keep_results):
        if keep_results:
            raise ValueError(
                "keep_results needs jobs=1: full ExecutionResults are not "
                "shipped back from worker processes"
            )
        factory = _LinearCycleFactory(
            length,
            tuple(sorted(color_map.items())) if color_map is not None else None,
            lane=ses.policy.lane,
        )
        amp = ses.amplify(
            graph,
            factory,
            iterations,
            seed=seed,
            bandwidth=bandwidth,
            max_rounds=rounds_per,
            stop_on_detect=stop_on_detect,
            label=f"linear-cycle-C{length}",
            success_probability=success_probability,
        )
        return LinearCycleReport(
            detected=amp.rejected,
            iterations_run=amp.iterations_run,
            rounds_per_iteration=rounds_per,
            total_rounds=amp.iterations_run * rounds_per,
            results=[],
            total_bits=amp.total_bits,
            total_messages=amp.total_messages,
            seeds_requested=iterations,
            seeds_saved=amp.seeds_saved,
            stop_reason=amp.stop_reason,
        )

    # keep_results pins the sequential loop; of the adaptive knobs only
    # the max_seeds cap applies here.
    if ses.policy.amplify_max_seeds is not None:
        iterations = min(iterations, ses.policy.amplify_max_seeds)
    net = ses.network(graph, bandwidth=bandwidth)
    detected = False
    runs = 0
    total_bits = 0
    total_messages = 0
    results: List[ExecutionResult] = []
    algo_cls = ses.lane_class(LinearCycleIterationAlgorithm, VectorizedLinearCycle)
    for t in range(iterations):
        algo = algo_cls(length, color_map=color_map)
        res = ses.run(
            net,
            algo,
            max_rounds=rounds_per,
            seed=seed + t,
            label=f"linear-cycle-C{length}",
        )
        runs += 1
        total_bits += res.metrics.total_bits
        total_messages += res.metrics.total_messages
        if keep_results:
            results.append(res)
        if res.rejected:
            detected = True
            if stop_on_detect:
                break
    return LinearCycleReport(
        detected=detected,
        iterations_run=runs,
        rounds_per_iteration=rounds_per,
        total_rounds=runs * rounds_per,
        results=results,
        total_bits=total_bits,
        total_messages=total_messages,
        seeds_requested=iterations,
        seeds_saved=iterations - runs,
        stop_reason="detect" if detected and stop_on_detect else "exhausted",
    )

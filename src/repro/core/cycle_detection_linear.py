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

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.algorithm import Algorithm, Decision, NodeContext, broadcast
from ..congest.message import Message, int_width
from ..congest.randomness import first_integers
from ..congest.vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VEC_UNDECIDED,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)
from .color_coding import AmplifiedReport

__all__ = [
    "LinearCycleIterationAlgorithm",
    "VectorizedLinearCycle",
    "detect_cycle_linear",
    "linear_success_probability",
]


def linear_success_probability(length: int) -> float:
    """Probability that one uniform ``ℓ``-coloring properly colors a fixed
    ``C_ℓ`` (all ``ℓ`` positions right): ``ℓ^{-ℓ}``."""
    if length < 3:
        raise ValueError("cycles have length >= 3")
    return float(length) ** -length


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


def _first_unseen(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the keys the object lane's ``seen`` check lets through:
    each key's first occurrence (``np.unique``'s ``return_index``) unless
    the sorted, duplicate-free ``seen`` already holds it.  One stable
    argsort serves both tests: the head of each run of equal keys is its
    earliest entry, and the heads come out sorted, so the membership
    search walks ``seen`` in order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    heads = np.flatnonzero(_run_heads(sorted_keys))
    heads = heads[~_sorted_member(seen, sorted_keys[heads])]
    mask = np.zeros(keys.shape[0], dtype=bool)
    mask[order[heads]] = True
    return mask


def _run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal keys in a sorted array."""
    head = np.ones(sorted_keys.shape[0], dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return head


def _sorted_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.isin(keys, sorted_keys)`` for a sorted, duplicate-free array."""
    where = np.searchsorted(sorted_keys, keys)
    hit = where < sorted_keys.shape[0]
    hit[hit] = sorted_keys[where[hit]] == keys[hit]
    return hit


def _sorted_union(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.union1d(sorted_keys, keys)`` for a sorted, duplicate-free
    ``sorted_keys``: sort the (few) new keys, merge the two sorted runs
    with one stable sort (a linear merge), and drop repeats."""
    merged = np.sort(np.concatenate((sorted_keys, np.sort(keys))), kind="stable")
    return merged[_run_heads(merged)]


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

    Each node's color is its generator's first ``integers(0, ℓ)`` draw,
    as in the reference; the fused lane computes all ``n`` draws as one
    array without building a generator (:func:`first_integers`), so
    random colorings agree with the reference bit-for-bit.

    A step is array code.  The ``seen`` keys stay one sorted array
    maintained by binary search and merge.  All FIFO queues together are
    three parallel arrays, ``q_pos`` / ``q_origin`` / ``q_hop``, sorted
    by position with each position's oldest token first: an enqueue
    appends the round's relays (already in arrival order) and re-sorts
    by position with a stable sort, and a pop takes the head of each
    position's run -- the senders, in ascending position order.
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
        if self.color_map is not None:
            cm = self.color_map
            colors = np.fromiter(
                (cm.get(u, ell - 1) for u in grid.ids.tolist()), np.int64, n
            )
        else:
            colors = first_integers(run.rngs, ell)
        start = np.nonzero(colors == 0)[0]
        return {
            "colors": colors,
            # The object lane's per-node ``seen`` sets, as one sorted array
            # of (receiver, origin, hop) keys -- see _seen_key.  A dense
            # (n, n, ell) mask would cost n^2 * ell bytes.
            "seen": _seen_key(start, start, 0, n, ell),
            # Every node's FIFO token queue, as one token list sorted by
            # position, oldest first within a position (see the class doc).
            "q_pos": start,
            "q_origin": grid.ids[start],
            "q_hop": np.zeros(start.shape[0], dtype=np.int64),
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
            processed = _first_unseen(seen, key)
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
            seen = state["seen"] = _sorted_union(
                seen, np.concatenate((key[processed], key[trigger] + 1))
            )
            if bool(trigger.any()):
                # Enqueue relays behind each node's older tokens, in
                # arrival order (FIFO parity with the object lane);
                # deliberately no seen-check -- see class doc.
                t_idx = np.nonzero(trigger)[0]
                t_pos = rv[t_idx]
                q_pos = np.concatenate((state["q_pos"], t_pos))
                order = np.argsort(q_pos, kind="stable")
                state["q_pos"] = q_pos[order]
                state["q_origin"] = np.concatenate(
                    (state["q_origin"], ov[t_idx]))[order]
                state["q_hop"] = np.concatenate(
                    (state["q_hop"], hv[t_idx] + 1))[order]
                has_queue[t_pos] = True
            if bool(closure.any()):
                run.decision[rv[closure]] = VEC_REJECT
                # Fancy assignment: the last (largest-sender) closure wins,
                # matching the object lane's per-arrival overwrite.
                state["witness"][rv[closure]] = ov[closure]
        if r >= state["deadline"]:
            run.decision[run.decision == VEC_UNDECIDED] = VEC_ACCEPT
            run.halted[:] = True
            return None
        q_pos = state["q_pos"]
        if q_pos.shape[0] == 0:
            return None
        # Pop every queue's head: the first token of each position's run.
        head = _run_heads(q_pos)
        senders = q_pos[head]
        origins = state["q_origin"][head]
        hops = state["q_hop"][head]
        rest = ~head
        state["q_pos"] = q_pos = q_pos[rest]
        state["q_origin"] = state["q_origin"][rest]
        state["q_hop"] = state["q_hop"][rest]
        has_queue[senders] = False
        has_queue[q_pos] = True
        edges = grid.out_edges(senders)
        deg = grid.deg[senders]
        payload = np.empty(edges.shape[0], dtype=self.message_dtype)
        payload["origin"] = np.repeat(origins, deg)
        payload["hop"] = np.repeat(hops, deg)
        return VecOutbox(edges, payload, state["msg_bits"])


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
    session: Optional["RunSession"] = None,
) -> AmplifiedReport:
    """Amplified O(n)-baseline detection of ``C_length``.

    Like :func:`repro.core.even_cycle.detect_even_cycle`, the seeds run
    through one ``session.amplify`` call, so the decision is bit-identical
    at any ``jobs`` and the whole policy applies to every seed.
    ``lane=vectorized`` runs :class:`VectorizedLinearCycle` per iteration
    (same decisions, witnesses, and bit totals as the object lane).
    ``bandwidth`` falls back to the session policy's, then to one token:
    an id plus a hop count.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    n = graph.number_of_nodes()
    rounds_per = n + length + 2
    # A fixed color_map is deterministic, so one iteration suffices.
    amp = ses.amplify(
        graph,
        _LinearCycleFactory(
            length,
            tuple(sorted(color_map.items())) if color_map is not None else None,
            lane=ses.policy.lane,
        ),
        iterations,
        seed=seed,
        bandwidth=ses.resolve_bandwidth(
            bandwidth, int_width(max(n, 2)) + int_width(length)
        ),
        max_rounds=rounds_per,
        stop_on_detect=stop_on_detect,
        label=f"linear-cycle-C{length}",
        success_probability=(
            1.0 if color_map is not None else linear_success_probability(length)
        ),
    )
    return AmplifiedReport.from_outcome(amp, rounds_per)

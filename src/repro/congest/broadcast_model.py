"""The broadcast-CONGEST variant.

Related work the paper engages with ([10] Drucker--Kuhn--Oshman, and [18]
Korhonen--Rybicki's deterministic subgraph detection) lives in
*broadcast* CONGEST: per round, each node sends **one** ``B``-bit message
delivered to *all* its neighbors -- it cannot send different messages on
different edges.  Lower bounds proven in broadcast CONGEST are weaker
statements (the model is weaker), which is why the paper is explicit about
which results live where.

This module enforces the broadcast restriction on top of the standard
engine: a :class:`BroadcastNetwork` rejects any outbox whose messages
differ across edges, and :func:`as_broadcast_algorithm` adapts broadcast-
style algorithms (which return a single message) to the engine API.

Of the algorithms in this repo, the color-coded BFS detectors are
*naturally* broadcast algorithms (they send the same token to every
neighbor), so Theorem 1.1 and the linear baseline run unchanged in the
weaker model -- a fact worth a test, since it mirrors [18]'s observation
that much of cycle detection is broadcast-friendly.  Under a
``model="broadcast"`` policy the check holds on every amplified seed:
the detectors have one amplification path
(:meth:`repro.runtime.session.RunSession.amplify`), whose chunks build
their network through the one model dispatch
(:func:`repro.congest.parallel.build_network`) at any ``jobs`` and with
the adaptive ``amplify_*`` knobs set.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import networkx as nx
import numpy as np

from .algorithm import Algorithm, NodeContext
from .message import Message
from .network import CongestNetwork, ExecutionResult
from .vectorized import VecInbox, VecOutbox, VecRun, VectorizedAlgorithm

__all__ = [
    "BroadcastViolation",
    "BroadcastNetwork",
    "BroadcastAlgorithm",
    "run_broadcast_congest",
]


class BroadcastViolation(RuntimeError):
    """Raised when a node sends different messages to different neighbors."""


class BroadcastNetwork(CongestNetwork):
    """CONGEST with the broadcast restriction enforced per round."""

    def run(self, algorithm: Any, *args: Any, **kwargs: Any) -> ExecutionResult:
        """:meth:`CongestNetwork.run` with every outbox checked.  The
        vectorized wrapper is itself a :class:`VectorizedAlgorithm`, so the
        engine's lane dispatch keeps routing it to the batched executor."""
        if isinstance(algorithm, VectorizedAlgorithm):
            return super().run(_VecBroadcastChecked(algorithm), *args, **kwargs)
        return super().run(_BroadcastChecked(algorithm), *args, **kwargs)


class _BroadcastChecked(Algorithm):
    """Wrapper validating the broadcast restriction on every outbox."""

    def __init__(self, inner: Algorithm):
        self.inner = inner
        self.name = f"broadcast({getattr(inner, 'name', 'algorithm')})"
        # Forward the quiescence and wake hooks only if the inner algorithm
        # has them: the engine treats a missing hook as "never assume
        # quiescent" / "run every round", and the wrapper must not change
        # that contract.  A skipped round has no outbox to validate.
        probe = getattr(inner, "is_quiescent", None)
        if probe is not None:
            self.is_quiescent = probe
        if inner.wake_round is not None:
            self.wake_round = inner.wake_round

    def init(self, node: NodeContext) -> None:
        self.inner.init(node)

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        outbox = self.inner.round(node, inbox) or {}
        if outbox:
            messages = set(outbox.values())
            if len(messages) > 1:
                raise BroadcastViolation(
                    f"node {node.id} sent {len(messages)} distinct messages in "
                    "one round; broadcast CONGEST allows exactly one"
                )
            if set(outbox.keys()) != set(node.neighbors):
                raise BroadcastViolation(
                    f"node {node.id} sent to a strict subset of its neighbors; "
                    "a broadcast reaches all of them"
                )
        return outbox

    def finish(self, node: NodeContext) -> None:
        self.inner.finish(node)


class _VecBroadcastChecked(VectorizedAlgorithm):
    """Vectorized-lane wrapper validating the broadcast restriction.

    Mirrors :class:`_BroadcastChecked` on packed outboxes: per round,
    every sending node's messages must ride *all* of its out-edges with
    an identical payload row and identical declared bit size.  Duplicate
    edges in one outbox are left for the engine's own one-message-per-
    edge check (its diagnostic is the canonical one).
    """

    def __init__(self, inner: VectorizedAlgorithm):
        self.inner = inner
        self.name = f"broadcast({getattr(inner, 'name', 'vectorized-algorithm')})"
        self.message_dtype = getattr(inner, "message_dtype", None)
        # As in _BroadcastChecked: a skipped round has no outbox to check.
        if inner.wake_round is not None:
            self.wake_round = inner.wake_round

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        return self.inner.init_state(run)

    def finish_all(self, run: VecRun, state: Dict[str, Any]) -> None:
        self.inner.finish_all(run, state)

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        return self.inner.all_quiescent(run, state)

    def node_state(
        self, run: VecRun, state: Dict[str, Any], pos: int
    ) -> Dict[str, Any]:
        return self.inner.node_state(run, state, pos)

    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        out = self.inner.step_all(run, r, state, inbox)
        if out is None:
            return out
        edges = np.asarray(out.edges, dtype=np.int64)
        if edges.shape[0] == 0:
            return out
        grid = run.grid
        order = np.argsort(edges, kind="stable")
        sorted_edges = edges[order]
        if bool((sorted_edges[1:] == sorted_edges[:-1]).any()):
            return out  # duplicate edge: the engine raises its own error
        senders = grid.src[sorted_edges]
        uniq, group_start, counts = np.unique(
            senders, return_index=True, return_counts=True
        )
        short = counts != grid.deg[uniq]
        if bool(short.any()):
            bad = int(grid.ids[uniq[short][0]])
            raise BroadcastViolation(
                f"node {bad} sent to a strict subset of its neighbors; "
                "a broadcast reaches all of them"
            )
        # One message per sender: every row (and declared size) in a
        # sender's group must equal the group's first.
        first_of = np.repeat(group_start, counts)
        payload = np.asarray(out.payload)
        eq = payload[order] == payload[order[first_of]]
        eq = np.asarray(eq)
        if eq.ndim > 1:
            eq = eq.reshape(eq.shape[0], -1).all(axis=1)
        sizes = out.size_bits
        if isinstance(sizes, np.ndarray):
            eq = eq & (sizes[order] == sizes[order[first_of]])
        uniform = np.minimum.reduceat(eq.astype(np.int8), group_start) == 1
        if not bool(uniform.all()):
            bad = int(grid.ids[uniq[~uniform][0]])
            raise BroadcastViolation(
                f"node {bad} sent distinct messages in one round; "
                "broadcast CONGEST allows exactly one"
            )
        return out


class BroadcastAlgorithm(Algorithm):
    """Base class for algorithms written in broadcast style.

    Subclasses implement :meth:`broadcast_round` returning a single
    optional message; the adapter fans it out to every neighbor (or stays
    silent on ``None``).
    """

    def broadcast_round(
        self, node: NodeContext, inbox: Mapping[int, Message]
    ) -> Optional[Message]:
        raise NotImplementedError

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        msg = self.broadcast_round(node, inbox)
        if msg is None:
            return {}
        return {v: msg for v in node.neighbors}


def run_broadcast_congest(
    graph: nx.Graph,
    algorithm: Algorithm,
    bandwidth: Optional[int],
    max_rounds: int,
    seed: Optional[int] = 0,
    **kwargs: Any,
) -> ExecutionResult:
    """One-shot broadcast-CONGEST run with the restriction enforced."""
    stop_on_reject = kwargs.pop("stop_on_reject", False)
    metrics = kwargs.pop("metrics", "full")
    sanitize = kwargs.pop("sanitize", False)
    faults = kwargs.pop("faults", None)
    net = BroadcastNetwork(graph, bandwidth=bandwidth, **kwargs)
    return net.run(
        algorithm,
        max_rounds=max_rounds,
        seed=seed,
        stop_on_reject=stop_on_reject,
        metrics=metrics,
        sanitize=sanitize,
        faults=faults,
    )

"""A scale workload: dense broadcast with a data-dependent accumulator.

Every detection algorithm in this repo is round-cheap at small ``n``; none
of them stresses the *engine* at ``n ~ 10^5 - 10^6``.  This module is that
stress: each node broadcasts a 31-bit accumulator every round and folds
its neighbours' values back in, so every round moves one message across
every directed edge -- the densest traffic the CONGEST model allows -- and
the final decision depends on every value ever received.  It is the
workload behind the fused kernel's parity, speed and growth checks
(``tests/congest/test_kernels.py``) and the large-``n`` memory
regressions (``tests/congest/test_scale_memory.py``).

The arithmetic is deliberately exact in int64 (no overflow for
``n <= 2^12`` neighbours per node at 31-bit values, far past any graph
here), so the object lane's Python integers and the vectorized lane's
arrays agree bit-for-bit:

* init: ``acc = (id * 2654435761 + 1) mod M`` with ``M = 2^31 - 1``
  (Knuth's multiplicative hash spreads adjacent ids);
* round ``r`` with a non-empty inbox:
  ``acc = (3 * acc + sum(received) + r) mod M``;
* final round: **reject** iff ``acc % 97 == 0`` (a pseudo-random ~1%% of
  nodes, forcing the full decision sweep), witness = the final ``acc``.

There is nothing graph-theoretic to detect -- the point is that every
round, every edge, and every received bit is load-bearing for the
decision, so any engine shortcut that drops or reorders traffic changes
the output.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..congest.algorithm import Algorithm, NodeContext, broadcast
from ..congest.message import Message
from ..congest.vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)

__all__ = ["ACC_MODULUS", "ACC_WIDTH", "BroadcastAccumulate", "VectorizedBroadcastAccumulate"]

#: Accumulator modulus (Mersenne prime 2^31 - 1) and honest wire width.
ACC_MODULUS = (1 << 31) - 1
ACC_WIDTH = 31
_HASH_MULT = 2654435761


def _initial(node_id: int) -> int:
    return (node_id * _HASH_MULT + 1) % ACC_MODULUS


class BroadcastAccumulate(Algorithm):
    """Object-lane reference of the accumulator broadcast (see module doc)."""

    name = "broadcast-accumulate"

    def __init__(self, rounds: int):
        if rounds < 1:
            raise ValueError("need at least one round")
        self.rounds = rounds

    def init(self, node: NodeContext) -> None:
        node.state["acc"] = _initial(node.id)

    def is_quiescent(self, node: NodeContext) -> bool:
        return node._halted

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        if inbox:
            total = sum(msg.payload for msg in inbox.values())
            st["acc"] = (3 * st["acc"] + total + node.round) % ACC_MODULUS
        if node.round >= self.rounds:
            if st["acc"] % 97 == 0:
                node.reject()
                st["witness"] = st["acc"]
            else:
                node.accept()
            node.halt()
            return {}
        return broadcast(node, Message.of_record(st["acc"], ACC_WIDTH, kind="acc"))


class VectorizedBroadcastAccumulate(VectorizedAlgorithm):
    """Vectorized lane of :class:`BroadcastAccumulate` (bit-exact).

    The heavy case for the fused round kernel: every node broadcasts every
    round, so the outbox is always the engine's own ``all_edges()``
    constant and the whole run rides the trusted full-broadcast fast
    path.  Per-receiver sums use ``np.add.reduceat`` over the
    receiver-grouped inbox -- the inbox arrives sorted by
    ``(recv, send)``, so group boundaries are one ``!=`` scan.
    """

    name = "broadcast-accumulate-vec"
    message_dtype = np.dtype(np.int64)

    def __init__(self, rounds: int):
        if rounds < 1:
            raise ValueError("need at least one round")
        self.rounds = rounds

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        acc = (run.grid.ids * _HASH_MULT + 1) % ACC_MODULUS
        return {"acc": acc, "witness": np.full(run.n, -1, dtype=np.int64)}

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        return bool(run.halted.all())

    def node_state(self, run: VecRun, state: Dict[str, Any], pos: int) -> Dict[str, Any]:
        w = int(state["witness"][pos])
        return {"witness": w} if w >= 0 else {}

    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        acc = state["acc"]
        if len(inbox):
            recv = inbox.recv
            # Receiver-grouped arrivals: reduceat over the group starts is
            # the vector form of the object lane's per-inbox sum.  Sums
            # stay exact in int64: deg * (2^31) needs deg < 2^33.
            starts = np.concatenate(
                ([0], np.flatnonzero(recv[1:] != recv[:-1]) + 1)
            )
            totals = np.add.reduceat(inbox.payload, starts)
            touched = recv[starts]
            acc[touched] = (3 * acc[touched] + totals + r) % ACC_MODULUS
        if r >= self.rounds:
            reject = (acc % 97) == 0
            run.decision[reject] = VEC_REJECT
            run.decision[~reject] = VEC_ACCEPT
            state["witness"][reject] = acc[reject]
            run.halted[:] = True
            return None
        grid = run.grid
        return VecOutbox(grid.all_edges(), acc[grid.src], ACC_WIDTH)

"""One-round protocols executed on the real simulator (Section 5, wired up).

:func:`repro.core.triangle.run_one_round_protocol` evaluates a one-round
protocol *analytically*: it computes the three special nodes' messages and
decisions directly from the input representation, ignoring the leaves (whose
inputs carry no information about the triangle -- Section 5's observation).

This module closes the loop with the message-passing substrate: it builds a
:class:`~repro.congest.network.CongestNetwork` over the *realized* subgraph
``G ⊆ G_T``, hands every node (special and leaf alike) its paper-faithful
input ``(U, X, u)``, runs exactly one communication round with the node's
message produced by the same protocol object, and decides.  The engine also
enforces the bandwidth the protocol claims.

Tests assert the network execution agrees with the analytic runner on every
sample -- i.e. the "ignore the leaves" simplification in the analysis is
sound for our protocol family (leaf messages can only mention their single
potential neighbor, which never closes a triangle test).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping, Optional

import numpy as np

from ..congest.algorithm import Algorithm, NodeContext
from ..congest.message import Message
from ..congest.network import CongestNetwork
from ..congest.vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)
from ..core.triangle import OneRoundOutcome, OneRoundProtocol
from ..graphs.template_graph import SPECIALS, TemplateSample

__all__ = [
    "OneRoundNetworkAlgorithm",
    "VectorizedOneRoundAlgorithm",
    "run_one_round_on_network",
]


class OneRoundNetworkAlgorithm(Algorithm):
    """Adapter: a :class:`OneRoundProtocol` as a 2-round engine algorithm.

    Round 0: every special node broadcasts ``protocol.message(U, X, u)`` to
    its realized neighbors; leaves broadcast the empty message (our protocol
    family defines leaves silent -- their single-edge inputs carry no
    information about the triangle bits, the Section 5 observation, and a
    sketch-style protocol that *did* mix leaf fingerprints into its decision
    would only add self-inflicted noise).  Round 1: every node ingests;
    special nodes apply ``protocol.decide`` and halt; leaves accept.  (Two
    engine rounds because delivery is at the round boundary; communication
    happens once -- it is a one-round protocol in the model's sense.)
    """

    name = "one-round-network"

    def __init__(self, protocol: OneRoundProtocol):
        self.protocol = protocol

    def init(self, node: NodeContext) -> None:
        inp = node.input
        node.state["is_special"] = inp["is_special"]
        node.state["msg"] = (
            self.protocol.message(inp["ids"], inp["bits"], inp["own_id"])
            if inp["is_special"]
            else ""
        )

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        if node.round == 0:
            m = node.state["msg"]
            if not isinstance(m, str) or not set(m) <= {"0", "1"}:
                raise ValueError(f"non-bitstring message {m!r}")
            payload = Message.of_bits(m, kind="one-round")
            return {v: payload for v in node.neighbors}
        if not node.state["is_special"]:
            node.accept()
            node.halt()
            return {}
        received = {}
        for sender, msg in inbox.items():
            m = msg.payload if isinstance(msg.payload, str) else ""
            # Silent leaves contribute nothing to decide().  A frame
            # garbled in transit (fault injection's stuck-at-zero
            # corruption) fails the bitstring check and is treated as
            # lost -- the link-layer-CRC view of corruption, applied
            # identically by the vectorized port.
            if not m or set(m) - {"0", "1"}:
                continue
            received[node.input["id_of_engine_neighbor"][sender]] = m
        if self.protocol.decide(
            node.input["ids"], node.input["bits"], node.input["own_id"], received
        ):
            node.reject()
        else:
            node.accept()
        node.halt()
        return {}


class VectorizedOneRoundAlgorithm(VectorizedAlgorithm):
    """Vectorized lane of :class:`OneRoundNetworkAlgorithm` (bit-exact port).

    The protocol is inherently two engine rounds; the vectorized win here
    is the broadcast itself: every node's bitstring message is packed once
    into a byte matrix and shipped as a single array send with per-message
    declared sizes (leaves declare 0 bits, exactly like the object lane's
    empty ``of_bits`` message).  The decide step loops over the three
    special nodes only.  No ``all_quiescent`` override: the object lane has
    no quiescence hook either, so both lanes report ``rounds == 2``.
    """

    name = "one-round-network-vec"

    def __init__(self, protocol: OneRoundProtocol):
        self.protocol = protocol

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        msgs = []
        special = np.zeros(run.n, dtype=bool)
        for p in range(run.n):
            inp = run.input_of(p)
            special[p] = bool(inp["is_special"])
            m = (
                self.protocol.message(inp["ids"], inp["bits"], inp["own_id"])
                if inp["is_special"]
                else ""
            )
            if not isinstance(m, str) or not set(m) <= {"0", "1"}:
                raise ValueError(f"non-bitstring message {m!r}")
            msgs.append(m)
        lens = np.array([len(m) for m in msgs], dtype=np.int64)
        packed = np.zeros((run.n, max(1, int(lens.max(initial=0)))), dtype=np.uint8)
        for p, m in enumerate(msgs):
            if m:
                packed[p, : len(m)] = np.frombuffer(m.encode("ascii"), np.uint8)
        return {"packed": packed, "lens": lens, "special": special}

    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        grid = run.grid
        if r == 0:
            return VecOutbox(
                grid.all_edges(),
                state["packed"][grid.src],
                state["lens"][grid.src],
            )
        run.decision[:] = VEC_ACCEPT
        for sp in np.nonzero(state["special"])[0]:
            lo, hi = np.searchsorted(inbox.recv, [sp, sp + 1])
            inp = run.input_of(int(sp))
            received = {}
            for j in range(int(lo), int(hi)):
                sz = (
                    int(inbox.sizes[j])
                    if inbox.sizes is not None
                    else inbox.size_bits
                )
                if sz == 0:
                    continue  # silent leaves contribute nothing to decide()
                decoded = inbox.payload[j, :sz].tobytes().decode("ascii")
                if set(decoded) - {"0", "1"}:
                    # Garbled frame (stuck-at-zero corruption): treated
                    # as lost, matching the object lane's check.
                    continue
                sender_id = int(grid.ids[inbox.send[j]])
                received[inp["id_of_engine_neighbor"][sender_id]] = decoded
            if self.protocol.decide(
                inp["ids"], inp["bits"], inp["own_id"], received
            ):
                run.decision[sp] = VEC_REJECT
        run.halted[:] = True
        return None


def _leaf_input(sample: TemplateSample, leaf: Hashable) -> Dict:
    """A leaf's paper-faithful input: one potential neighbor (its special)."""
    _, s, _ = leaf
    special = ("special", s)
    return {
        "ids": (sample.identifiers[special],),
        "bits": (int(sample.graph.has_edge(leaf, special)),),
        "own_id": sample.identifiers[leaf],
        "is_special": False,
    }


def run_one_round_on_network(
    protocol: OneRoundProtocol,
    sample: TemplateSample,
    bandwidth: Optional[int] = None,
    seed: int = 0,
    session: Optional["RunSession"] = None,
) -> OneRoundOutcome:
    """Execute the protocol on the realized graph via the engine.

    ``bandwidth=None`` sizes the pipe to the largest message the protocol
    actually produced (so the run documents its own bandwidth, which the
    outcome reports -- the quantity Theorem 5.1 bounds).
    A ``session`` whose policy says ``lane=vectorized`` runs
    :class:`VectorizedOneRoundAlgorithm`; the decision, round count, and
    metrics ledger match the object lane.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    g = sample.graph
    inputs: Dict[Hashable, Dict] = {}
    for v in g.nodes():
        if v[0] == "special":
            s = v[1]
            inp = sample.inputs[s]
            inputs[v] = {
                "ids": inp.ids,
                "bits": inp.bits,
                "own_id": inp.own_id,
                "is_special": True,
            }
        else:
            inputs[v] = _leaf_input(sample, v)

    # Engine ids are canonical ints; nodes need to translate engine sender
    # ids back to protocol-level identifiers.
    order = sorted(g.nodes(), key=repr)
    assignment = {v: i for i, v in enumerate(order)}
    for v in g.nodes():
        inputs[v]["id_of_engine_neighbor"] = {
            assignment[w]: sample.identifiers[w] for w in g.neighbors(v)
        }

    messages = {
        s: protocol.message(
            sample.inputs[s].ids, sample.inputs[s].bits, sample.inputs[s].own_id
        )
        for s in SPECIALS
    }
    if bandwidth is None:
        bandwidth = max((len(m) for m in messages.values()), default=1) or 1

    net = ses.network(
        g,
        bandwidth=bandwidth,
        assignment=assignment,
        namespace_size=max(sample.identifiers.values()) + 1,
        inputs=inputs,
    )
    algo_cls = ses.lane_class(OneRoundNetworkAlgorithm, VectorizedOneRoundAlgorithm)
    res = ses.run(net, algo_cls(protocol), max_rounds=2, seed=seed, label="one-round")

    rejected = res.rejected
    truth = sample.has_triangle()
    return OneRoundOutcome(
        rejected=rejected,
        correct=(rejected == truth),
        bandwidth_used=max(len(m) for m in messages.values()),
        messages=messages,
    )

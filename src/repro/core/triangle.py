"""Triangle detection algorithms: the CONGEST upper bound and the one-round
protocols the Section 5 lower bound quantifies over.

* :class:`NeighborExchangeTriangleDetection` -- the folklore CONGEST
  algorithm: every node ships its adjacency list to each neighbor, chunked
  to ``B`` bits per round; a node holding edge ``{u, v}`` and learning that
  ``w ∈ N(u) ∩ N(v)``... in fact it suffices that ``v`` sees some
  ``w ∈ N(u) ∩ N(v)`` for a neighbor ``u``.  Runs in
  ``O(Δ * log(N) / B)`` rounds.  This is the algorithm Theorem 5.1 says
  cannot be compressed into one round with ``o(Δ)`` bandwidth.
* :class:`OneRoundProtocol` implementations -- single-round algorithms on
  the Section 5 template graph's input representation ``N_s = (U_s, X_s,
  u_s)``.  These are the adversary's prey in experiment E4:

  - :class:`FullAnnouncementProtocol`: send everything (bandwidth
    ``Θ(Δ log N)``, always correct) -- the upper bound anchoring the Ω(Δ)
    story;
  - :class:`TruncatedAnnouncementProtocol`: send only ``b`` bits of the
    (permuted) neighbor list: correct only when ``b = Ω(Δ)``;
  - :class:`HashSketchProtocol`: a ``b``-bit Bloom-style sketch of the
    realized neighbor ids;
  - :class:`SilentProtocol`: send nothing, always accept (the error floor).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..congest.algorithm import WAKE_NEVER, Algorithm, Decision, NodeContext
from ..congest.message import Message, int_width
from ..congest.network import CongestNetwork, ExecutionResult
from ..graphs.template_graph import SPECIALS, TemplateSample

__all__ = [
    "NeighborExchangeTriangleDetection",
    "detect_triangle_congest",
    "OneRoundProtocol",
    "FullAnnouncementProtocol",
    "TruncatedAnnouncementProtocol",
    "HashSketchProtocol",
    "SilentProtocol",
    "OneRoundOutcome",
    "run_one_round_protocol",
]


class NeighborExchangeTriangleDetection(Algorithm):
    """Ship adjacency lists to all neighbors, chunked at ``B`` bits/round.

    Node ``v`` rejects when some neighbor ``u``'s received list contains a
    vertex ``w`` that is also ``v``'s neighbor: then ``{v, u, w}`` is a
    triangle (``{u,w}`` from the list, ``{v,u}`` and ``{v,w}`` incident to
    ``v``).  Deterministic; round count ``ceil(Δ w / B) + 1``.
    """

    name = "neighbor-exchange-triangle"

    def init(self, node: NodeContext) -> None:
        st = node.state
        w = int_width(node.namespace_size)
        bandwidth = node.bandwidth
        if bandwidth is None:
            per_round = max(1, len(node.neighbors))
        else:
            per_round = max(1, bandwidth // max(w, 1))
        st["chunks"] = [
            node.neighbors[i : i + per_round]
            for i in range(0, len(node.neighbors), per_round)
        ]
        st["received"]: Dict[int, Set[int]] = {}
        st["my_neighbors"] = set(node.neighbors)

    def is_quiescent(self, node: NodeContext) -> bool:
        return node._halted

    def wake_round(self, node: NodeContext, r: int) -> int:
        # Mirrors round() with an empty inbox: the next chunk, else the
        # grace round on which an undecided node accepts and halts.  A
        # node that rejected never halts on its own.
        chunks = node.state["chunks"]
        if r < len(chunks):
            return r
        if node.decision is Decision.UNDECIDED:
            per_round = max(1, len(chunks[0]) if chunks else 1)
            return max(r, 1, math.ceil((node.n or 1) / per_round) + 1)
        if not chunks:
            return max(r, 2)
        return WAKE_NEVER

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        for sender, msg in inbox.items():
            ids = set(msg.payload)
            st["received"].setdefault(sender, set()).update(ids)
            if ids & st["my_neighbors"]:
                node.reject()
                st["witness"] = (sender, sorted(ids & st["my_neighbors"])[0])
        i = node.round
        if i < len(st["chunks"]):
            msg = Message.of_ids(st["chunks"][i], node.namespace_size, kind="adj")
            return {v: msg for v in node.neighbors}
        if node.decision is Decision.UNDECIDED and i > 0:
            # One grace round after the last chunk so late arrivals land.
            max_chunks = math.ceil(
                (node.n or 1) / max(1, len(st["chunks"][0]) if st["chunks"] else 1)
            )
            if i >= max_chunks + 1:
                node.accept()
                node.halt()
        elif i > 1 and not st["chunks"]:
            node.accept()
            node.halt()
        return {}


def detect_triangle_congest(
    graph: nx.Graph,
    bandwidth: Optional[int] = None,
    seed: int = 0,
    session: Optional["RunSession"] = None,
) -> ExecutionResult:
    """Run the neighbor-exchange detector; REJECT iff a triangle exists.

    ``bandwidth`` falls back to the session policy's, then to one id per
    message, ``ceil(log2 n)`` bits: CONGEST's ``B = O(log n)``.  Under a
    ``session`` whose policy says ``metrics=lite`` the engine keeps
    aggregate counters only; the decision and aggregate bit totals are
    unchanged.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    n = graph.number_of_nodes()
    w = int_width(max(n, 2))
    bandwidth = ses.resolve_bandwidth(bandwidth, w)
    if bandwidth < w:
        raise ValueError(
            f"neighbor exchange needs B >= id width ({w}); got {bandwidth}"
        )
    net = ses.network(graph, bandwidth=bandwidth)
    max_rounds = math.ceil(n * w / bandwidth) + 3
    return ses.run(
        net,
        NeighborExchangeTriangleDetection(),
        max_rounds=max_rounds,
        seed=seed,
        label="triangle-neighbor-exchange",
    )


# ----------------------------------------------------------------------
# One-round protocols on the Section 5 template (the Theorem 5.1 targets)
# ----------------------------------------------------------------------


class OneRoundProtocol(abc.ABC):
    """A one-round protocol on the template graph's input representation.

    Every node applies :meth:`message` to its input ``N_s`` and broadcasts
    the result to its realized neighbors; then each node applies
    :meth:`decide` to its input and received messages.  ``True`` means
    *reject* (triangle claimed).  The global output rejects if any special
    node rejects -- the standard Definition 1 semantics.
    """

    name: str = "one-round"

    @abc.abstractmethod
    def message(self, ids: Tuple[int, ...], bits: Tuple[int, ...], own_id: int) -> str:
        """The bitstring broadcast by a node with input ``(U_s, X_s, u_s)``."""

    @abc.abstractmethod
    def decide(
        self,
        ids: Tuple[int, ...],
        bits: Tuple[int, ...],
        own_id: int,
        received: Mapping[int, str],
    ) -> bool:
        """``True`` = reject.  ``received`` maps sender id -> message."""


@dataclass
class OneRoundOutcome:
    rejected: bool
    correct: bool
    bandwidth_used: int
    messages: Dict[str, str]


def run_one_round_protocol(
    protocol: OneRoundProtocol, sample: TemplateSample
) -> OneRoundOutcome:
    """Execute a one-round protocol on one draw from μ.

    Only the three special nodes matter for correctness (non-special nodes
    hold no information about the triangle: Section 5); we simulate exactly
    the messages a special node receives from its realized neighbors, which
    from the special nodes' perspective is the full one-round dynamics of
    ``G``.
    """
    msgs: Dict[str, str] = {}
    for s in SPECIALS:
        inp = sample.inputs[s]
        m = protocol.message(inp.ids, inp.bits, inp.own_id)
        if not set(m) <= {"0", "1"}:
            raise ValueError(f"protocol emitted non-bitstring {m!r}")
        msgs[s] = m

    rejected = False
    for s in SPECIALS:
        inp = sample.inputs[s]
        received: Dict[int, str] = {}
        for t in SPECIALS:
            if t == s:
                continue
            # s hears t iff the edge {v_s, v_t} is realized in G.
            if inp.bits[inp.partner_index[t]] == 1:
                received[sample.inputs[t].own_id] = msgs[t]
        # Realized non-special (leaf) neighbors also send messages, but a
        # leaf's input is a single potential edge and carries no information
        # about the triangle bits; we model leaf messages as empty.
        if protocol.decide(inp.ids, inp.bits, inp.own_id, received):
            rejected = True

    truth = sample.has_triangle()
    return OneRoundOutcome(
        rejected=rejected,
        correct=(rejected == truth),
        bandwidth_used=max(len(m) for m in msgs.values()),
        messages=msgs,
    )


class FullAnnouncementProtocol(OneRoundProtocol):
    """Send the full (id, bit) table: bandwidth Θ(Δ log N), always correct.

    Decision rule: node ``s`` sees neighbor ``t``'s table and checks whether
    the *third* special node (any id that is a realized neighbor of both
    ``s`` and ``t``) closes the triangle.
    """

    name = "full-announcement"

    def __init__(self, id_width_bits: int):
        self.w = id_width_bits

    def message(self, ids, bits, own_id) -> str:
        out = [format(own_id, f"0{self.w}b")]
        for i, b in zip(ids, bits):
            if b:
                out.append(format(i, f"0{self.w}b"))
        return "".join(out)

    def _parse(self, m: str) -> Tuple[int, Set[int]]:
        vals = [int(m[i : i + self.w], 2) for i in range(0, len(m), self.w)]
        return vals[0], set(vals[1:])

    def decide(self, ids, bits, own_id, received) -> bool:
        my_realized = {i for i, b in zip(ids, bits) if b}
        tables = {}
        for sender, m in received.items():
            if not m:
                continue
            sid, nbrs = self._parse(m)
            tables[sid] = nbrs
        for sid, nbrs in tables.items():
            # A triangle through me: some other sender (or realized
            # neighbor) adjacent to both me and sid.
            for tid, tnbrs in tables.items():
                if tid != sid and tid in nbrs and sid in my_realized and tid in my_realized:
                    return True
        return False


class TruncatedAnnouncementProtocol(FullAnnouncementProtocol):
    """Send only the first ``budget`` bits of the full announcement.

    With ``budget < Δ w`` the table is cut off; because the neighbor order
    is scrambled by the hidden permutation ``π_s``, the victim cannot
    prioritise the "important" (special) neighbors -- exactly the situation
    Lemma 5.4 formalises.  Correctness decays once ``budget = o(Δ)``.
    """

    name = "truncated-announcement"

    def __init__(self, id_width_bits: int, budget: int):
        super().__init__(id_width_bits)
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.budget = budget

    def message(self, ids, bits, own_id) -> str:
        full = super().message(ids, bits, own_id)
        keep = (self.budget // self.w) * self.w  # whole ids only
        return full[:keep]

    def decide(self, ids, bits, own_id, received) -> bool:
        return super().decide(ids, bits, own_id, received)


class HashSketchProtocol(OneRoundProtocol):
    """A ``b``-bit Bloom-style sketch of ``own_id`` and realized neighbors.

    Node ``s`` rejects if, for two realized neighbors claiming (by sketch)
    to contain each other... concretely: ``s`` checks that *both* potential
    partners' sketches contain some common realized neighbor id of ``s``.
    One-sided errors appear as ``b`` shrinks.
    """

    name = "hash-sketch"

    def __init__(self, sketch_bits: int, salt: int = 0x9E3779B1):
        if sketch_bits < 1:
            raise ValueError("need >= 1 sketch bit")
        self.b = sketch_bits
        self.salt = salt

    def _h(self, value: int) -> int:
        x = (value * self.salt + 0x7F4A7C15) & 0xFFFFFFFF
        x ^= x >> 16
        return x % self.b

    def _sketch(self, values) -> List[int]:
        s = [0] * self.b
        for v in values:
            s[self._h(v)] = 1
        return s

    def message(self, ids, bits, own_id) -> str:
        realized = [i for i, b in zip(ids, bits) if b]
        return "".join(map(str, self._sketch(realized + [own_id])))

    def decide(self, ids, bits, own_id, received) -> bool:
        if len(received) < 2:
            return False
        sketches = list(received.items())
        for i in range(len(sketches)):
            for j in range(i + 1, len(sketches)):
                id_i, sk_i = sketches[i]
                id_j, sk_j = sketches[j]
                if not sk_i or not sk_j:
                    return False
                # Sketch membership test both ways.
                if sk_i[self._h(id_j)] == "1" and sk_j[self._h(id_i)] == "1":
                    return True
        return False


class SilentProtocol(OneRoundProtocol):
    """Zero communication; always accepts.  Errors on exactly the 1/8 of
    inputs that contain a triangle -- the floor any sub-Ω(Δ) protocol
    approaches as Theorem 5.1 bites."""

    name = "silent"

    def message(self, ids, bits, own_id) -> str:
        return ""

    def decide(self, ids, bits, own_id, received) -> bool:
        return False

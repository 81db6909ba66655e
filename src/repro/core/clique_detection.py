"""O(n)-round clique detection (the [10] upper bound quoted in Section 1).

Drucker--Kuhn--Oshman observe that cliques (and complete bipartite
subgraphs) are detectable in ``O(n)`` CONGEST rounds: each node ships its
adjacency *bitmap* (n bits) to every neighbor, chunked at ``B`` bits per
round -- ``ceil(n/B)`` rounds.  Afterwards node ``v`` knows every edge
between its neighbors, so it can check locally whether some ``s-1`` of its
neighbors are pairwise adjacent (then they form a ``K_s`` with ``v``).

The local check is NP-hard in general but ``s`` is a constant; we search
with the degeneracy-ordered enumeration from :mod:`repro.theory.counting`
restricted to the neighborhood.

This is the linear-time baseline that Theorem 1.2 proves cannot exist for
every subgraph: ``H_k`` sits at ``n^{2-1/k}``, strictly above.

Fault tolerance: under injected faults (:mod:`repro.faults`) chunks can be
lost or zeroed, so both lanes write arriving chunks at their *absolute*
bit offset (the send round determines it) instead of concatenating, and
the local check consults the symmetrized relation "``u`` shipped the bit
for ``w``, or ``w`` shipped the bit for ``u``" -- on a reliable network
this is exactly the old behavior, and under partial information the two
lanes still agree bit-for-bit (``tests/faults``).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ..congest.algorithm import Algorithm, Decision, NodeContext
from ..congest.message import Message
from ..congest.network import CongestNetwork, ExecutionResult
from ..congest.vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)

__all__ = ["CliqueDetection", "VectorizedCliqueDetection", "detect_clique"]


class CliqueDetection(Algorithm):
    """Detect ``K_s`` via adjacency-bitmap shipping + local search."""

    name = "clique-detection"

    def __init__(self, s: int):
        if s < 2:
            raise ValueError("need s >= 2 (K_1 detection is vacuous)")
        self.s = s

    def init(self, node: NodeContext) -> None:
        if node.n is None:
            raise ValueError("bitmap shipping requires knowledge of n")
        st = node.state
        # The bitmap is indexed by identifier; the namespace is [n] here
        # (canonical assignment).  With a poly(n) namespace one would ship
        # sorted id lists instead at a log-factor cost.
        if node.namespace_size > node.n:
            raise ValueError("CliqueDetection assumes ids in [n]; relabel first")
        bitmap = [0] * node.n
        for v in node.neighbors:
            bitmap[v] = 1
        st["bitmap"] = bitmap
        b = node.bandwidth if node.bandwidth is not None else node.n
        st["chunk_size"] = max(1, b)
        st["num_chunks"] = math.ceil(node.n / st["chunk_size"])
        # Preallocated so a lost chunk leaves zeros at its own offsets
        # instead of shifting later chunks (fault tolerance).
        st["nbr_bitmaps"]: Dict[int, List[int]] = {
            v: [0] * node.n for v in node.neighbors
        }

    def is_quiescent(self, node: NodeContext) -> bool:
        return node._halted

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        # A message arriving in round r was sent in round r-1 and carries
        # the chunk starting at bit (r-1) * chunk_size.
        lo = (node.round - 1) * st["chunk_size"]
        for sender, msg in inbox.items():
            chunk = list(msg.payload)
            st["nbr_bitmaps"][sender][lo : lo + len(chunk)] = chunk
        r = node.round
        if r < st["num_chunks"]:
            lo = r * st["chunk_size"]
            chunk = st["bitmap"][lo : lo + st["chunk_size"]]
            msg = Message.of_bitmap(chunk, kind="adj-bitmap")
            return {v: msg for v in node.neighbors}
        if r == st["num_chunks"]:
            # Everything has arrived; decide.
            if self._local_clique_check(node):
                node.reject()
            else:
                node.accept()
            node.halt()
        return {}

    def _local_clique_check(self, node: NodeContext) -> bool:
        """Is there a K_{s-1} among my neighbors (pairwise adjacent)?"""
        st = node.state
        s = self.s
        if s == 2:
            return node.degree >= 1
        nbrs = list(node.neighbors)
        bms = st["nbr_bitmaps"]
        # Symmetrized relation: an edge (v, w) counts if either endpoint
        # shipped it.  On a reliable network both always did (undirected
        # adjacency), so this is the old check; under faults it makes the
        # decision independent of *which* direction survived.
        adj: Dict[int, Set[int]] = {}
        for v in nbrs:
            bm = bms[v]
            adj[v] = {
                w for w in nbrs if w != v and (bm[w] == 1 or bms[w][v] == 1)
            }
        # Greedy ordered enumeration of K_{s-1} in the neighborhood graph.
        nbrs.sort(key=lambda v: len(adj[v]))

        def extend(base: List[int], candidates: List[int]) -> bool:
            if len(base) == s - 1:
                return True
            need = s - 1 - len(base)
            for i, v in enumerate(candidates):
                if len(candidates) - i < need:
                    return False
                nxt = [w for w in candidates[i + 1 :] if w in adj[v]]
                if extend(base + [v], nxt):
                    return True
            return False

        return extend([], nbrs)


class VectorizedCliqueDetection(VectorizedAlgorithm):
    """Vectorized lane of :class:`CliqueDetection` (bit-exact port).

    Same protocol, batched: every node ships its n-bit adjacency bitmap in
    ``B``-bit chunks, one global array broadcast per round; the receivers'
    accumulated knowledge lives in one ``(n, n)`` matrix assembled from the
    delivered payload rows (every entry node ``v``'s local check consults
    arrived in ``v``'s inbox, so locality is respected -- the matrix merely
    stores each sender's shipped bits once instead of once per receiver).
    The local K_{s-1} check runs as one matrix product for triangles and as
    the object lane's greedy enumeration on the assembled rows for larger
    cliques.  Decisions, rounds, and the full metrics ledger match the
    object lane exactly; ``tests/core/test_vectorized_diff.py`` pins this.
    """

    name = "clique-detection-vec"

    def __init__(self, s: int):
        if s < 2:
            raise ValueError("need s >= 2 (K_1 detection is vacuous)")
        self.s = s

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        if not run.knows_n:
            raise ValueError("bitmap shipping requires knowledge of n")
        if run.namespace_size > run.n or not np.array_equal(
            run.grid.ids, np.arange(run.n)
        ):
            raise ValueError("CliqueDetection assumes ids in [n]; relabel first")
        grid = run.grid
        adj = np.zeros((run.n, run.n), dtype=np.uint8)
        adj[grid.src, grid.dst] = 1
        b = run.bandwidth if run.bandwidth is not None else run.n
        chunk = max(1, b)
        return {
            "adj": adj,
            "chunk": chunk,
            "num_chunks": math.ceil(run.n / chunk),
            "assembled": np.zeros((run.n, run.n), dtype=np.uint8),
            # (src, dst) is lexicographically sorted in the grid, so this
            # key array supports searchsorted edge lookup.
            "edge_key": grid.src.astype(np.int64) * run.n + grid.dst,
            # Per-edge received bits, allocated lazily the first time a
            # delivery round is *non-uniform* (fault injection dropped or
            # garbled some frames).  While None, every receiver saw the
            # same rows and the shared ``assembled`` matrix is faithful.
            "recv_bits": None,
        }

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        return bool(run.halted.all())

    def step_all(
        self, run: VecRun, r: int, state: Dict[str, Any], inbox: VecInbox
    ) -> Optional[VecOutbox]:
        grid = run.grid
        chunk = state["chunk"]
        if len(inbox):
            lo = (r - 1) * chunk
            width = inbox.payload.shape[1]
            if state["recv_bits"] is None and not _uniform_round(grid, inbox):
                # Degrade to per-edge tracking: replay the (uniform)
                # history every receiver shares, then record this and all
                # later rounds per delivered edge.
                state["recv_bits"] = state["assembled"][grid.src].copy()
            if state["recv_bits"] is None:
                # Each sender's chunk is identical on all its edges;
                # duplicate row writes assign the same values.
                state["assembled"][inbox.send, lo : lo + width] = inbox.payload
            else:
                e = np.searchsorted(
                    state["edge_key"],
                    inbox.send.astype(np.int64) * run.n + inbox.recv,
                )
                state["recv_bits"][e, lo : lo + width] = inbox.payload
        num_chunks = state["num_chunks"]
        if r < num_chunks:
            lo = r * chunk
            hi = min(run.n, lo + chunk)
            edges = grid.all_edges()
            payload = state["adj"][grid.src, lo:hi]
            return VecOutbox(edges, payload, hi - lo)
        if r == num_chunks:
            self._decide_all(run, state)
            run.halted[:] = True
        return None

    def _decide_all(self, run: VecRun, state: Dict[str, Any]) -> None:
        s = self.s
        grid = run.grid
        if s == 2:
            run.decision[:] = np.where(grid.deg >= 1, VEC_REJECT, VEC_ACCEPT)
            return
        if state["recv_bits"] is None:
            # Uniform delivery (always true on a reliable network): every
            # receiver's knowledge is the shared assembled matrix, and the
            # symmetrized relation is receiver-independent.
            sym = state["assembled"] | state["assembled"].T
            if s == 3:
                # v rejects iff some u, w in N(v) with sym[u, w] = 1
                # (u != w is free: sym has a zero diagonal).  float32
                # routes through BLAS; counts <= n are exact, and only
                # positivity is consulted.
                a = state["adj"].astype(np.float32)
                paths = a @ sym.astype(np.float32)
                reject = ((paths > 0) & (a > 0)).any(axis=1)
            else:
                reject = np.zeros(run.n, dtype=bool)
                for p in range(run.n):
                    nbrs = grid.dst[grid.out_ptr[p] : grid.out_ptr[p + 1]]
                    sub = sym[np.ix_(nbrs, nbrs)].astype(bool)
                    np.fill_diagonal(sub, False)
                    reject[p] = _sub_has_clique(sub, s)
            run.decision[:] = np.where(reject, VEC_REJECT, VEC_ACCEPT)
            return
        # Degraded (faulty) delivery: each receiver decides on what *it*
        # received.  For receiver p's out-edge (p -> u), the reverse edge
        # (u -> p) indexes the bits p received from u.
        recv_bits = state["recv_bits"]
        rev = np.searchsorted(
            state["edge_key"], grid.dst.astype(np.int64) * run.n + grid.src
        )
        reject = np.zeros(run.n, dtype=bool)
        for p in range(run.n):
            sl = slice(int(grid.out_ptr[p]), int(grid.out_ptr[p + 1]))
            nbrs = grid.dst[sl]
            if nbrs.shape[0] < s - 1:
                continue
            rows = recv_bits[rev[sl]]  # (k, n): row i = heard from nbrs[i]
            sub = rows[:, nbrs]
            sub = (sub | sub.T).astype(bool)
            np.fill_diagonal(sub, False)
            reject[p] = bool(sub.any()) if s == 3 else _sub_has_clique(sub, s)
        run.decision[:] = np.where(reject, VEC_REJECT, VEC_ACCEPT)


def _uniform_round(grid: Any, inbox: VecInbox) -> bool:
    """Did every edge deliver, with identical rows per sender?

    True on every round of a reliable run (senders broadcast one chunk to
    all neighbors), so the fast shared-matrix path stays exact; fault
    injection makes this false the moment receivers' views can diverge
    (conservatively: any missing or garbled frame).
    """
    if len(inbox) != grid.num_directed:
        return False
    order = np.argsort(inbox.send, kind="stable")
    sends = inbox.send[order]
    rows = inbox.payload[order]
    first = np.searchsorted(sends, sends)
    return bool((rows == rows[first]).all())


def _sub_has_clique(sub: np.ndarray, s: int) -> bool:
    """Is there a K_{s-1} in the symmetric boolean relation ``sub``?

    The same greedy degeneracy-ordered enumeration as
    :meth:`CliqueDetection._local_clique_check`, over local indices.
    """
    k = int(sub.shape[0])
    if k < s - 1:
        return False
    adjsets = [set(np.nonzero(sub[i])[0].tolist()) for i in range(k)]
    order = sorted(range(k), key=lambda i: len(adjsets[i]))

    def extend(base_len: int, candidates: List[int]) -> bool:
        if base_len == s - 1:
            return True
        need = s - 1 - base_len
        for i, v in enumerate(candidates):
            if len(candidates) - i < need:
                return False
            nxt = [w for w in candidates[i + 1 :] if w in adjsets[v]]
            if extend(base_len + 1, nxt):
                return True
        return False

    return extend(0, order)


def detect_clique(
    graph: nx.Graph,
    s: int,
    bandwidth: Optional[int] = None,
    seed: int = 0,
    session: Optional["RunSession"] = None,
) -> ExecutionResult:
    """Run the O(n) clique detector; deterministic, two-sided correct.

    ``bandwidth`` falls back to the session policy's, then to 8 bits.
    Under a ``session`` whose policy says ``metrics=lite`` the engine
    keeps aggregate counters only; the decision and aggregate bit totals
    are unchanged.  ``lane=vectorized`` runs
    :class:`VectorizedCliqueDetection` (batched array kernels, same
    decisions and ledger bit-for-bit).
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    bandwidth = ses.resolve_bandwidth(bandwidth, 8)
    net = ses.network(graph, bandwidth=bandwidth)
    n = graph.number_of_nodes()
    max_rounds = math.ceil(n / max(1, bandwidth)) + 2
    algo_cls = ses.lane_class(CliqueDetection, VectorizedCliqueDetection)
    return ses.run(
        net, algo_cls(s), max_rounds=max_rounds, seed=seed, label=f"clique-K{s}"
    )

"""Fused per-round kernels for the vectorized execution lane.

A straightforward vectorized round loop pays three avoidable costs per
round on its way from an outbox to an inbox:

* an ``O(E log E)`` stable ``argsort`` of the outbox edge list just to
  *check* it was sorted (kernels almost always emit out-order edges);
* a second ``O(E log E)`` ``argsort`` of ``in_rank[edges]`` to compute the
  delivery permutation -- even for the global-broadcast case where that
  permutation is a constant of the graph;
* a fresh set of temporaries (masks, gathered rank arrays) every round.

:class:`RoundKernel` collapses the mask -> permute -> deliver sequence into
one pass over the CSR :class:`~repro.congest.vectorized.EdgeIndex`:

* **Trusted fast path.**  ``EdgeIndex.all_edges()`` returns one cached
  read-only array; an outbox built from it is recognised *by identity* and
  skips the sortedness / range / duplicate validation entirely (the array
  is the engine's own constant).  Any other outbox is validated with a
  single ``O(E)`` strictly-increasing check, falling back to a stable sort
  only for genuinely unsorted outboxes.
* **Precomputed delivery permutation.**  A full outbox (every directed
  edge, the common broadcast shape) is delivered through the index's
  precomputed ``in_order`` / ``in_recv`` / ``in_send`` arrays: the only
  per-round allocation left is the payload gather itself.  Partial
  outboxes gather ranks into a preallocated scratch buffer before the
  (unavoidable) argsort.

Billing, ``BandwidthExceeded`` strings, observer callbacks, fault masking
and inbox ordering are bit-identical to the object lane --
``tests/congest/test_kernels.py`` and ``tests/core/test_vectorized_diff.py``
pin this differentially.

:class:`KernelProfile` is the lightweight per-phase wall-clock counter:
callers thread one through ``net.run(..., profile=...)`` and read its
per-phase split back (``perfbench/`` does, for its kernel phase shares).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

import numpy as np

from .message import BandwidthExceeded

__all__ = ["KernelProfile", "RoundKernel"]


class KernelProfile:
    """Per-phase wall-clock counters for one vectorized run.

    Cheap enough to leave on for recorded runs (a few ``perf_counter``
    calls per round); ``None`` in the engine keeps the hot loop entirely
    timer-free.  Phases follow the round structure: ``step`` (the
    algorithm's batched kernel), ``mask`` (crash masking plus outbox
    validation), ``bill`` (size stats, bandwidth enforcement, ledger and
    observer), ``permute`` (computing the delivery permutation), and
    ``deliver`` (fault masking plus inbox assembly).  ``fast_rounds``
    counts rounds that hit the full-broadcast fast path.
    """

    __slots__ = (
        "rounds",
        "fast_rounds",
        "messages",
        "step_s",
        "mask_s",
        "bill_s",
        "permute_s",
        "deliver_s",
    )

    def __init__(self) -> None:
        self.rounds = 0
        self.fast_rounds = 0
        self.messages = 0
        self.step_s = 0.0
        self.mask_s = 0.0
        self.bill_s = 0.0
        self.permute_s = 0.0
        self.deliver_s = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the counters."""
        return {
            "rounds": self.rounds,
            "fast_rounds": self.fast_rounds,
            "messages": self.messages,
            "step_ms": round(self.step_s * 1000.0, 3),
            "mask_ms": round(self.mask_s * 1000.0, 3),
            "bill_ms": round(self.bill_s * 1000.0, 3),
            "permute_ms": round(self.permute_s * 1000.0, 3),
            "deliver_ms": round(self.deliver_s * 1000.0, 3),
        }


class RoundKernel:
    """One network's fused validate -> bill -> deliver pass.

    Built once per :func:`execute_vectorized` call; owns the preallocated
    scratch buffers and (optionally) the full-mode ledger accumulators.
    :meth:`process` consumes one round's crash-masked outbox and returns
    the packed inbox; billing, ``BandwidthExceeded`` strings, observer
    callbacks, and fault masking match the object lane exactly.
    """

    def __init__(
        self,
        grid: Any,
        bandwidth: Optional[int],
        comm: Any,
        *,
        observer: Optional[Any] = None,
        injector: Optional[Any] = None,
        profile: Optional[KernelProfile] = None,
        track_full: bool = False,
    ) -> None:
        from .vectorized import VecInbox  # deferred: vectorized imports us

        self._inbox_cls = VecInbox
        self.grid = grid
        self.bandwidth = bandwidth
        self.comm = comm
        self.observer = observer
        self.injector = injector
        self.apply_delivery = injector is not None and injector.affects_delivery
        self.profile = profile
        e = max(1, grid.num_directed)
        # Scratch reused every round by the partial-outbox path, so the
        # steady state allocates nothing but the payload gather.
        self._rank_scratch = np.empty(e, dtype=np.int64)
        self.track_full = track_full
        if track_full:
            self.edge_bits_acc = np.zeros(grid.num_directed, dtype=np.int64)
            self.edge_msgs_acc = np.zeros(grid.num_directed, dtype=np.int64)
            self.node_bits_acc = np.zeros(grid.n, dtype=np.int64)
            self.node_msgs_acc = np.zeros(grid.n, dtype=np.int64)

    # ------------------------------------------------------------------
    def process(
        self,
        r: int,
        edges: np.ndarray,
        payload: np.ndarray,
        sizes: Any,
        per_message: bool,
    ) -> Any:
        """Validate, bill, and deliver one round's (non-empty) outbox."""
        grid = self.grid
        prof = self.profile
        if prof is not None:
            t = time.perf_counter()

        # -- mask: sortedness / range / duplicate validation ------------
        trusted = edges is grid._all_edges
        if not trusted:
            if edges.shape[0] > 1 and not bool(np.all(edges[1:] > edges[:-1])):
                order = np.argsort(edges, kind="stable")
                edges = edges[order]
                payload = payload[order]
                if per_message:
                    sizes = sizes[order]
            if edges[0] < 0 or edges[-1] >= grid.num_directed:
                raise ValueError(f"round {r}: outbox edge index out of range")
            if edges.shape[0] > 1 and bool((np.diff(edges) == 0).any()):
                dup = int(edges[np.nonzero(np.diff(edges) == 0)[0][0]])
                u = int(grid.ids[grid.src[dup]])
                v = int(grid.ids[grid.dst[dup]])
                raise ValueError(
                    f"node {u} tried to send two messages to {v} in round {r}; "
                    "the model allows one message per edge per round"
                )
        if prof is not None:
            t2 = time.perf_counter()
            prof.mask_s += t2 - t
            t = t2

        # -- bill: size stats, bandwidth, ledger, observer ---------------
        if per_message:
            sizes = sizes.astype(np.int64, copy=False)
            bits = int(sizes.sum())
            max_size, min_size = int(sizes.max()), int(sizes.min())
        else:
            max_size = min_size = int(sizes)
            bits = max_size * edges.shape[0]
        if min_size < 0:
            raise ValueError(f"round {r}: negative size_bits")
        bandwidth = self.bandwidth
        if bandwidth is not None and max_size > bandwidth:
            if per_message:
                bad = int(np.argmax(sizes > bandwidth))
            else:
                bad = 0
            e = int(edges[bad])
            u = int(grid.ids[grid.src[e]])
            v = int(grid.ids[grid.dst[e]])
            sz = int(sizes[bad]) if per_message else max_size
            raise BandwidthExceeded(
                f"node {u} -> {v}: message of {sz} bits exceeds B={bandwidth}"
            )
        self.comm.add_round(r, bits, int(edges.shape[0]), max_size)
        if self.track_full:
            if per_message:
                self.edge_bits_acc[edges] += sizes
                np.add.at(self.node_bits_acc, grid.src[edges], sizes)
            else:
                self.edge_bits_acc[edges] += max_size
                np.add.at(self.node_bits_acc, grid.src[edges], max_size)
            self.edge_msgs_acc[edges] += 1
            np.add.at(self.node_msgs_acc, grid.src[edges], 1)
        if self.observer is not None:
            self.observer.vec_round(r, edges, sizes, payload)
        if prof is not None:
            prof.rounds += 1
            prof.messages += int(edges.shape[0])
            t2 = time.perf_counter()
            prof.bill_s += t2 - t
            t = t2

        # -- deliver: wire faults, permutation, inbox assembly -----------
        if self.apply_delivery:
            keep, corrupt = self.injector.delivery_mask(
                r,
                grid.ids[grid.src[edges]],
                grid.ids[grid.dst[edges]],
                sizes if per_message else int(sizes),
            )
            if corrupt.any():
                payload = payload.copy()
                payload[corrupt] = np.zeros((), dtype=payload.dtype)
            if not keep.all():
                edges = edges[keep]
                payload = payload[keep]
                if per_message:
                    sizes = sizes[keep]
        m = int(edges.shape[0])
        if m == 0:
            # Everything sent this round was lost in transit.
            if prof is not None:
                prof.deliver_s += time.perf_counter() - t
            return self._inbox_cls.empty()
        if m == grid.num_directed:
            # Full broadcast: sorted, unique, in-range edges of length E
            # are exactly arange(E), so the delivery permutation is the
            # precomputed graph constant.
            if prof is not None:
                prof.fast_rounds += 1
            inbox = self._inbox_cls(
                recv=grid.in_recv,
                send=grid.in_send,
                payload=payload[grid.in_order],
                sizes=sizes[grid.in_order] if per_message else None,
                size_bits=0 if per_message else max_size,
            )
            if prof is not None:
                prof.deliver_s += time.perf_counter() - t
            return inbox
        ranks = np.take(grid.in_rank, edges, out=self._rank_scratch[:m])
        if prof is not None:
            tp = time.perf_counter()
        dorder = np.argsort(ranks, kind="stable")
        if prof is not None:
            t2 = time.perf_counter()
            prof.permute_s += t2 - tp
        d_edges = edges[dorder]
        inbox = self._inbox_cls(
            recv=grid.dst[d_edges],
            send=grid.src[d_edges],
            payload=payload[dorder],
            sizes=sizes[dorder] if per_message else None,
            size_bits=0 if per_message else max_size,
        )
        if prof is not None:
            prof.deliver_s += time.perf_counter() - t
        return inbox

    # ------------------------------------------------------------------
    def expand_full_ledger(self) -> None:
        """Flush the flat full-mode accumulators into the metrics dicts.

        Called once at the end of a ``metrics="full"`` run.  Keyed on
        messages, not bits: the object lane creates a ledger entry even
        for a 0-bit message.
        """
        if not self.track_full:
            return
        grid = self.grid
        comm = self.comm
        src_ids = grid.ids[grid.src]
        dst_ids = grid.ids[grid.dst]
        for e in np.nonzero(self.edge_msgs_acc)[0]:
            comm.edge_bits[(int(src_ids[e]), int(dst_ids[e]))] = int(
                self.edge_bits_acc[e]
            )
        for p in np.nonzero(self.node_msgs_acc)[0]:
            u = int(grid.ids[p])
            comm.node_bits[u] = int(self.node_bits_acc[p])
            comm.node_messages[u] = int(self.node_msgs_acc[p])

"""Shared-memory export of a network's CSR arrays for amplification workers.

At n~10^5-10^6 the dominant per-worker cost of :func:`run_amplified` is no
longer the seed runs but each worker *rebuilding the network*: pickling the
networkx graph into every chunk spec, then re-deriving adjacency and the
CSR :class:`~repro.congest.vectorized.EdgeIndex` per process.  This module
removes that: the parent builds the index once, places its nine int64
arrays into one :class:`multiprocessing.shared_memory.SharedMemory`
segment, and ships workers a small picklable *handle* instead of the
graph.  Workers attach by name, wrap zero-copy views in
:meth:`EdgeIndex.from_arrays`, and simulate shards of the one big graph --
every core works the same physical arrays.

Ownership protocol (fork-safe):

* The exporting process owns the segment.  :func:`release_export` closes
  it and, when the recorded owner pid matches the current process,
  unlinks it; ``run_amplified`` calls it when the network leaves the
  parent's LRU and no running call still ships the handle, and
  :func:`release_shared_graphs` (called by ``shutdown_pools()`` and at
  interpreter exit) calls it for every export left.
* Attachers -- pool workers, or forked children that inherited the
  parent's export registry -- only ever close.  A forked worker's atexit
  pass must never unlink the parent's live segment, hence the pid check.
* Python 3.11's ``SharedMemory`` registers every *attach* with the
  resource tracker (the opt-out ``track=`` parameter is 3.13+), so a
  worker exiting would have the tracker unlink the parent's segment out
  from under it; :func:`_attach_untracked` suppresses the attach-side
  registration to keep ownership with the parent.

The graph data is read-only by construction (every array is flagged
non-writable on both sides), so concurrent workers sharing one mapping is
race-free; private ``inputs`` and custom identifier ``assignment``s never
ride shared memory -- :func:`run_amplified` only auto-shares networks
built from the graph alone (plus ``namespace_size`` / ``knows_n``, which
travel in the handle).
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "GRAPH_SHARE_MIN_NODES",
    "attach_network",
    "export_network",
    "release_attachment",
    "release_export",
    "release_shared_graphs",
    "shared_export_names",
]

#: Below this node count the auto-share heuristic in ``run_amplified``
#: keeps the classic pickle-the-graph path: segment setup costs more than
#: rebuilding a small network per worker.
GRAPH_SHARE_MIN_NODES = 2048

#: Fixed array layout of an exported segment: (EdgeIndex attribute,
#: length key).  All arrays are int64; offsets follow from the handle's
#: ``n`` / ``e`` alone, so the handle needs no per-array bookkeeping.
_LAYOUT: Tuple[Tuple[str, str], ...] = (
    ("ids", "n"),
    ("deg", "n"),
    ("out_ptr", "n1"),
    ("src", "e"),
    ("dst", "e"),
    ("in_rank", "e"),
    ("in_order", "e"),
    ("in_recv", "e"),
    ("in_send", "e"),
)

#: Segments this process created: token -> (segment, handle, owner pid).
_EXPORTS: Dict[str, Tuple[shared_memory.SharedMemory, Dict[str, Any], int]] = {}

#: Segments this process attached to by name: token -> segment.
_ATTACHMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _lengths(n: int, e: int) -> Dict[str, int]:
    return {"n": n, "n1": n + 1, "e": e}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    # See the module docstring: an attach must not register with the
    # resource tracker (that is what 3.13's ``track=False`` opts out of).
    # Register-then-unregister is NOT equivalent: parent and workers share
    # one tracker whose cache is a set keyed by segment name, so a
    # worker's unregister would erase the *creator's* registration and the
    # eventual unlink would KeyError inside the tracker.  Suppressing the
    # registration call for the duration of the attach leaves the
    # creator's record as the single source of truth.
    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig  # type: ignore[assignment]


def export_network(net: Any, token: str) -> Dict[str, Any]:
    """Export ``net``'s edge index into shared memory; return the handle.

    Idempotent per ``token`` (the worker-cache content token): a second
    export of the same network returns the existing handle.  The handle
    is a small picklable dict -- ship it in chunk specs in place of the
    graph and hand it to :func:`attach_network` worker-side.
    """
    # Export registry is parent-side only (workers receive the handle
    # dict); reached via the engine's thread pool, not across a fork.
    entry = _EXPORTS.get(token)  # repro: noqa[L8]
    if entry is not None:
        return dict(entry[1])
    grid = net.edge_index()
    lens = _lengths(grid.n, grid.num_directed)
    total = 8 * sum(lens[k] for _, k in _LAYOUT)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 8))
    offset = 0
    for attr, k in _LAYOUT:
        view = np.ndarray((lens[k],), dtype=np.int64, buffer=shm.buf, offset=offset)
        view[:] = getattr(grid, attr)
        offset += 8 * lens[k]
    handle = {
        "token": token,
        "shm_name": shm.name,
        "n": grid.n,
        "e": grid.num_directed,
        "namespace_size": net.namespace_size,
        "knows_n": net.knows_n,
    }
    _EXPORTS[token] = (shm, handle, os.getpid())  # repro: noqa[L8]
    return dict(handle)


def attach_network(handle: Dict[str, Any], bandwidth: Optional[int]) -> Any:
    """Wrap an exported segment as a runnable :class:`CongestNetwork`.

    Zero-copy: the returned network's :class:`EdgeIndex` arrays are
    read-only views into the shared mapping.  In the exporting process
    (or a forked child that inherited the export registry) the existing
    mapping is reused; otherwise the segment is attached by name and the
    attachment cached until :func:`release_attachment`.
    """
    from .network import CongestNetwork
    from .vectorized import EdgeIndex

    token = handle["token"]
    # Worker-local by design: the registries cache *this process's*
    # mapping of the segment; parent and workers each hold their own
    # attachment and nothing is merged back.
    entry = _EXPORTS.get(token)  # repro: noqa[L8]
    if entry is not None:
        shm = entry[0]
    else:
        shm = _ATTACHMENTS.get(token)  # repro: noqa[L8]
        if shm is None:
            shm = _attach_untracked(handle["shm_name"])
            _ATTACHMENTS[token] = shm  # repro: noqa[L8]
    lens = _lengths(handle["n"], handle["e"])
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for attr, k in _LAYOUT:
        arrays[attr] = np.ndarray(
            (lens[k],), dtype=np.int64, buffer=shm.buf, offset=offset
        )
        offset += 8 * lens[k]
    grid = EdgeIndex.from_arrays(
        arrays["ids"],
        arrays["src"],
        arrays["dst"],
        deg=arrays["deg"],
        out_ptr=arrays["out_ptr"],
        in_rank=arrays["in_rank"],
        in_order=arrays["in_order"],
        in_recv=arrays["in_recv"],
        in_send=arrays["in_send"],
    )
    return CongestNetwork.from_csr(
        grid,
        bandwidth=bandwidth,
        namespace_size=handle["namespace_size"],
        knows_n=handle["knows_n"],
    )


def release_attachment(token: str) -> None:
    """Close this process's attachment for ``token`` (no-op if absent)."""
    # Worker-local attachment cache (see attach_network).
    shm = _ATTACHMENTS.pop(token, None)  # repro: noqa[L8]
    if shm is not None:
        try:
            shm.close()
        except BufferError:
            # A live EdgeIndex still views the buffer (e.g. a network the
            # LRU evicted but a caller kept); the mapping is reclaimed
            # with the process instead.
            pass


def release_shared_graphs() -> int:
    """Release every segment this process touched; return the count.

    Exports are closed and -- only in the process that created them --
    unlinked; attachments are closed.  Idempotent; wired into
    ``shutdown_pools()`` so a session close (or interpreter exit) leaves
    no named segment behind.
    """
    released = 0
    for token in list(_ATTACHMENTS):
        release_attachment(token)
        released += 1
    for token in list(_EXPORTS):
        released += release_export(token)
    return released


def release_export(token: str) -> bool:
    """Close this process's export for ``token``; unlink it if we made it.

    Returns whether an export was released.  Called by the parent when
    the network behind ``token`` leaves its LRU (and no running call still
    ships the handle), and by :func:`release_shared_graphs`.  Workers
    already attached keep a valid mapping; a later export of the same
    token creates a fresh segment.
    """
    # Per-process registry (see export_network).  pop with a default: a
    # signal handler re-entering a teardown loop (or a concurrent
    # teardown) may have released the token already.
    entry = _EXPORTS.pop(token, None)  # repro: noqa[L8]
    if entry is None:
        return False
    shm, _handle, owner = entry
    try:
        shm.close()
    except (BufferError, OSError):
        # A live EdgeIndex still views the buffer; the mapping goes with
        # the last view, and the unlink below still frees the name.
        pass
    if owner == os.getpid():
        try:
            shm.unlink()
        except OSError:
            # Already unlinked (FileNotFoundError) or torn down by a
            # concurrent/reentrant teardown -- the goal state anyway.
            pass
    return True


def shared_export_names() -> Tuple[str, ...]:
    """Names of the segments this process currently exports (leak test)."""
    return tuple(entry[1]["shm_name"] for entry in _EXPORTS.values())

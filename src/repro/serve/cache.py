"""The policy-keyed result cache: LRU over fully-determined responses.

A detection response is a pure function of its cache key -- construction
fingerprint, pattern, policy hash, seed block, iteration budget,
bandwidth (see :func:`repro.serve.protocol.cache_key`) -- because every
run in this engine is deterministic per seed.  So the server may replay
a recorded response verbatim for a repeated key: the replay diffs clean
against a fresh direct run under :func:`repro.runtime.record.diff_records`
(wall-clock is metadata, not an output).

This sits *above* the construction cache (:mod:`repro.graphs.cache`):
that one memoizes graph building inside the process, this one memoizes
entire responses across requests.  Capacity-bounded LRU with hit / miss /
eviction counters for the stats endpoint; thread-safe because cache fills
arrive from engine threads while lookups run on the event loop.

**Crash-safe persistence.**  With a :class:`CacheJournal` attached, every
fill is also appended to a write-ahead JSONL journal keyed by the cache
key, and a restarted server rebuilds the cache from the journal before
accepting connections -- repeated work survives the process, not just
the connection.  Journal order is replay order: a key journalled twice
restores to its *latest* entry (last-write-wins), and restore trims to
the cache's capacity keeping the most recently written keys -- exactly
the state an uninterrupted LRU would hold.  The file itself is kept by
:mod:`repro.runtime.durable`: fsynced appends, a load that cuts a torn
tail back to the clean prefix, and atomic compaction.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..runtime import durable

__all__ = ["CacheJournal", "ResultCache"]

#: Journal appends past the live entry count before an automatic
#: compaction rewrites the file (bounds journal growth under churn).
DEFAULT_COMPACT_SLACK = 512


class CacheJournal:
    """Append-only JSONL write-ahead journal for the result cache.

    One line per fill: ``{"entry": ..., "key": [...]}``.  ``key`` is the
    cache-key tuple as a JSON list (scalars only, so the round trip is
    exact); ``entry`` is the encoded serve result.

    Parameters
    ----------
    path:
        Journal file; created on first append.
    """

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self.appended = 0
        self.loaded = 0
        self.dropped_tail = 0
        self.compactions = 0

    @staticmethod
    def _encode_line(key: Hashable, entry: Any) -> str:
        return json.dumps(
            {"key": list(key), "entry": entry}, sort_keys=True
        )

    @staticmethod
    def _parse_line(line: bytes) -> Tuple[Hashable, Any]:
        row = json.loads(line)
        return tuple(row["key"]), row["entry"]

    def load(self) -> List[Tuple[Hashable, Any]]:
        """Journalled ``(key, entry)`` pairs, in append order.

        Parsing stops at the first undecodable line and the file is
        truncated back to the clean prefix (``dropped_tail`` counts the
        lines cut).  A missing file is an empty journal.
        """
        with self._lock:
            entries, clean, dropped = durable.read_clean_prefix(self.path, self._parse_line)
            if dropped:
                durable.repair_to(self.path, clean)
            self.dropped_tail += dropped
            self.loaded = len(entries)
        return entries

    def append(self, key: Hashable, entry: Any) -> None:
        """Durably append one fill.

        The line is fsynced before this returns: a fill acknowledged to
        the cache is on disk before the next request can hit it.
        """
        line = self._encode_line(key, entry)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            durable.append_line(self.path, line)
            self.appended += 1

    def compact(self, entries: List[Tuple[Hashable, Any]]) -> None:
        """Atomically rewrite the journal to exactly ``entries``."""
        text = "".join(self._encode_line(k, e) + "\n" for k, e in entries)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            durable.atomic_write(self.path, text)
            self.compactions += 1

    def snapshot(self) -> Dict[str, Any]:
        """Counters for the stats endpoint."""
        with self._lock:
            return {
                "path": str(self.path),
                "appended": self.appended,
                "loaded": self.loaded,
                "dropped_tail": self.dropped_tail,
                "compactions": self.compactions,
            }


class ResultCache:
    """Thread-safe LRU mapping cache keys to finished serve results.

    With ``journal`` attached, fills are written through to the journal
    (encoded via ``encode``) and construction restores the journalled
    state (decoded via ``decode``): journal order is LRU order, repeated
    keys keep their latest entry, and the restore trims to ``capacity``
    keeping the most recent keys.  A compaction after a restore that
    dropped lines (repeated keys, or the capacity trim) -- and whenever
    the journal has grown :data:`DEFAULT_COMPACT_SLACK` appends past the
    live entry count -- keeps the file proportional to the cache, not to
    its history.  A journal that already holds exactly the live entries
    (absent, empty, or clean) is left as it is: its torn tail, if any,
    is cut by the load itself.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        journal: Optional[CacheJournal] = None,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        compact_slack: int = DEFAULT_COMPACT_SLACK,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.journal = journal
        self._encode = encode
        self._decode = decode
        self._compact_slack = max(1, compact_slack)
        self._appends_since_compact = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.restored = 0
        if journal is not None:
            self._restore()

    def _restore(self) -> None:
        assert self.journal is not None
        loaded = self.journal.load()
        for key, entry in loaded:
            value = self._decode(entry) if self._decode else entry
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        self.restored = len(self._entries)
        if len(loaded) > self.restored:
            # Rewrite the pruned state so the next restart loads exactly
            # the live entries.
            self.journal.compact(self._encoded_entries())

    def _encoded_entries(self) -> List[Tuple[Hashable, Any]]:
        return [
            (key, self._encode(value) if self._encode else value)
            for key, value in self._entries.items()
        ]

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached result for ``key`` (refreshed to most-recent), or
        ``None``; every call counts as a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU tail past capacity.

        Journal first, then mutate: the write-ahead order means a crash
        between the two leaves a journalled entry the restart restores,
        never a served-but-unjournalled one.
        """
        with self._lock:
            if self.journal is not None:
                encoded = self._encode(value) if self._encode else value
                self.journal.append(key, encoded)
                self._appends_since_compact += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            if (
                self.journal is not None
                and self._appends_since_compact
                >= len(self._entries) + self._compact_slack
            ):
                self.journal.compact(self._encoded_entries())
                self._appends_since_compact = 0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        """Counters for the stats endpoint."""
        with self._lock:
            lookups = self.hits + self.misses
            out = {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "restored": self.restored,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }
            if self.journal is not None:
                out["journal"] = self.journal.snapshot()
            return out

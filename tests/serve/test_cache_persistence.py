"""Crash-safe cache persistence: the write-ahead journal, in isolation.

The journal's two durability claims -- torn-tail-repairing loads and
atomic compaction -- are pinned here as plain file manipulations: a torn
tail is written the way a crash mid-append leaves it, a prefix of a line
with no newline.  The server-level restart story (journal-warm hits
after a torn append) lives in ``test_chaos.py``'s replay matrix and
``TestJournalRestart``, and the SIGKILL subprocess test in
``test_shutdown_safety.py``.
"""

from __future__ import annotations

import json

from repro.serve import CacheJournal, ResultCache


def _journal(tmp_path):
    return CacheJournal(tmp_path / "cache.jsonl")


class TestJournalBasics:
    def test_append_then_load_round_trips(self, tmp_path):
        j = _journal(tmp_path)
        j.append(("a", 1), {"v": 1})
        j.append(("b", 2, None), {"v": 2})
        loaded = _journal(tmp_path).load()
        assert loaded == [(("a", 1), {"v": 1}), (("b", 2, None), {"v": 2})]

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        assert _journal(tmp_path).load() == []

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        j = _journal(tmp_path)
        j.append(("a",), {"v": 1})
        j.append(("b",), {"v": 2})
        # Simulate a crash mid-write: append half a line, no newline.
        with j.path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": ["c"], "ent')
        reader = _journal(tmp_path)
        assert reader.load() == [(("a",), {"v": 1}), (("b",), {"v": 2})]
        assert reader.dropped_tail == 1

    def test_compact_rewrites_atomically(self, tmp_path):
        j = _journal(tmp_path)
        for i in range(5):
            j.append(("k", i), {"v": i})
        j.compact([(("k", 4), {"v": 4})])
        assert _journal(tmp_path).load() == [(("k", 4), {"v": 4})]
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
        assert j.compactions == 1

    def test_append_after_torn_load_survives_reload(self, tmp_path):
        # Regression: a load that dropped a torn tail used to leave it on
        # disk, so every later append sat behind an undecodable line and
        # was lost on the next load, though append() had returned.
        _journal(tmp_path).append(("a",), {"v": 1})
        with (tmp_path / "cache.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"key": ["x"], "ent')
        j = _journal(tmp_path)
        assert j.load() == [(("a",), {"v": 1})]
        assert j.dropped_tail == 1
        j.append(("b",), {"v": 2})
        assert _journal(tmp_path).load() == [
            (("a",), {"v": 1}), (("b",), {"v": 2}),
        ]


class TestJournalBackedCache:
    def test_fills_restore_across_instances(self, tmp_path):
        cache = ResultCache(8, journal=_journal(tmp_path))
        cache.put(("x", 1), {"answer": 41})
        cache.put(("x", 2), {"answer": 42})
        reborn = ResultCache(8, journal=_journal(tmp_path))
        assert reborn.restored == 2
        assert reborn.get(("x", 2)) == {"answer": 42}
        assert reborn.get(("x", 1)) == {"answer": 41}

    def test_last_write_wins_and_capacity_trims_on_restore(self, tmp_path):
        cache = ResultCache(8, journal=_journal(tmp_path))
        cache.put(("k", 0), {"v": "old"})
        for i in range(1, 4):
            cache.put(("k", i), {"v": i})
        cache.put(("k", 0), {"v": "new"})
        small = ResultCache(2, journal=_journal(tmp_path))
        # Capacity 2 keeps the most recently written keys: 3 and 0.
        assert small.restored == 2
        assert small.get(("k", 0)) == {"v": "new"}
        assert small.get(("k", 3)) == {"v": 3}
        assert small.get(("k", 1)) is None

    def test_encode_decode_round_the_journal_boundary(self, tmp_path):
        encode = lambda v: {"wrapped": v}  # noqa: E731
        decode = lambda e: e["wrapped"]  # noqa: E731
        cache = ResultCache(
            4, journal=_journal(tmp_path), encode=encode, decode=decode
        )
        cache.put(("k",), ("tuple", "value"))
        raw = json.loads(
            (tmp_path / "cache.jsonl").read_text().splitlines()[-1]
        )
        assert raw["entry"] == {"wrapped": ["tuple", "value"]}
        reborn = ResultCache(
            4, journal=_journal(tmp_path), encode=encode, decode=decode
        )
        assert reborn.get(("k",)) == ["tuple", "value"]

    def test_restore_compacts_the_journal(self, tmp_path):
        cache = ResultCache(2, journal=_journal(tmp_path))
        for i in range(6):
            cache.put(("k", i), {"v": i})
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 6
        ResultCache(2, journal=_journal(tmp_path))
        # Restore pruned to capacity and rewrote the file to match.
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 2

    def test_restore_of_exactly_the_live_entries_rewrites_nothing(self, tmp_path):
        assert ResultCache(2, journal=_journal(tmp_path)).journal.compactions == 0
        cache = ResultCache(2, journal=_journal(tmp_path))
        cache.put(("k", 0), {"v": 0})
        cache.put(("k", 1), {"v": 1})
        inode = (tmp_path / "cache.jsonl").stat().st_ino
        reborn = ResultCache(2, journal=_journal(tmp_path))
        assert reborn.restored == 2
        assert reborn.journal.compactions == 0
        # An atomic rewrite would have renamed a new file into place.
        assert (tmp_path / "cache.jsonl").stat().st_ino == inode

    def test_churn_triggers_automatic_compaction(self, tmp_path):
        cache = ResultCache(
            2, journal=_journal(tmp_path), compact_slack=5
        )
        for i in range(20):
            cache.put(("k", i % 3), {"v": i})
        lines = (tmp_path / "cache.jsonl").read_text().splitlines()
        # Without compaction this would be 20 lines.
        assert len(lines) < 10
        assert cache.journal.compactions >= 1

    def test_unjournalled_cache_still_works(self, tmp_path):
        cache = ResultCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["restored"] == 0
        assert "journal" not in cache.stats()

"""RunRecord: JSONL round-trip, integrity checks, and record diffing."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    ExecutionPolicy,
    RunRecord,
    TraceEvent,
    diff_records,
    git_sha,
    platform_stamp,
)


def _record_with_events(policy=None, decision="ACCEPT", bits=120):
    rec = RunRecord.start(policy or ExecutionPolicy())
    rec.add_event(TraceEvent(kind="run", label="clique-K3", seed=0,
                             decision=decision, rounds=4, total_bits=bits,
                             total_messages=30,
                             round_bits=[[1, 60], [2, 60]]))
    rec.note("checkpoint", phase="done")
    return rec


class TestTraceEvent:
    def test_dict_roundtrip(self):
        e = TraceEvent(kind="run", label="x", seed=3, decision="REJECT",
                       rounds=7, total_bits=10, total_messages=2,
                       round_bits=[[1, 10]], wall_ms=1.5, extra={"a": 1})
        assert TraceEvent.from_dict(e.as_dict()) == e

    def test_from_dict_ignores_envelope_keys(self):
        e = TraceEvent.from_dict({"type": "event", "kind": "note", "label": "n"})
        assert (e.kind, e.label) == ("note", "n")


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        policy = ExecutionPolicy(lane="vectorized", metrics="lite")
        rec = _record_with_events(policy)
        path = rec.write(tmp_path / "run.jsonl")

        back = RunRecord.load(path)
        assert back.policy == policy.as_dict()
        assert back.policy_hash == policy.policy_hash()
        assert back.git_sha == rec.git_sha
        assert back.platform == rec.platform
        assert back.started_unix == rec.started_unix
        assert back.finished_unix == rec.finished_unix
        assert back.events == rec.events

    def test_jsonl_layout(self, tmp_path):
        path = _record_with_events().write(tmp_path / "run.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "header"
        assert rows[-1]["type"] == "footer"
        assert all(r["type"] == "event" for r in rows[1:-1])
        assert rows[-1]["num_events"] == len(rows) - 2

    def test_write_finalizes(self, tmp_path):
        rec = RunRecord.start(ExecutionPolicy())
        assert rec.finished_unix is None
        rec.write(tmp_path / "run.jsonl")
        assert rec.finished_unix is not None

    def test_footer_event_count_enforced(self, tmp_path):
        path = _record_with_events().write(tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        del lines[1]  # drop an event; footer still declares it
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="footer declares"):
            RunRecord.load(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "footer", "num_events": 0}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            RunRecord.load(path)

    def test_unknown_line_type_rejected(self, tmp_path):
        path = _record_with_events().write(tmp_path / "run.jsonl")
        with path.open("a") as fh:
            fh.write(json.dumps({"type": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown record line"):
            RunRecord.load(path)


class TestAtomicWrite:
    """Crash safety: a write that dies mid-flight never clobbers the
    journal on disk (temp file + ``os.replace``)."""

    def test_crash_during_write_preserves_existing_record(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "run.jsonl"
        _record_with_events(bits=100).write(path)
        before = path.read_text()

        def _crash(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", _crash)
        with pytest.raises(OSError, match="simulated crash"):
            _record_with_events(bits=999).write(path)
        monkeypatch.undo()

        assert path.read_text() == before  # old journal untouched
        assert list(tmp_path.glob("*.tmp.*")) == []  # no temp debris
        assert RunRecord.load(path).events[0].total_bits == 100

    def test_replacement_is_complete_at_swap_time(self, tmp_path, monkeypatch):
        import os

        seen = {}
        real_replace = os.replace

        def _spy(src, dst):
            # Whatever becomes visible at `dst` must already be a fully
            # loadable journal when the swap happens.
            seen["events"] = len(RunRecord.load(src).events)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", _spy)
        _record_with_events().write(tmp_path / "run.jsonl")
        assert seen["events"] == 2

    def test_successful_write_leaves_no_temp_file(self, tmp_path):
        _record_with_events().write(tmp_path / "run.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]

    def test_non_final_write_keeps_record_unfinished(self, tmp_path):
        rec = _record_with_events()
        rec.write(tmp_path / "run.jsonl", final=False)
        assert rec.finished_unix is None
        assert RunRecord.load(tmp_path / "run.jsonl").finished_unix is None


class TestDiffRecords:
    def test_identical(self):
        a = _record_with_events()
        b = _record_with_events()
        b.started_unix = a.started_unix  # timing is not compared
        d = diff_records(a, b)
        assert d["identical"] is True
        assert d["first_divergence"] is None
        assert d["num_events"] == [2, 2]

    def test_policy_change_reported(self):
        a = _record_with_events(ExecutionPolicy())
        b = _record_with_events(ExecutionPolicy(metrics="lite"))
        d = diff_records(a, b)
        assert d["identical"] is False
        assert d["policy"] == {"metrics": ["full", "lite"]}
        assert d["policy_hash"][0] != d["policy_hash"][1]

    def test_first_divergence_located(self):
        a = _record_with_events(decision="ACCEPT", bits=120)
        b = _record_with_events(decision="REJECT", bits=90)
        d = diff_records(a, b)
        div = d["first_divergence"]
        assert div["index"] == 0
        assert div["fields"]["decision"] == ["ACCEPT", "REJECT"]
        assert div["fields"]["total_bits"] == [120, 90]

    def test_event_count_mismatch(self):
        a = _record_with_events()
        b = _record_with_events()
        b.note("extra")
        d = diff_records(a, b)
        assert d["identical"] is False
        assert d["num_events"] == [2, 3]


class TestEnvironmentStamp:
    def test_platform_keys(self):
        assert set(platform_stamp()) == {
            "python", "implementation", "machine", "system",
        }

    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_git_sha_spawns_git_at_most_once_per_process(self, monkeypatch):
        import subprocess

        from repro.runtime import record

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(record.subprocess, "run", counting_run)
        record.git_sha.cache_clear()
        first = RunRecord.start(ExecutionPolicy())
        second = RunRecord.start(ExecutionPolicy())
        assert len(calls) <= 1
        assert first.git_sha == second.git_sha

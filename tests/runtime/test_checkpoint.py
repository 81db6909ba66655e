"""Resumable sweeps and the session degradation ladder.

The checkpoint contract under test: a sweep killed at any cell boundary
and resumed from its journal computes exactly the not-yet-journaled
cells, and the finished journal is event-for-event identical to an
uninterrupted run's (:func:`diff_records` agrees).  Plus the first rung
of the RunSession ladder: a vectorized kernel dying with a hard numpy
fault falls back to the object lane under the same seed and policy.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import run_cell
from repro.runtime import (
    CheckpointError,
    ExecutionPolicy,
    RunRecord,
    RunSession,
    SweepCheckpoint,
    TraceEvent,
    diff_records,
)

POLICY = ExecutionPolicy(seed=3)


def _cell_event(label, seed, values):
    return TraceEvent(kind="note", label=f"cell:{label}", seed=seed,
                      extra={"values": values})


def _sweep(ckpt, computed, die_after=None):
    """A deterministic 2x3 sweep; optionally dies after N fresh cells."""
    for label in ("a", "b"):
        for n in (4, 8, 16):
            def compute(label=label, n=n):
                if die_after is not None and len(computed) >= die_after:
                    raise KeyboardInterrupt  # the "kill"
                computed.append((label, n))
                return {"value": n * (1 if label == "a" else 100)}

            run_cell(ckpt, label, 0, n, compute)


class TestSweepCheckpoint:
    def test_killed_sweep_resumes_without_recomputation(self, tmp_path):
        straight = tmp_path / "straight.jsonl"
        resumed = tmp_path / "resumed.jsonl"

        done = []
        ck = SweepCheckpoint.fresh(POLICY, straight)
        _sweep(ck, done)
        ck.finish()
        assert len(done) == 6

        # Kill after 2 cells; the journal holds exactly those 2.
        first, second = [], []
        ck = SweepCheckpoint.fresh(POLICY, resumed)
        with pytest.raises(KeyboardInterrupt):
            _sweep(ck, first, die_after=2)
        assert len(first) == 2
        assert RunRecord.load(resumed).finished_unix is None

        ck = SweepCheckpoint.resume(resumed, POLICY)
        assert ck.completed == 2
        _sweep(ck, second)
        ck.finish()

        # Only the missing cells ran, and the journals are identical.
        assert second == done[2:]
        diff = diff_records(RunRecord.load(straight), RunRecord.load(resumed))
        assert diff["identical"], diff

    def test_replayed_cell_returns_journaled_values(self, tmp_path):
        ck = SweepCheckpoint.fresh(POLICY, tmp_path / "j.jsonl")
        ck.complete(("a", 0, 4), _cell_event("a", 0, {"value": 99}))
        values, replayed = run_cell(
            ck, "a", 0, 4, lambda: pytest.fail("must not recompute")
        )
        assert (values, replayed) == ({"value": 99}, True)

    def test_resume_refuses_a_different_policy(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepCheckpoint.fresh(POLICY, path).finish()
        with pytest.raises(CheckpointError, match="policy hash"):
            SweepCheckpoint.resume(path, POLICY.merged(seed=4))

    def test_resume_refuses_garbage(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not a record\n")
        with pytest.raises(CheckpointError):
            SweepCheckpoint.resume(path, POLICY)

    def test_every_flush_is_a_loadable_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ck = SweepCheckpoint.fresh(POLICY, path)
        for i, n in enumerate((4, 8, 16)):
            ck.complete(("a", 0, n), _cell_event("a", 0, {"value": n}))
            back = RunRecord.load(path)  # crash here => this is on disk
            assert len(back.events) == i + 1
            assert back.finished_unix is None

    def test_shared_session_record_events_are_not_duplicated(self, tmp_path):
        ck = SweepCheckpoint.fresh(POLICY, tmp_path / "j.jsonl")
        ck.record.note("cell:a", seed=0)
        tail = ck.record.events[-1]
        ck.complete(("a", 0, 4), tail)
        assert ck.record.events.count(tail) == 1
        assert ck.done(("a", 0, 4)) is tail


class TestAppendingFlush:
    """Checkpoint I/O is linear in cells, and torn tails resume cleanly.

    Regression for the quadratic flush: ``complete`` used to rewrite the
    whole journal per cell, so total bytes written grew as cells².  Now
    only the fresh events are appended.
    """

    def _run(self, path, cells):
        ck = SweepCheckpoint.fresh(POLICY, path)
        for n in range(cells):
            ck.complete(
                ("lin", 0, n), _cell_event("lin", 0, {"value": n})
            )
        return ck

    def test_flush_bytes_are_linear_in_cells(self, tmp_path):
        small = self._run(tmp_path / "small.jsonl", 20)
        big = self._run(tmp_path / "big.jsonl", 40)
        # Quadratic flushing would make 2x cells cost ~4x bytes; allow
        # generous slack over the ideal 2x for header amortization.
        assert big.bytes_flushed < 2.5 * small.bytes_flushed
        # And the journal on disk is the record, not a multiple of it.
        size = (tmp_path / "big.jsonl").stat().st_size
        assert big.bytes_flushed == size

    def test_torn_final_line_is_dropped_on_resume(self, tmp_path):
        straight = tmp_path / "straight.jsonl"
        torn = tmp_path / "torn.jsonl"

        done = []
        ck = SweepCheckpoint.fresh(POLICY, straight)
        _sweep(ck, done)
        ck.finish()

        first, second = [], []
        ck = SweepCheckpoint.fresh(POLICY, torn)
        with pytest.raises(KeyboardInterrupt):
            _sweep(ck, first, die_after=3)
        # Simulate a kill mid-append: half a JSON line at the tail.
        with open(torn, "a") as fh:
            fh.write('{"type": "eve')

        ck = SweepCheckpoint.resume(torn, POLICY)
        assert ck.completed == 3
        _sweep(ck, second)
        ck.finish()
        assert second == done[3:]
        diff = diff_records(RunRecord.load(straight), RunRecord.load(torn))
        assert diff["identical"], diff

    def test_torn_batch_reruns_its_cell(self, tmp_path):
        # A batch whose cell-stamped completion event was lost leaves
        # unstamped run events at the tail; resume must drop them and
        # re-run that cell, or the resumed journal would double them.
        straight = tmp_path / "straight.jsonl"
        torn = tmp_path / "torn.jsonl"

        done = []
        ck = SweepCheckpoint.fresh(POLICY, straight)
        _sweep(ck, done)
        ck.finish()

        first, second = [], []
        ck = SweepCheckpoint.fresh(POLICY, torn)
        with pytest.raises(KeyboardInterrupt):
            _sweep(ck, first, die_after=2)
        orphan = TraceEvent(kind="note", label="mid-cell", seed=0)
        with open(torn, "a") as fh:
            fh.write(RunRecord.event_line(orphan) + "\n")
            fh.write('{"type"')

        ck = SweepCheckpoint.resume(torn, POLICY)
        assert ck.completed == 2
        assert all(
            (e.extra or {}).get("cell") for e in ck.record.events
        )
        _sweep(ck, second)
        ck.finish()
        assert second == done[2:]


from repro.congest.algorithm import Algorithm


class _DyingKernel(Algorithm):
    """Stands in for a vectorized kernel: dies with a hard numpy fault."""

    name = "dying-kernel"

    def __init__(self, exc=FloatingPointError):
        self.exc = exc

    def init(self, node):
        raise self.exc("underflow in batched kernel")

    def round(self, node, inbox):
        return {}

    def finish(self, node):
        pass


class TestSessionLaneFallback:
    """A run has no lane fallback: a kernel's fault reaches the caller,
    and nothing is recorded as a degradation."""

    def _net(self, ses):
        import networkx as nx

        return ses.network(nx.path_graph(4), bandwidth=16)

    def test_without_fallback_the_fault_propagates(self):
        with RunSession(ExecutionPolicy(), record=True, owns_pools=False) as ses:
            with pytest.raises(FloatingPointError):
                ses.run(self._net(ses), _DyingKernel(), max_rounds=2)
            assert ses.record.events == []

    def test_non_numpy_errors_are_never_swallowed(self):
        with RunSession(ExecutionPolicy(), owns_pools=False) as ses:
            with pytest.raises(RuntimeError):
                ses.run(
                    self._net(ses), _DyingKernel(exc=RuntimeError),
                    max_rounds=2,
                )

"""The peak-hold load governor: estimator math, session integration,
and its sidecar, which the server alone restores and saves."""

from __future__ import annotations

import asyncio

import networkx as nx
import pytest

import json
import os
import threading

from repro.congest import Algorithm, Message, broadcast
from repro.runtime import (
    ExecutionPolicy,
    GovernorStateStore,
    PeakHoldGovernor,
    PolicyError,
    RunSession,
)
from repro.serve import DetectionServer, execute_request
from repro.serve.protocol import parse_request


def _serve(policy, path, body=lambda srv: None):
    """Start a server under ``policy`` with the sidecar at ``path``, run
    ``body(srv)``, stop it (which saves the sidecar) and return it."""
    srv = DetectionServer(base_policy=policy, governor_state=path)

    async def run():
        await srv.start()
        try:
            body(srv)
        finally:
            await srv.stop()

    asyncio.run(run())
    return srv


class TestPeakHold:
    def test_peak_holds_then_decays(self):
        gov = PeakHoldGovernor(budget=1000, decay=0.5)
        gov.observe(100.0)
        assert gov.peak == 100.0
        gov.observe(10.0)  # below the decayed peak: hold at 50
        assert gov.peak == 50.0
        gov.observe(200.0)  # a new spike resets the hold
        assert gov.peak == 200.0
        assert gov.observed == 3

    def test_allowed_scales_with_budget_over_peak(self):
        gov = PeakHoldGovernor(budget=1000)
        gov.observe(400.0)
        assert gov.allowed(8) == 2  # 1000 // 400
        gov.observe(2500.0)
        assert gov.allowed(8) == 1  # never below one lane
        assert gov.allowed(0) == 0

    def test_no_observations_grants_everything(self):
        gov = PeakHoldGovernor(budget=1)
        assert gov.allowed(16) == 16

    def test_zero_cost_runs_never_throttle(self):
        gov = PeakHoldGovernor(budget=1)
        for _ in range(5):
            gov.observe(0.0)
        assert gov.peak == 0.0
        assert gov.allowed(16) == 16

    def test_snapshot_is_a_plain_dict(self):
        gov = PeakHoldGovernor(budget=64, decay=0.75)
        gov.observe(8.0)
        assert gov.snapshot() == {
            "budget": 64, "decay": 0.75, "peak": 8.0, "observed": 1,
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            PeakHoldGovernor(budget=0)
        with pytest.raises(ValueError, match="decay"):
            PeakHoldGovernor(budget=10, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            PeakHoldGovernor(budget=10, decay=1.5)
        gov = PeakHoldGovernor(budget=10)
        with pytest.raises(ValueError, match="cost"):
            gov.observe(-1.0)


class _Chatty(Algorithm):
    """Two rounds of 4-bit broadcasts, then accept: real nonzero cost."""

    name = "chatty"

    def round(self, node, inbox):
        if node.round < 2:
            return broadcast(node, Message.of_bits("1111"))
        node.accept()
        node.halt()
        return {}


def _chatty_factory(t: int) -> Algorithm:
    return _Chatty()


class TestSessionIntegration:
    def test_policy_budget_builds_a_governor(self):
        ses = RunSession(
            ExecutionPolicy(governor_budget=500, governor_decay=0.5),
            owns_pools=False,
        )
        assert isinstance(ses.governor, PeakHoldGovernor)
        assert ses.governor.budget == 500 and ses.governor.decay == 0.5

    def test_no_budget_means_no_governor(self):
        assert RunSession(owns_pools=False).governor is None

    def test_decay_without_budget_is_a_policy_error(self):
        with pytest.raises(PolicyError, match="governor_decay"):
            ExecutionPolicy(governor_decay=0.5)

    def test_shared_governor_instance_is_used_as_is(self):
        gov = PeakHoldGovernor(budget=7)
        ses = RunSession(governor=gov, owns_pools=False)
        derived = RunSession(
            ses.policy.merged(faults="drop:0.1"),
            owns_pools=False, governor=ses.governor,
        )
        assert ses.governor is gov and derived.governor is gov

    def test_session_run_feeds_the_estimator(self):
        ses = RunSession(
            ExecutionPolicy(governor_budget=10**9), owns_pools=False
        )
        net = ses.network(nx.cycle_graph(4), bandwidth=8)
        result = ses.run(net, _Chatty(), max_rounds=5)
        assert ses.governor.observed == 1
        assert ses.governor.peak == result.rounds * result.metrics.total_bits
        assert ses.governor.peak > 0

    def test_governed_amplify_throttles_and_keeps_outcomes(self):
        graph = nx.cycle_graph(5)
        kw = dict(iterations=12, bandwidth=8, max_rounds=5, seed=0)
        free = RunSession(
            ExecutionPolicy(jobs=4, amplify_batch=4), owns_pools=False
        )
        ungoverned = free.amplify(graph, _chatty_factory, **kw)
        # A one-unit budget forces single-lane batches once any cost has
        # been observed; the outcome must not change.
        tight = RunSession(
            ExecutionPolicy(
                jobs=4, amplify_batch=4, governor_budget=1
            ),
            record=True,
            owns_pools=False,
        )
        governed = tight.amplify(graph, _chatty_factory, **kw)
        assert governed.outcomes == ungoverned.outcomes
        # The record's governor notes are the one account of throttles.
        notes = [
            e.extra for e in tight.record.events
            if e.kind == "note" and e.label == "governor"
        ]
        assert notes, "expected at least one throttle"
        for step in notes:
            assert step["requested_jobs"] == 4
            assert step["granted_jobs"] == 1
            assert step["peak"] > 0


class TestStatePersistence:
    def test_round_trip_keyed_by_policy_hash(self, tmp_path):
        store = GovernorStateStore(tmp_path / "gov.json")
        gov = PeakHoldGovernor(budget=1000, decay=0.5)
        gov.observe(640.0)
        store.save("hash-a", gov)
        other = PeakHoldGovernor(budget=9, decay=0.9)
        other.observe(3.0)
        store.save("hash-b", other)

        entry = store.load("hash-a")
        assert entry["peak"] == 640.0 and entry["observed"] == 1
        assert store.load("hash-b")["peak"] == 3.0
        assert store.load("hash-unknown") is None

    def test_save_is_atomic_and_merging(self, tmp_path):
        path = tmp_path / "gov.json"
        store = GovernorStateStore(path)
        gov = PeakHoldGovernor(budget=10)
        gov.observe(5.0)
        store.save("h1", gov)
        store.save("h2", gov)
        data = json.loads(path.read_text())
        assert set(data) == {"h1", "h2"}
        assert not list(tmp_path.glob(".*tmp*")), "temp file left behind"

    def test_failed_save_keeps_old_sidecar_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "gov.json"
        store = GovernorStateStore(path)
        store.save("h", PeakHoldGovernor(budget=10))
        before = path.read_text()

        def _crash(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", _crash)
        gov = PeakHoldGovernor(budget=10)
        gov.observe(7.0)
        with pytest.raises(OSError, match="simulated crash"):
            store.save("h", gov)
        monkeypatch.undo()

        assert path.read_text() == before
        assert list(tmp_path.glob(".gov.json.tmp.*")) == []

    def test_threads_saving_at_once_do_not_collide(self, tmp_path, monkeypatch):
        # Both savers have written their temp file before either renames:
        # with one temp name per process the second rename found nothing.
        store = GovernorStateStore(tmp_path / "gov.json")
        both_written = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def _replace(src, dst):
            both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", _replace)
        errors = []

        def _save(policy_hash):
            try:
                store.save(policy_hash, PeakHoldGovernor(budget=10))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=_save, args=(h,)) for h in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert json.loads((tmp_path / "gov.json").read_text())
        assert list(tmp_path.glob(".gov.json.tmp.*")) == []

    def test_corrupt_sidecar_reads_as_empty(self, tmp_path):
        path = tmp_path / "gov.json"
        path.write_text("{not json")
        store = GovernorStateStore(path)
        assert store.load("h") is None
        gov = PeakHoldGovernor(budget=10)
        gov.observe(1.0)
        store.save("h", gov)  # recovers by rewriting
        assert store.load("h")["peak"] == 1.0

    def test_restore_validation(self):
        gov = PeakHoldGovernor(budget=10)
        with pytest.raises(ValueError):
            gov.restore(-1.0, 0)
        gov.restore(4.5, 2)
        assert gov.peak == 4.5 and gov.observed == 2
        assert gov.allowed(8) == 2  # 10 // 4.5: restored state throttles

    def test_a_sidecar_without_a_budget_is_refused(self, tmp_path):
        # No budget, no governor, no estimate to persist: refuse the
        # sidecar instead of silently never writing it.
        path = tmp_path / "gov.json"
        with pytest.raises(ValueError, match="governor_budget"):
            DetectionServer(base_policy=ExecutionPolicy(), governor_state=path)
        assert not path.exists()

    def test_distinct_policies_do_not_share_estimates(self, tmp_path):
        path = tmp_path / "gov.json"
        p1 = ExecutionPolicy(governor_budget=1000)
        p2 = ExecutionPolicy(governor_budget=1000, bandwidth=8)
        _serve(p1, path, lambda srv: srv.governor.observe(500.0))
        fresh = _serve(p2, path)
        assert fresh.governor.peak == 0.0  # different hash, no carry-over

    def test_unobserved_governor_never_clobbers(self, tmp_path):
        path = tmp_path / "gov.json"
        policy = ExecutionPolicy(governor_budget=1000)
        _serve(policy, path, lambda srv: srv.governor.observe(123.0))
        # Start and stop without running anything: the estimate survives.
        # (The restored estimate counts as observed, so it re-saves; a
        # *fresh* unobserved governor writes nothing.)
        _serve(policy, path)
        assert GovernorStateStore(path).load(policy.policy_hash())["peak"] == 123.0
        p_other = ExecutionPolicy(governor_budget=2000)
        _serve(p_other, path)
        assert GovernorStateStore(path).load(p_other.policy_hash()) is None

    def test_served_request_ignores_the_sidecar_env_var(self, tmp_path, monkeypatch):
        """A request's session neither restores nor saves a sidecar: the
        server's shared governor moves only by its own observations."""
        path = tmp_path / "gov.json"
        policy = ExecutionPolicy(governor_budget=100)
        stale = PeakHoldGovernor(100)
        stale.observe(8.1e11)
        GovernorStateStore(path).save(policy.policy_hash(), stale)
        before = path.read_bytes()
        req = parse_request({"id": "a", "pattern": "c4", "seed": 3, "iterations": 3,
                             "graph": {"kind": "gnp", "n": 16, "p": 0.2, "seed": 1}})

        def served():
            gov = PeakHoldGovernor(100)
            gov.observe(100.0)
            execute_request(req, req.policy(base=policy), governor=gov)
            return gov.snapshot()

        expected = served()
        monkeypatch.setenv("REPRO_GOVERNOR_STATE", str(path))
        assert served() == expected
        assert expected["observed"] > 1
        assert path.read_bytes() == before

"""RunSession: model/lane dispatch, recording, and owned lifecycles.

The pool-lifecycle test here is the acceptance test for the leak fix:
no ``ProcessPoolExecutor`` may survive an explicit session's close.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.congest import parallel
from repro.congest.broadcast_model import BroadcastNetwork
from repro.congest.congested_clique import CongestedClique
from repro.congest.local_model import LocalNetwork
from repro.congest.network import CongestNetwork
from repro.core.clique_detection import CliqueDetection, VectorizedCliqueDetection
from repro.core.cycle_detection_linear import _LinearCycleFactory, detect_cycle_linear
from repro.core.even_cycle import detect_even_cycle
from repro.core.triangle import SilentProtocol, detect_triangle_congest
from repro.graphs import generators as gen
from repro.graphs.cache import cache_stats, cached_hk
from repro.graphs.template_graph import sample_input
from repro.lowerbounds.one_round_network import run_one_round_on_network
from repro.runtime import ExecutionPolicy, RunRecord, RunSession, use_session


@pytest.fixture(autouse=True)
def _clean_pools():
    """Each test starts and ends with no persistent pools alive."""
    parallel.shutdown_pools()
    yield
    parallel.shutdown_pools()


class TestModelDispatch:
    def test_each_model_builds_its_network(self):
        g = nx.cycle_graph(5)
        cases = [
            ("congest", {}, CongestNetwork),
            ("broadcast", {}, BroadcastNetwork),
            ("local", {}, LocalNetwork),
            ("clique", {"bandwidth": 8}, CongestedClique),
        ]
        for model, extra, cls in cases:
            ses = RunSession(ExecutionPolicy(model=model, **extra), owns_pools=False)
            assert type(ses.network(g)) is cls

    def test_bandwidth_defaults_to_policy(self):
        g = nx.path_graph(4)
        ses = RunSession(ExecutionPolicy(bandwidth=8), owns_pools=False)
        assert ses.network(g).bandwidth == 8
        assert ses.network(g, bandwidth=16).bandwidth == 16
        assert ses.network(g, bandwidth=None).bandwidth is None

    def test_clique_requires_bandwidth(self):
        ses = RunSession(ExecutionPolicy(model="clique"), owns_pools=False)
        with pytest.raises(ValueError, match="bandwidth"):
            ses.network(nx.path_graph(3))

    def test_lane_class(self):
        obj = RunSession(owns_pools=False)
        vec = RunSession(ExecutionPolicy(lane="vectorized"), owns_pools=False)
        assert obj.lane_class(CliqueDetection, VectorizedCliqueDetection) \
            is CliqueDetection
        assert vec.lane_class(CliqueDetection, VectorizedCliqueDetection) \
            is VectorizedCliqueDetection


class TestConstruction:
    def test_run_knobs_come_only_from_the_policy(self, tmp_path):
        # No keyword shortcut, profile switch, sidecar path or lane
        # fallback rides beside the policy: each one fails loudly.
        for kwargs in ({"jobs": 2}, {"profile": True},
                       {"governor_state": tmp_path / "gov.json"}):
            with pytest.raises(TypeError):
                RunSession(owns_pools=False, **kwargs)
        ses = RunSession(owns_pools=False)
        net = ses.network(nx.complete_graph(3), bandwidth=8)
        with pytest.raises(TypeError):
            ses.run(net, VectorizedCliqueDetection(3), max_rounds=6,
                    fallback=CliqueDetection(3))
        assert not hasattr(ExecutionPolicy, "from_env")
        for gone in ("degradations", "governor_events", "governor_store"):
            assert not hasattr(ses, gone)

    def test_existing_record_appended(self):
        rec = RunRecord.start(ExecutionPolicy())
        ses = RunSession(record=rec, owns_pools=False)
        ses.note("hello")
        assert rec.events[-1].label == "hello"

    def test_save_record_requires_record(self, tmp_path):
        ses = RunSession(owns_pools=False)
        with pytest.raises(ValueError, match="record"):
            ses.save_record(tmp_path / "r.jsonl")

    def test_note_without_record_is_noop(self):
        RunSession(owns_pools=False).note("ignored", x=1)


class TestRunAndRecord:
    def test_run_applies_policy(self):
        g = nx.complete_graph(5)
        ses = RunSession(ExecutionPolicy(metrics="lite", seed=3),
                         record=True, owns_pools=False)
        net = ses.network(g, bandwidth=8)
        res = ses.run(net, CliqueDetection(3), max_rounds=6, label="k3")
        assert res.metrics.mode == "lite"
        assert res.rejected  # K_5 contains K_3

        [event] = ses.record.events
        assert event.kind == "run"
        assert event.label == "k3"
        assert event.seed == 3  # policy seed applied
        assert event.decision == res.decision.name
        assert event.rounds == res.rounds
        assert event.total_bits == res.metrics.total_bits
        assert event.round_bits == sorted(
            [int(r), int(b)] for r, b in res.metrics.round_bits.items()
        )
        assert event.wall_ms is not None and event.wall_ms >= 0

    def test_amplify_records_event(self):
        g = nx.cycle_graph(6)
        ses = RunSession(ExecutionPolicy(metrics="lite"),
                         record=True, owns_pools=False)
        out = ses.amplify(
            g, _LinearCycleFactory(6, None), 4,
            bandwidth=32, max_rounds=20, seed=1, label="amp",
        )
        [event] = ses.record.events
        assert event.kind == "amplified"
        assert event.label == "amp"
        assert event.total_bits == out.total_bits
        assert event.extra["iterations_run"] == out.iterations_run

    def test_record_written_and_loaded(self, tmp_path):
        g = nx.complete_graph(4)
        with RunSession(ExecutionPolicy(), record=True) as ses:
            net = ses.network(g, bandwidth=8)
            ses.run(net, CliqueDetection(3), max_rounds=6, label="k3")
            path = ses.save_record(tmp_path / "run.jsonl")
        back = RunRecord.load(path)
        assert back.policy == ses.policy.as_dict()
        assert [e.label for e in back.events] == ["k3"]


class TestLifecycle:
    def test_no_pool_survives_session_close(self):
        """Satellite: explicit sessions shut the persistent pools down."""
        g = nx.cycle_graph(8)
        with RunSession(ExecutionPolicy(jobs=2, metrics="lite")) as ses:
            ses.amplify(g, _LinearCycleFactory(8, None), 4,
                        bandwidth=32, max_rounds=24)
            assert parallel._POOLS, "amplify(jobs=2) should have built a pool"
        assert parallel._POOLS == {}, "a ProcessPoolExecutor outlived the session"

    def test_implicit_session_leaves_pools_alone(self):
        g = nx.cycle_graph(8)
        warm = RunSession(ExecutionPolicy(jobs=2, metrics="lite"), owns_pools=False)
        warm.amplify(g, _LinearCycleFactory(8, None), 4,
                     bandwidth=32, max_rounds=24)
        pools_before = dict(parallel._POOLS)
        assert pools_before, "amplify(jobs=2) should have built a pool"
        ses = use_session(None)
        assert ses.owns_pools is False
        ses.close()
        detect_cycle_linear(g, 8, iterations=2)  # no session: implicit
        assert parallel._POOLS == pools_before, \
            "implicit sessions must keep the persistent pools warm"

    def test_close_is_idempotent(self):
        ses = RunSession(record=True)
        ses.close()
        finished = ses.record.finished_unix
        ses.close()
        assert ses.closed and ses.record.finished_unix == finished

    def test_cache_false_clears_construction_cache(self):
        cached_hk(2)
        assert any(s["currsize"] > 0 for s in cache_stats().values())
        with RunSession(ExecutionPolicy(cache=False), owns_pools=False):
            pass
        assert all(s["currsize"] == 0 for s in cache_stats().values())

    def test_cache_true_keeps_construction_cache(self):
        cached_hk(2)
        with RunSession(owns_pools=False):
            pass
        assert any(s["currsize"] > 0 for s in cache_stats().values())

    def test_session_cache_stats_passthrough(self):
        ses = RunSession(owns_pools=False)
        assert ses.cache_stats() == cache_stats()


def _triangle(ses):
    res = detect_triangle_congest(nx.gnp_random_graph(10, 0.5, seed=1),
                                  bandwidth=16, seed=4, session=ses)
    m = res.metrics
    return (res.decision, res.rounds, res.node_decisions, m.total_bits,
            m.total_messages, m.round_bits, m.edge_bits, m.node_bits)


def _report(rep):
    return (rep.detected, rep.iterations_run, rep.rounds_per_iteration,
            rep.total_rounds, rep.total_bits, rep.total_messages)


def _even_cycle(ses):
    g, _ = gen.planted_cycle_graph(40, 4, p=0.02, rng=np.random.default_rng(7))
    return _report(detect_even_cycle(g, k=2, iterations=12, seed=3, session=ses))


def _linear_cycle(ses):
    return _report(detect_cycle_linear(nx.cycle_graph(8), 8, iterations=10,
                                       seed=1, session=ses))


def _one_round_silent(ses):
    sample = sample_input(5, np.random.default_rng(0), id_space=10**6)
    out = run_one_round_on_network(SilentProtocol(), sample, session=ses)
    return dataclasses.astuple(out)


#: Detector calls whose output must not depend on whether the session is
#: implicit (``session=None``) or an explicit default ``RunSession()``.
IMPLICIT_CASES = {
    "triangle": _triangle,
    "even-cycle": _even_cycle,
    "linear-cycle": _linear_cycle,
    "one-round-silent": _one_round_silent,
}


class TestUseSession:
    def test_explicit_session_wins(self):
        explicit = RunSession(ExecutionPolicy(metrics="lite"), owns_pools=False)
        ses = use_session(explicit)
        assert ses is explicit
        assert ses.policy.metrics == "lite"

    def test_implicit_session_default_policy(self):
        ses = use_session(None)
        assert ses.policy == ExecutionPolicy()
        assert ses.owns_pools is False

    @pytest.mark.parametrize("case", list(IMPLICIT_CASES))
    def test_implicit_session_matches_explicit(self, case):
        run = IMPLICIT_CASES[case]
        implicit = run(None)
        with RunSession(record=True) as ses:
            explicit = run(ses)
            assert ses.record.events
        assert implicit == explicit

"""Differential suite for adaptive early-stopping amplification.

The contract under test: the sequential-test stopping rule is a pure
function of the *ordered* seed outcomes, so an adaptive run's decision,
witness set, per-iteration aggregates, and seeds-run count are
bit-identical across ``jobs``, chunk boundaries, batch sizes, and fault
plans -- parallelism and batching shape wall-clock only.  Plus the
serial/parallel cache symmetry fix: the ``jobs == 1`` inline path
populates the same network LRU the worker path uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import pytest

from repro.congest import Algorithm, Message, broadcast, run_amplified
from repro.congest import parallel as par
from repro.core.even_cycle import detect_even_cycle
from repro.runtime import ExecutionPolicy, RunSession, seeds_for_confidence


class _ChattyMaybeReject(Algorithm):
    """Two rounds of deterministic traffic, then a scripted decision.

    Real messages make the fault plan and the bit accounting meaningful;
    the scripted decision keeps the amplification trace deterministic.
    """

    name = "chatty-maybe-reject"

    def __init__(self, reject: bool):
        self.reject_flag = reject

    def round(self, node, inbox):
        if node.round < 2:
            width = 1 + (node.id + node.round) % 3
            return broadcast(node, Message.of_bits("1" * width))
        if self.reject_flag and node.id == 0:
            node.reject()
            node.state["witness"] = ("w", node.id)
        else:
            node.accept()
        node.halt()
        return {}


@dataclass(frozen=True)
class ChattyRejectAt:
    """Picklable factory: iteration ``t`` rejects iff ``t`` is targeted."""

    targets: frozenset

    def __call__(self, iteration: int) -> Algorithm:
        return _ChattyMaybeReject(iteration in self.targets)


GRAPH = nx.cycle_graph(5)
KW = dict(seed=0, bandwidth=8, max_rounds=5)
ACCEPT_ALL = ChattyRejectAt(frozenset())


def _trace(amp):
    return [
        (o.index, o.rejected, o.rounds, o.total_bits, o.total_messages)
        for o in amp.outcomes
    ]


def _same(a, b):
    assert (a.rejected, a.first_reject, a.iterations_run) == (
        b.rejected, b.first_reject, b.iterations_run
    )
    assert (a.stop_reason, a.target_accepts, a.seeds_saved) == (
        b.stop_reason, b.target_accepts, b.seeds_saved
    )
    assert _trace(a) == _trace(b)
    assert a.witnesses == b.witnesses


class TestStoppingRule:
    def test_confidence_stop_saves_seeds(self):
        # p = 0.5, confidence 0.9 -> 4 all-accept seeds suffice.
        amp = run_amplified(
            GRAPH, ACCEPT_ALL, iterations=20, jobs=1,
            success_probability=0.5, target_confidence=0.9, **KW,
        )
        assert not amp.rejected
        assert amp.target_accepts == seeds_for_confidence(0.9, 0.5) == 4
        assert amp.iterations_run == 4
        assert amp.stop_reason == "confidence"
        assert amp.seeds_requested == 20 and amp.seeds_saved == 16

    def test_detect_beats_the_confidence_target(self):
        amp = run_amplified(
            GRAPH, ChattyRejectAt(frozenset({2})), iterations=20, jobs=1,
            success_probability=0.5, target_confidence=0.9, **KW,
        )
        assert amp.rejected and amp.first_reject == 2
        assert amp.iterations_run == 3 and amp.stop_reason == "detect"
        assert amp.witnesses == [("w", 0)]

    def test_reject_without_stop_on_detect_runs_to_cap(self):
        # A found witness answers the question, but stop_on_detect=False
        # asks for every seed; the confidence stop must not fire.
        amp = run_amplified(
            GRAPH, ChattyRejectAt(frozenset({1})), iterations=20, jobs=1,
            stop_on_detect=False, success_probability=0.5,
            target_confidence=0.9, max_seeds=7, **KW,
        )
        assert amp.rejected and amp.iterations_run == 7
        assert amp.stop_reason == "exhausted"

    def test_max_seeds_caps_exhaustion(self):
        amp = run_amplified(
            GRAPH, ACCEPT_ALL, iterations=50, jobs=1, max_seeds=5, **KW,
        )
        assert amp.iterations_run == 5 and amp.stop_reason == "exhausted"
        assert amp.seeds_saved == 45

    def test_confidence_needs_success_probability(self):
        with pytest.raises(ValueError, match="success_probability"):
            run_amplified(
                GRAPH, ACCEPT_ALL, iterations=4, target_confidence=0.9, **KW,
            )

    def test_bad_adaptive_args_rejected(self):
        with pytest.raises(ValueError, match="max_seeds"):
            run_amplified(GRAPH, ACCEPT_ALL, iterations=4, max_seeds=0, **KW)
        with pytest.raises(ValueError, match="batch_seeds"):
            run_amplified(GRAPH, ACCEPT_ALL, iterations=4, batch_seeds=0, **KW)


class TestDifferential:
    """Adaptive outcomes are invariant in jobs, chunking, and batching."""

    @pytest.mark.parametrize("targets", [frozenset(), frozenset({5})])
    def test_jobs_invariance(self, targets):
        runs = [
            run_amplified(
                GRAPH, ChattyRejectAt(targets), iterations=24, jobs=jobs,
                success_probability=0.5, target_confidence=0.99, **KW,
            )
            for jobs in (1, 2, 4)
        ]
        for amp in runs[1:]:
            _same(amp, runs[0])

    @pytest.mark.parametrize("chunks_per_job", [1, 2, 5])
    @pytest.mark.parametrize("batch_seeds", [None, 1, 3, 7])
    def test_chunk_and_batch_invariance(self, chunks_per_job, batch_seeds):
        ref = run_amplified(
            GRAPH, ChattyRejectAt(frozenset({6})), iterations=24, jobs=1,
            success_probability=0.5, target_confidence=0.99, **KW,
        )
        amp = run_amplified(
            GRAPH, ChattyRejectAt(frozenset({6})), iterations=24, jobs=3,
            chunks_per_job=chunks_per_job, batch_seeds=batch_seeds,
            success_probability=0.5, target_confidence=0.99, **KW,
        )
        _same(amp, ref)

    def test_invariance_under_a_drop_fault_plan(self):
        runs = [
            run_amplified(
                GRAPH, ChattyRejectAt(frozenset({4})), iterations=16,
                jobs=jobs, faults="drop:0.3|seed:5",
                success_probability=0.5, target_confidence=0.99, **KW,
            )
            for jobs in (1, 2, 4)
        ]
        assert runs[0].rejected  # decisions are scripted, traffic is not
        for amp in runs[1:]:
            _same(amp, runs[0])


POLICY_KW = dict(iterations=10, seed=2)


class TestPolicyDrivenDetection:
    """The even-cycle detector under adaptive policies, end to end."""

    def _report(self, policy):
        # C_21 is C_4-free: every iteration accepts, so the confidence
        # stop (not detection) ends the run.
        with RunSession(policy, owns_pools=False) as ses:
            return detect_even_cycle(
                nx.cycle_graph(21), 2, session=ses, **POLICY_KW
            )

    def test_confidence_stop_identical_across_jobs(self):
        # p = (2k)^(-2k) = 1/256; confidence 0.02 -> 6 seeds.
        assert seeds_for_confidence(0.02, 1 / 256) == 6
        reports = [
            self._report(
                ExecutionPolicy(jobs=jobs, metrics="lite",
                                amplify_confidence=0.02)
            )
            for jobs in (1, 2, 4)
        ]
        base = reports[0]
        assert not base.detected
        assert base.iterations_run == 6
        assert base.stop_reason == "confidence"
        assert base.seeds_saved == 4
        for rep in reports[1:]:
            assert rep.detected == base.detected
            assert rep.iterations_run == base.iterations_run
            assert rep.total_bits == base.total_bits
            assert rep.total_messages == base.total_messages
            assert rep.stop_reason == base.stop_reason
            assert rep.seeds_saved == base.seeds_saved

    def test_unchanged_decision_on_positive_instance(self):
        # Confidence 0.05 -> target 14 accepts: past the first rejecting
        # seed, so detection fires first and the decision is unchanged.
        g = nx.grid_2d_graph(3, 3)
        g = nx.convert_node_labels_to_integers(g, ordering="sorted")
        assert seeds_for_confidence(0.05, 1 / 256) == 14
        plain = detect_even_cycle(
            g, 2, iterations=12, seed=0,
            session=RunSession(ExecutionPolicy(metrics="lite"), owns_pools=False),
        )
        with RunSession(
            ExecutionPolicy(metrics="lite", amplify_confidence=0.05), owns_pools=False
        ) as ses:
            adaptive = detect_even_cycle(g, 2, iterations=12, seed=0, session=ses)
        assert adaptive.detected == plain.detected
        assert adaptive.iterations_run == plain.iterations_run
        assert sorted(adaptive.witnesses) == sorted(plain.witnesses)

    def test_max_seeds_caps_the_inline_path(self):
        with RunSession(
            ExecutionPolicy(amplify_max_seeds=3), owns_pools=False
        ) as ses:
            rep = detect_even_cycle(
                nx.cycle_graph(21), 2, iterations=10, seed=2, session=ses,
            )
        assert rep.iterations_run == 3 and rep.seeds_saved == 7


class TestSeedsSaved:
    """Against a fixed budget a cautious caller would pick (~1.5x the
    seeds the sequential test needs), the adaptive stop saves >= 30% of
    the seeds on a negative instance and changes nothing on a positive
    one.  All counts are deterministic."""

    K = 2
    P_SUCCESS = float(2 * K) ** -(2 * K)  # the paper's per-iteration rate
    CONFIDENCE = 0.9
    FIXED_BUDGET = 900

    def _pair(self, graph, iterations):
        reports = []
        for confidence in (None, self.CONFIDENCE):
            policy = ExecutionPolicy(
                metrics="lite", amplify_confidence=confidence
            )
            with RunSession(policy, owns_pools=False) as ses:
                reports.append(detect_even_cycle(
                    graph, self.K, iterations=iterations, seed=0, session=ses
                ))
        return reports

    def test_negative_instance_saves_at_least_30_percent(self):
        # C_9 is C_4-free: every seed accepts, so the fixed budget burns
        # all 900 while the sequential test settles at its threshold.
        fixed, adaptive = self._pair(nx.cycle_graph(9), self.FIXED_BUDGET)
        assert fixed.detected is False and adaptive.detected is False
        assert fixed.iterations_run == self.FIXED_BUDGET
        assert adaptive.iterations_run == seeds_for_confidence(
            self.CONFIDENCE, self.P_SUCCESS
        )
        assert adaptive.stop_reason == "confidence"
        assert adaptive.seeds_saved / self.FIXED_BUDGET >= 0.30

    def test_positive_instance_decision_unchanged(self):
        # Every face of the 3x3 grid is a C_4: detection fires long
        # before the accept threshold, at the fixed run's seed.
        grid = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(3, 3), ordering="sorted"
        )
        fixed, adaptive = self._pair(grid, 64)
        assert fixed.detected and adaptive.detected
        assert adaptive.iterations_run == fixed.iterations_run
        assert sorted(adaptive.witnesses) == sorted(fixed.witnesses)


class TestSerialCacheSymmetry:
    """The jobs=1 inline path populates the same network LRU workers use."""

    def test_inline_amplification_reuses_the_network(self):
        par._NET_CACHE.clear()
        run_amplified(GRAPH, ACCEPT_ALL, iterations=3, jobs=1, **KW)
        assert len(par._NET_CACHE) == 1
        net = next(iter(par._NET_CACHE.values()))
        run_amplified(GRAPH, ACCEPT_ALL, iterations=3, jobs=1, **KW)
        assert next(iter(par._NET_CACHE.values())) is net

    def test_serial_fallback_shares_the_inline_cache_key(self):
        par._NET_CACHE.clear()
        run_amplified(GRAPH, ACCEPT_ALL, iterations=3, jobs=1, **KW)
        token = next(iter(par._NET_CACHE))
        assert token == par._net_token(GRAPH, KW["bandwidth"], {})

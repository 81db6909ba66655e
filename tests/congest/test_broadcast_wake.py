"""Broadcast runs keep the ``wake_round`` skip and its sanitizer audit.

:class:`~repro.congest.BroadcastNetwork` wraps every algorithm in a
checker that validates each outbox.  The wrapper forwards the inner
algorithm's ``wake_round`` hook, as it forwards ``is_quiescent``, so a
broadcast run skips the same provably silent rounds as a plain run, and a
sanitized broadcast run audits the same promises.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest import WAKE_NEVER, BroadcastNetwork, SanitizerViolation
from repro.core.cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
)
from repro.core.even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    required_bandwidth,
)


class _EvenNoWake(EvenCycleIterationAlgorithm):
    wake_round = None


class _LyingLinear(LinearCycleIterationAlgorithm):
    """Claims a node with an empty queue never acts again, but every node
    accepts and halts at the deadline."""

    def wake_round(self, node, r):
        return r if node.state["queue"] else WAKE_NEVER


class _LyingVecLinear(VectorizedLinearCycle):
    """The vectorized twin of :class:`_LyingLinear`."""

    def wake_round(self, run, state, r):
        return r if bool(state["has_queue"].any()) else WAKE_NEVER


def _ledger(res):
    m = res.metrics
    return (
        m.rounds, m.total_bits, m.total_messages, dict(m.round_bits),
        dict(m.edge_bits), dict(m.node_bits), dict(m.node_messages),
    )


class TestBroadcastSkipIsReal:
    def _round_calls(self, cls):
        calls = []

        class Counting(cls):
            def round(self, node, inbox):
                calls.append(node.round)
                return super().round(node, inbox)

        n = 48
        graph = nx.gnp_random_graph(n, 2.5 / n, seed=0)
        net = BroadcastNetwork(graph, bandwidth=required_bandwidth(n, 2))
        res = net.run(
            Counting(2),
            max_rounds=IterationSchedule.build(n, 2).total_rounds + 1,
            seed=0,
        )
        return len(calls), res

    def test_even_cycle_makes_under_5pct_of_the_round_calls(self):
        fast_calls, fast = self._round_calls(EvenCycleIterationAlgorithm)
        full_calls, full = self._round_calls(_EvenNoWake)
        assert fast_calls <= 0.05 * full_calls, (fast_calls, full_calls)
        assert fast.rounds == full.rounds
        assert fast.decision == full.decision
        assert fast.node_decisions == full.node_decisions
        assert _ledger(fast) == _ledger(full)


class TestSanitizedBroadcastAuditsPromises:
    @pytest.mark.parametrize(
        "algo", [_LyingLinear(4), _LyingVecLinear(4)], ids=["object", "vectorized"]
    )
    def test_lying_hook_is_caught(self, algo):
        net = BroadcastNetwork(nx.cycle_graph(8), bandwidth=16)
        with pytest.raises(SanitizerViolation) as exc:
            net.run(algo, max_rounds=14, seed=2, sanitize=True)
        assert exc.value.rule_id == "L3"
        assert "wake_round" in str(exc.value)

    def test_honest_hook_passes(self):
        net = BroadcastNetwork(nx.cycle_graph(8), bandwidth=16)
        clean = net.run(LinearCycleIterationAlgorithm(4), max_rounds=14, seed=2)
        audited = net.run(
            LinearCycleIterationAlgorithm(4), max_rounds=14, seed=2, sanitize=True
        )
        assert audited.node_decisions == clean.node_decisions
        assert _ledger(audited) == _ledger(clean)

"""The ``wake_round`` fast-forward changes work, never answers.

Each hooked algorithm is run twice on the same network and seed: once as
shipped and once as a subclass with ``wake_round = None``, which executes
every scheduled round.  The two runs must agree on everything a caller
can observe -- decision, billed rounds, the full communication ledger,
node decisions, witnesses, and each final context's ``round`` and halt
flag -- under both metric modes, with ``stop_on_reject``, and with
``max_rounds`` cut short mid-schedule.  The sanitizer half checks that a
hook which lies about idleness is caught by ``sanitize=True``, where every
round still runs.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.congest import WAKE_NEVER, CongestNetwork, SanitizerViolation
from repro.congest.message import int_width
from repro.core.cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
)
from repro.core.even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    required_bandwidth,
)
from repro.core.triangle import NeighborExchangeTriangleDetection


class _EvenNoWake(EvenCycleIterationAlgorithm):
    wake_round = None


class _LinearNoWake(LinearCycleIterationAlgorithm):
    wake_round = None


class _VecLinearNoWake(VectorizedLinearCycle):
    wake_round = None


class _TriangleNoWake(NeighborExchangeTriangleDetection):
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


class _LyingTriangle(NeighborExchangeTriangleDetection):
    """Skips the grace-round halt: promises idle for the rest of the run."""

    def wake_round(self, node, r):
        chunks = node.state["chunks"]
        return r if r < len(chunks) else WAKE_NEVER


# -- graphs ----------------------------------------------------------------


def _planted(n: int, length: int, seed: int) -> nx.Graph:
    g = nx.gnp_random_graph(n, 1.5 / n, seed=seed)
    nx.add_cycle(g, list(range(0, 2 * length, 2)))
    return g


graphs = st.one_of(
    st.builds(
        lambda n, seed: nx.gnp_random_graph(n, 2.5 / n, seed=seed),
        st.integers(6, 24),
        st.integers(0, 10**6),
    ),
    # Dense: high-degree nodes, clogged queues and failed peeling.
    st.builds(
        nx.gnp_random_graph,
        st.integers(6, 28),
        st.floats(0.3, 1.0),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda a, b: nx.convert_node_labels_to_integers(nx.grid_2d_graph(a, b)),
        st.integers(2, 5),
        st.integers(2, 5),
    ),
    st.builds(
        _planted,
        st.integers(12, 24),
        st.sampled_from([3, 4, 5, 6]),
        st.integers(0, 10**6),
    ),
)

run_options = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**6),
        "metrics": st.sampled_from(["full", "lite"]),
        "stop_on_reject": st.booleans(),
        # None runs the whole schedule; a fraction cuts max_rounds short.
        "cut": st.one_of(st.none(), st.floats(0.05, 0.95)),
    }
)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- comparison ------------------------------------------------------------


def _observed(res):
    m = res.metrics
    out = {
        "decision": res.decision,
        "rounds": res.rounds,
        "node_decisions": res.node_decisions,
        "metrics": (
            m.rounds, m.total_bits, m.total_messages, m.max_message_bits,
            dict(m.round_bits.items()),
        ),
        "witnesses": {u: c.state.get("witness") for u, c in res.contexts.items()},
        "ctx_rounds": {u: c.round for u, c in res.contexts.items()},
        "halted": {u: c._halted for u, c in res.contexts.items()},
    }
    if m.mode == "full":
        out["ledger"] = (
            dict(m.edge_bits), dict(m.node_bits), dict(m.node_messages)
        )
    return out


def _assert_same(graph, bandwidth, hooked, plain, schedule_rounds, opts):
    max_rounds = schedule_rounds
    if opts["cut"] is not None:
        max_rounds = max(1, int(schedule_rounds * opts["cut"]))
    net = CongestNetwork(graph, bandwidth=bandwidth)
    kwargs = dict(
        max_rounds=max_rounds,
        seed=opts["seed"],
        stop_on_reject=opts["stop_on_reject"],
        metrics=opts["metrics"],
    )
    fast = net.run(hooked, **kwargs)
    full = net.run(plain, **kwargs)
    assert _observed(fast) == _observed(full)


# -- differential properties -----------------------------------------------


_FULL_RUN = {"seed": 0, "metrics": "full", "stop_on_reject": False, "cut": None}


class TestFastForwardIsInvisible:
    @_SETTINGS
    @given(graph=graphs, k=st.sampled_from([2, 3]), opts=run_options)
    # K_24 has |E| > M and degree 23 > tau: peeling stalls, and every node
    # rejects on the last peel step after a run of silent rounds.
    @example(graph=nx.complete_graph(24), k=2, opts=_FULL_RUN)
    def test_even_cycle(self, graph, k, opts):
        n = graph.number_of_nodes()
        sched = IterationSchedule.build(n, k)
        _assert_same(
            graph, required_bandwidth(n, k),
            EvenCycleIterationAlgorithm(k), _EvenNoWake(k),
            sched.total_rounds + 1, opts,
        )

    @_SETTINGS
    @given(
        graph=graphs,
        length=st.sampled_from([3, 4, 5, 6]),
        vectorized=st.booleans(),
        opts=run_options,
    )
    def test_linear_cycle(self, graph, length, vectorized, opts):
        n = graph.number_of_nodes()
        hooked, plain = (
            (VectorizedLinearCycle, _VecLinearNoWake)
            if vectorized
            else (LinearCycleIterationAlgorithm, _LinearNoWake)
        )
        _assert_same(
            graph, int_width(n) + int_width(length),
            hooked(length), plain(length), n + length + 2, opts,
        )

    @_SETTINGS
    @given(graph=graphs, ids_per_round=st.integers(1, 3), opts=run_options)
    def test_triangle(self, graph, ids_per_round, opts):
        n = graph.number_of_nodes()
        w = int_width(n)
        bandwidth = ids_per_round * w
        _assert_same(
            graph, bandwidth,
            NeighborExchangeTriangleDetection(), _TriangleNoWake(),
            math.ceil(n * w / bandwidth) + 3, opts,
        )


class TestSkipIsReal:
    def _round_calls(self, cls):
        calls = []

        class Counting(cls):
            def round(self, node, inbox):
                calls.append(node.round)
                return super().round(node, inbox)

        n = 48
        graph = nx.gnp_random_graph(n, 2.5 / n, seed=0)
        net = CongestNetwork(graph, bandwidth=required_bandwidth(n, 2))
        res = net.run(
            Counting(2),
            max_rounds=IterationSchedule.build(n, 2).total_rounds + 1,
            seed=0,
        )
        return len(calls), res

    def test_even_cycle_makes_under_5pct_of_the_round_calls(self):
        fast_calls, fast = self._round_calls(EvenCycleIterationAlgorithm)
        full_calls, full = self._round_calls(_EvenNoWake)
        assert fast.rounds == full.rounds
        assert fast_calls < 0.05 * full_calls, (fast_calls, full_calls)

    def test_faults_turn_the_skip_off(self):
        calls = {}
        for cls in (LinearCycleIterationAlgorithm, _LinearNoWake):
            seen = []

            class Counting(cls):
                def round(self, node, inbox):
                    seen.append(node.round)
                    return super().round(node, inbox)

            net = CongestNetwork(nx.cycle_graph(10), bandwidth=16)
            res = net.run(Counting(5), max_rounds=17, seed=3, faults="drop:0.3")
            calls[cls] = (len(seen), res.rounds)
        assert calls[LinearCycleIterationAlgorithm] == calls[_LinearNoWake]


# -- the sanitizer audits the promise ---------------------------------------


class TestSanitizerAuditsWakePromises:
    @pytest.mark.parametrize(
        "algo, bandwidth, max_rounds",
        [
            (EvenCycleIterationAlgorithm(2), required_bandwidth(12, 2),
             IterationSchedule.build(12, 2).total_rounds + 1),
            (LinearCycleIterationAlgorithm(4), 16, 18),
            (VectorizedLinearCycle(4), 16, 18),
            (NeighborExchangeTriangleDetection(), 8, 20),
        ],
        ids=["even-cycle", "linear-object", "linear-vectorized", "triangle"],
    )
    def test_honest_hooks_pass(self, algo, bandwidth, max_rounds):
        net = CongestNetwork(_planted(12, 4, seed=7), bandwidth=bandwidth)
        clean = net.run(algo, max_rounds=max_rounds, seed=1)
        audited = net.run(algo, max_rounds=max_rounds, seed=1, sanitize=True)
        assert _observed(audited) == _observed(clean)

    @pytest.mark.parametrize(
        "algo", [_LyingLinear(4), _LyingVecLinear(4)], ids=["object", "vectorized"]
    )
    def test_lying_linear_hook_is_caught(self, algo):
        # The liar sleeps through the deadline, where every node halts.
        net = CongestNetwork(nx.cycle_graph(8), bandwidth=16)
        with pytest.raises(SanitizerViolation) as exc:
            net.run(algo, max_rounds=14, seed=2, sanitize=True)
        assert exc.value.rule_id == "L3"
        assert "wake_round" in str(exc.value)

    def test_lying_triangle_hook_is_caught(self):
        net = CongestNetwork(nx.path_graph(6), bandwidth=8)
        with pytest.raises(SanitizerViolation) as exc:
            net.run(_LyingTriangle(), max_rounds=12, seed=None, sanitize=True)
        assert "halt flag" in str(exc.value) or "decision" in str(exc.value)

    def test_lying_hook_changes_the_fast_run(self):
        # Why the audit matters: without the sanitizer the liar's skip
        # silently changes the outcome.
        net = CongestNetwork(nx.path_graph(6), bandwidth=8)
        honest = net.run(NeighborExchangeTriangleDetection(), max_rounds=12, seed=None)
        lying = net.run(_LyingTriangle(), max_rounds=12, seed=None)
        assert _observed(lying) != _observed(honest)

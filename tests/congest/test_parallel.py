"""Tests for lite-mode metrics and the parallel amplification fan-out.

Two contracts are pinned here:

* ``metrics="lite"`` changes *what is recorded*, never *what happens*: the
  aggregate counters (rounds, total bits/messages, max message size) are
  bit-identical to a full-mode run, and the per-edge queries raise
  :class:`MetricsModeError` instead of silently returning nothing.
* ``run_amplified`` with any ``jobs`` reproduces the sequential
  stop-on-detect loop exactly: same decision, same first rejecting seed,
  same witness set, same per-iteration aggregates.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import (
    Algorithm,
    CongestNetwork,
    Message,
    MetricsModeError,
    broadcast,
    run_amplified,
)
from repro.core.even_cycle import detect_even_cycle
from repro.runtime import ExecutionPolicy, RunSession


class Gossip(Algorithm):
    """Deterministic chatter for ``rounds`` rounds with varying sizes."""

    name = "gossip"

    def __init__(self, rounds: int):
        self.rounds = rounds

    def is_quiescent(self, node) -> bool:
        return node.round >= self.rounds

    def round(self, node, inbox):
        if node.round >= self.rounds:
            return {}
        width = 1 + (node.id + node.round) % 4
        return broadcast(node, Message.of_bits("1" * width))


@dataclass(frozen=True)
class RejectAtIterations:
    """Picklable factory: iteration ``t`` rejects iff ``t`` is targeted."""

    targets: frozenset

    def __call__(self, iteration: int) -> Algorithm:
        return _MaybeReject(iteration in self.targets)


class _MaybeReject(Algorithm):
    name = "maybe-reject"

    def __init__(self, reject: bool):
        self.reject_flag = reject

    def round(self, node, inbox):
        if self.reject_flag and node.id == 0:
            node.reject()
            node.state["witness"] = ("it", node.id)
        else:
            node.accept()
        node.halt()
        return {}


class TestLiteMetrics:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n,p", [(12, 0.3), (24, 0.15), (40, 0.1)])
    def test_aggregates_identical_across_modes(self, n, p, seed):
        g = nx.gnp_random_graph(n, p, seed=seed)
        if g.number_of_edges() == 0:
            pytest.skip("empty graph")
        net = CongestNetwork(g, bandwidth=8)
        full = net.run(Gossip(5), max_rounds=20, seed=seed, metrics="full")
        lite = net.run(Gossip(5), max_rounds=20, seed=seed, metrics="lite")
        assert full.metrics.aggregate_summary() == lite.metrics.aggregate_summary()
        assert full.rounds == lite.rounds
        assert full.decision == lite.decision

    def test_lite_blocks_per_edge_queries(self):
        g = nx.path_graph(4)
        net = CongestNetwork(g, bandwidth=8)
        res = net.run(Gossip(2), max_rounds=10, metrics="lite")
        with pytest.raises(MetricsModeError):
            res.metrics.cut_bits({0, 1})
        with pytest.raises(MetricsModeError):
            res.metrics.max_bits_per_node()
        with pytest.raises(MetricsModeError):
            res.metrics.max_bits_per_edge()
        # Aggregates stay available, and the summary degrades gracefully.
        assert res.metrics.total_bits > 0
        assert "max_bits_per_node" not in res.metrics.summary()

    def test_unknown_mode_rejected(self):
        g = nx.path_graph(2)
        net = CongestNetwork(g, bandwidth=8)
        with pytest.raises(ValueError):
            net.run(Gossip(1), max_rounds=5, metrics="medium")


class TestRunAmplified:
    def test_first_rejecting_seed_wins(self):
        g = nx.path_graph(3)
        amp = run_amplified(
            g,
            RejectAtIterations(frozenset({3, 6})),
            iterations=10,
            jobs=4,
            bandwidth=8,
            max_rounds=4,
        )
        assert amp.rejected
        assert amp.first_reject == 3
        assert amp.iterations_run == 4
        assert [o.index for o in amp.outcomes] == [0, 1, 2, 3]
        assert amp.witnesses == [("it", 0)]

    def test_jobs_invariance_on_accept(self):
        g = nx.path_graph(3)
        runs = [
            run_amplified(
                g,
                RejectAtIterations(frozenset()),
                iterations=9,
                jobs=jobs,
                bandwidth=8,
                max_rounds=4,
            )
            for jobs in (1, 2, 4)
        ]
        assert all(not amp.rejected for amp in runs)
        assert all(amp.iterations_run == 9 for amp in runs)
        base = [(o.index, o.total_bits, o.rounds) for o in runs[0].outcomes]
        for amp in runs[1:]:
            assert [(o.index, o.total_bits, o.rounds) for o in amp.outcomes] == base

    def test_parallel_even_cycle_matches_sequential(self):
        g = nx.gnp_random_graph(36, 0.12, seed=5)
        seq = detect_even_cycle(
            g, 2, iterations=8, seed=0,
            session=RunSession(ExecutionPolicy(metrics="full"), owns_pools=False),
        )
        for jobs in (2, 4):
            par = detect_even_cycle(
                g, 2, iterations=8, seed=0,
                session=RunSession(
                    ExecutionPolicy(jobs=jobs, metrics="lite"), owns_pools=False
                ),
            )
            assert par.detected == seq.detected
            assert par.iterations_run == seq.iterations_run
            assert sorted(par.witnesses) == sorted(seq.witnesses)
            assert par.total_bits == seq.total_bits
            assert par.total_messages == seq.total_messages

    def test_parallel_accept_case_matches_sequential(self):
        # An odd cycle is C_4-free: every iteration runs, nothing rejects.
        g = nx.cycle_graph(21)
        seq = detect_even_cycle(
            g, 2, iterations=3, seed=2,
            session=RunSession(ExecutionPolicy(metrics="full"), owns_pools=False),
        )
        par = detect_even_cycle(
            g, 2, iterations=3, seed=2,
            session=RunSession(ExecutionPolicy(jobs=3, metrics="lite"), owns_pools=False),
        )
        assert not seq.detected and not par.detected
        assert par.iterations_run == seq.iterations_run == 3
        assert par.total_bits == seq.total_bits

    def test_input_validation(self):
        g = nx.path_graph(2)
        factory = RejectAtIterations(frozenset())
        with pytest.raises(ValueError):
            run_amplified(g, factory, iterations=0, bandwidth=8, max_rounds=2)
        with pytest.raises(ValueError):
            run_amplified(
                g, factory, iterations=2, jobs=0, bandwidth=8, max_rounds=2
            )


class TestPersistentPool:
    """The worker pool persists across calls and shuts down cleanly."""

    def test_pool_reused_across_calls(self):
        from repro.congest import parallel as par

        g = nx.path_graph(3)
        factory = RejectAtIterations(frozenset())
        run_amplified(g, factory, iterations=4, jobs=2, bandwidth=8, max_rounds=4)
        pool = par._POOLS.get(2)
        assert pool is not None
        run_amplified(g, factory, iterations=4, jobs=2, bandwidth=8, max_rounds=4)
        assert par._POOLS.get(2) is pool

    def test_shutdown_pools_idempotent(self):
        from repro.congest import parallel as par
        from repro.congest import shutdown_pools

        g = nx.path_graph(3)
        factory = RejectAtIterations(frozenset())
        run_amplified(g, factory, iterations=2, jobs=2, bandwidth=8, max_rounds=4)
        assert par._POOLS
        shutdown_pools()
        assert not par._POOLS
        shutdown_pools()  # idempotent: must not raise
        # and a later amplified run transparently builds a fresh pool
        amp = run_amplified(
            g, factory, iterations=2, jobs=2, bandwidth=8, max_rounds=4
        )
        assert amp.iterations_run == 2


_EXIT_SCRIPT = """
import networkx as nx
from repro.core.cycle_detection_linear import detect_cycle_linear
from repro.runtime import ExecutionPolicy, RunSession

ses = RunSession(ExecutionPolicy.from_spec("jobs=2,metrics=lite"))
rep = detect_cycle_linear(nx.grid_2d_graph(6, 6), 5, iterations=4, session=ses)
assert not rep.detected
ses.close()
"""

# A session that does not own the pools (like the implicit one a
# detector builds for session=None) and is never closed, so only the
# atexit hooks tear the pools down.
_IMPLICIT_EXIT_SCRIPT = """
import networkx as nx
from repro.core.cycle_detection_linear import detect_cycle_linear
from repro.runtime import ExecutionPolicy, RunSession

ses = RunSession(ExecutionPolicy(jobs=2, metrics="lite"), owns_pools=False)
rep = detect_cycle_linear(nx.grid_2d_graph(6, 6), 5, iterations=4, session=ses)
assert not rep.detected
"""


class TestCleanInterpreterExit:
    """Exiting right after an amplified run must not race the pool's
    manager thread: CPython's exit hook used to write to a wakeup pipe
    the thread had already closed (``OSError: [Errno 9]``)."""

    @pytest.mark.parametrize(
        "script", [_EXIT_SCRIPT, _IMPLICIT_EXIT_SCRIPT],
        ids=["session-close", "implicit-session-atexit"],
    )
    def test_exit_after_amplified_run_prints_nothing(self, script):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(4):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""

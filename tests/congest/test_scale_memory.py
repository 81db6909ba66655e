"""Memory-model regressions at scale: streaming ledger and lite guards.

Lite mode must never materialize ``O(n * rounds)`` (or ``O(edges)``)
metric state.  Three layers pin that:

* :class:`RoundLedger` keeps a bounded ring of recent rounds plus exact
  aggregates; reads of evicted rounds raise :class:`MetricsModeError`;
* :class:`LiteLedgerGuard` replaces the per-edge / per-node dictionaries
  under lite, so *any* access trips loudly instead of silently costing
  gigabytes at ``n ~ 10^5``;
* the end-to-end guard: a 100k-node lite run's traced allocations stay
  bounded (the full per-edge ledger alone would dwarf the budget), and
  its CPU time grows with ``n`` without a quadratic term.
"""

import tracemalloc

import networkx as nx
import pytest

from repro.congest import (
    DEFAULT_ROUND_WINDOW,
    CommMetrics,
    CongestNetwork,
    LiteLedgerGuard,
    MetricsModeError,
    RoundLedger,
)
from repro.congest.message import int_width
from repro.core.broadcast_accumulate import (
    BroadcastAccumulate,
    VectorizedBroadcastAccumulate,
)
from repro.core.cycle_detection_linear import VectorizedLinearCycle


def ring_lattice_net(n):
    """Degree-4 ring lattice with its CSR built: edges grow linearly."""
    net = CongestNetwork(nx.watts_strogatz_graph(n, 4, 0, seed=0), bandwidth=31)
    net.edge_index()  # CSR construction is not what these tests bound
    return net


@pytest.fixture(scope="module")
def net_100k():
    return ring_lattice_net(100_000)


class TestRoundLedger:
    def test_retained_rounds_read_back_exactly(self):
        led = RoundLedger(window=8)
        for r in range(8):
            led[r] += 10 * r
        assert led[3] == 30
        assert led == {r: 10 * r for r in range(8)}
        assert len(led) == 8

    def test_eviction_keeps_window_and_trips_on_old_reads(self):
        led = RoundLedger(window=4)
        for r in range(10):
            led[r] = r
        assert len(led) == 4
        assert led[9] == 9 and led[6] == 6
        with pytest.raises(MetricsModeError, match="window"):
            led[2]
        with pytest.raises(MetricsModeError):
            led.get(0)

    def test_missing_retained_round_is_zero(self):
        led = RoundLedger(window=4)
        led[5] = 7
        assert led[6] == 0  # newer than anything evicted: a silent round

    def test_default_window(self):
        assert RoundLedger().window == DEFAULT_ROUND_WINDOW


class TestLiteLedgerGuard:
    def test_any_access_trips_with_field_name(self):
        g = LiteLedgerGuard("edge_bits")
        with pytest.raises(MetricsModeError, match="edge_bits"):
            g[(0, 1)]
        with pytest.raises(MetricsModeError):
            g.items()
        with pytest.raises(MetricsModeError):
            list(g)
        assert not g
        assert len(g) == 0

    def test_lite_metrics_carry_guards(self):
        m = CommMetrics(mode="lite")
        assert isinstance(m.edge_bits, LiteLedgerGuard)
        assert isinstance(m.node_bits, LiteLedgerGuard)
        assert isinstance(m.node_messages, LiteLedgerGuard)
        assert isinstance(m.round_bits, RoundLedger)

    def test_lite_construction_rejects_populated_full_ledger(self):
        with pytest.raises(MetricsModeError):
            CommMetrics(mode="lite", edge_bits={(0, 1): 8})


class TestScaleMemoryGuard:
    def test_100k_node_lite_run_is_memory_bounded(self, net_100k):
        """The n=10^5 regression: lite peak stays far below O(n*rounds).

        A full per-edge ledger at 400k directed edges costs hundreds of
        MB of dict overhead alone; the streaming lite path peaks under
        ~50MB of traced allocations for the same run.  The 128MB budget
        leaves headroom for allocator noise without ever letting a
        quadratic ledger back in.
        """
        n = 100_000
        rounds = 8
        net = net_100k
        net.run(
            VectorizedBroadcastAccumulate(2), max_rounds=4, seed=0, metrics="lite"
        )  # warm caches so the traced window sees steady state
        tracemalloc.start()
        try:
            res = net.run(
                VectorizedBroadcastAccumulate(rounds),
                max_rounds=rounds + 2,
                seed=0,
                metrics="lite",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.rounds == rounds
        assert peak < 128 * 1024 * 1024, f"lite peak {peak/1e6:.0f}MB over budget"
        assert isinstance(res.metrics.edge_bits, LiteLedgerGuard)
        with pytest.raises(MetricsModeError):
            res.metrics.edge_bits[(0, 1)]
        assert res.metrics.total_messages == rounds * 4 * n

    def test_fused_cpu_growth_is_not_quadratic(self, net_100k, cpu_best_of_3):
        """32x more nodes (and edges) must cost well under 32^2: the
        guard allows 4x over linear, since per-run overhead can only
        make the ratio sublinear."""
        def fused_cpu(net):
            return cpu_best_of_3(lambda: net.run(
                VectorizedBroadcastAccumulate(8), max_rounds=10, seed=0,
                metrics="lite",
            ))[0]

        node_ratio = 32
        t_lo = fused_cpu(ring_lattice_net(100_000 // node_ratio))
        t_hi = fused_cpu(net_100k)
        assert t_hi / max(t_lo, 1e-9) < 4 * node_ratio, (t_lo, t_hi)

    def test_vectorized_linear_cycle_seen_set_is_sparse(self):
        """The BFS dedup set grows with the tokens delivered, not as a
        dense (n, n, ell) mask: 84 MB at n = 4096, ~50 GB at n = 10^5."""
        g = nx.grid_2d_graph(64, 64)
        n = g.number_of_nodes()
        net = CongestNetwork(g, bandwidth=int_width(n) + int_width(5))
        net.edge_index()
        net.run(VectorizedLinearCycle(5), max_rounds=4, seed=0, metrics="lite")
        tracemalloc.start()
        try:
            res = net.run(
                VectorizedLinearCycle(5), max_rounds=n + 7, seed=1, metrics="lite"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not res.rejected  # a grid is bipartite: no C5
        assert peak < 32 * 1024 * 1024, f"peak {peak/1e6:.0f}MB over budget"

    def test_lanes_agree_at_scale_sample(self):
        """Spot parity between the lanes on a slice of the big instance:
        the object lane can't run 10^5 nodes in test budget, so compare
        on the same topology at a sampled size."""
        n = 2048
        g = nx.watts_strogatz_graph(n, 4, 0, seed=0)
        net = CongestNetwork(g, bandwidth=31)
        a = net.run(BroadcastAccumulate(8), max_rounds=12, seed=0, metrics="lite")
        b = net.run(
            VectorizedBroadcastAccumulate(8), max_rounds=12, seed=0, metrics="lite"
        )
        assert a.decision == b.decision
        assert a.node_decisions == b.node_decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.round_bits == b.metrics.round_bits

"""Property tests for the Theorem 1.1 schedule and message accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import CongestNetwork
from repro.congest.message import int_width
from repro.core.color_coding import OracleColorSource, proper_coloring_for_cycle
from repro.core.even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    detect_even_cycle,
    required_bandwidth,
)
from repro.graphs import generators as gen


class TestScheduleProperties:
    @given(
        st.integers(min_value=2, max_value=2**16),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=100)
    def test_phases_tile_the_round_line(self, n, k):
        s = IterationSchedule.build(n, k)
        assert 0 < s.phase_bfs_start <= s.phase_bfs_end
        assert s.phase_bfs_end == s.phase_peel_start <= s.phase_peel_end
        assert s.phase_peel_end == s.phase_prefix_start <= s.phase_prefix_end
        assert s.total_rounds == s.phase_prefix_end + 1

    @given(
        st.integers(min_value=4, max_value=2**14),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=80)
    def test_schedule_monotone_in_n(self, n, k):
        a = IterationSchedule.build(n, k)
        b = IterationSchedule.build(2 * n, k)
        assert b.total_rounds >= a.total_rounds
        assert b.edge_budget >= a.edge_budget
        assert b.tau >= a.tau

    @given(
        st.integers(min_value=16, max_value=2**14),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=60)
    def test_budget_constant_scales_budget(self, n, k, c):
        base = IterationSchedule.build(n, k, 1.0)
        scaled = IterationSchedule.build(n, k, c)
        if c >= 1:
            assert scaled.edge_budget >= base.edge_budget
        else:
            assert scaled.edge_budget <= base.edge_budget

    @given(st.integers(min_value=2, max_value=2**12))
    def test_peel_steps_logarithmic(self, n):
        s = IterationSchedule.build(n, 2)
        assert s.peel_steps == max(1, math.ceil(math.log2(n))) + 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            IterationSchedule.build(1, 2)
        with pytest.raises(ValueError):
            IterationSchedule.build(10, 1)


class TestBandwidthAccounting:
    @given(
        st.integers(min_value=4, max_value=4096),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60)
    def test_required_bandwidth_covers_2k_ids(self, n, k):
        b = required_bandwidth(n, k)
        assert b >= 2 * k * int_width(n)

    def test_max_message_fits_required_bandwidth(self):
        """The largest message in a real run never exceeds the declared
        requirement (so required_bandwidth is an honest contract)."""
        g, verts = gen.planted_cycle_graph(30, 4, 0.05, np.random.default_rng(0))
        best = max(range(4), key=lambda i: g.degree(verts[i]))
        rot = verts[best:] + verts[:best]
        src = OracleColorSource(2, proper_coloring_for_cycle(rot, 2), default=3)
        bandwidth = required_bandwidth(30, 2)
        res = CongestNetwork(g, bandwidth=bandwidth).run(
            EvenCycleIterationAlgorithm(2, color_source=src),
            max_rounds=IterationSchedule.build(30, 2).total_rounds + 1,
        )
        assert res.metrics.max_message_bits <= bandwidth

    def test_messages_scale_with_k(self):
        assert required_bandwidth(1000, 4) > required_bandwidth(1000, 2)


class TestWitnessSemantics:
    def test_phase1_witness_on_high_degree_cycle(self):
        """A C_6 of high-degree nodes (k=3 threshold sqrt(n)) must be
        caught by Phase I and labelled as such."""
        import networkx as nx

        g = nx.Graph()
        six = list(range(6))
        for i in range(6):
            g.add_edge(six[i], six[(i + 1) % 6])
        nxt = 6
        for v in six:
            for _ in range(12):
                g.add_edge(v, nxt)
                nxt += 1
        src = OracleColorSource(3, proper_coloring_for_cycle(six, 3), default=5)
        rep = detect_even_cycle(g, 3, iterations=1, color_source=src)
        assert rep.detected
        kinds = {w[0] for w in rep.witnesses if w}
        assert "phase1-cycle" in kinds

    def test_phase2_witness_on_low_degree_cycle(self):
        g, verts = gen.planted_cycle_graph(30, 4, 0.02, np.random.default_rng(3))
        best = max(range(4), key=lambda i: g.degree(verts[i]))
        rot = verts[best:] + verts[:best]
        src = OracleColorSource(2, proper_coloring_for_cycle(rot, 2), default=3)
        rep = detect_even_cycle(g, 2, iterations=1, color_source=src)
        assert rep.detected
        kinds = {w[0] for w in rep.witnesses if w}
        assert "phase2-cycle" in kinds

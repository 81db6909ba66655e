"""Cross-module integration tests.

These pit independent implementations against each other on shared random
instances: distributed detectors vs the centralized isomorphism engine,
the joint two-party simulation vs the global engine, the broadcast model vs
unicast CONGEST, analytical bounds vs executed algorithms.  A disagreement
anywhere is a bug in exactly one place -- that is the point.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import BroadcastNetwork, CongestNetwork, Decision
from repro.core import (
    detect_clique,
    detect_cycle_linear,
    detect_even_cycle,
    detect_subgraph_local,
    detect_tree,
    detect_triangle_congest,
    list_cliques_congested_clique,
)
from repro.core.color_coding import OracleColorSource, proper_coloring_for_cycle
from repro.graphs import generators as gen
from repro.graphs.subgraph_iso import contains_subgraph, count_copies
from repro.theory.counting import (
    count_cliques,
    count_cycles_of_length,
    count_triangles_matrix,
)


class TestDetectorsAgreeWithGroundTruth:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=12, deadline=None)
    def test_triangle_three_ways(self, seed):
        """Neighbor-exchange CONGEST, LOCAL ball collection, matrix count,
        clique enumeration, and the iso engine must all agree."""
        g = gen.erdos_renyi(16, 0.22, np.random.default_rng(seed))
        truth = contains_subgraph(gen.clique(3), g)
        assert (count_triangles_matrix(g) > 0) == truth
        assert (count_cliques(g, 3) > 0) == truth
        assert detect_triangle_congest(g, bandwidth=16).rejected == truth
        assert detect_subgraph_local(g, gen.clique(3)).detected == truth

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_k4_two_ways(self, seed):
        g = gen.erdos_renyi(14, 0.45, np.random.default_rng(seed))
        truth = count_cliques(g, 4) > 0
        assert detect_clique(g, 4, bandwidth=8).rejected == truth
        assert detect_subgraph_local(g, gen.clique(4)).detected == truth

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_even_cycle_soundness_vs_truth(self, seed):
        """Theorem 1.1 rejection always implies a C_4 exists (sparse
        instances, so the |E|>M escape hatch cannot mask anything)."""
        g = gen.erdos_renyi(20, 0.08, np.random.default_rng(seed))
        rep = detect_even_cycle(g, 2, iterations=40, seed=seed)
        if rep.detected:
            assert count_cycles_of_length(g, 4) > 0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_even_cycle_completeness_with_oracle(self, seed):
        """With a planted proper coloring, detection is deterministic."""
        rng = np.random.default_rng(seed)
        g, verts = gen.planted_cycle_graph(24, 4, 0.02, rng)
        best = max(range(4), key=lambda i: g.degree(verts[i]))
        rot = verts[best:] + verts[:best]
        src = OracleColorSource(2, proper_coloring_for_cycle(rot, 2), default=3)
        assert detect_even_cycle(g, 2, iterations=1, color_source=src).detected

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=6, deadline=None)
    def test_listing_equals_counting(self, seed):
        g = gen.erdos_renyi(14, 0.5, np.random.default_rng(seed))
        res = list_cliques_congested_clique(g, 3, bandwidth=48)
        assert res.count == count_cliques(g, 3) == count_copies(gen.clique(3), g)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=6, deadline=None)
    def test_tree_detection_soundness(self, seed):
        g = gen.erdos_renyi(12, 0.15, np.random.default_rng(seed))
        pat = gen.path(4)
        rep = detect_tree(g, pat, iterations=40, seed=seed)
        if rep.detected:
            assert contains_subgraph(pat, g)


class TestModelRelationships:
    def test_broadcast_run_matches_unicast_for_broadcast_algorithms(self):
        """An algorithm that only broadcasts produces identical executions
        in both models (the broadcast model is a restriction, not a
        different semantics)."""
        from repro.core.cycle_detection_linear import LinearCycleIterationAlgorithm

        g, verts = gen.planted_cycle_graph(18, 4, 0.0, np.random.default_rng(0))
        colors = {v: i for i, v in enumerate(verts)}
        uni = CongestNetwork(g, bandwidth=16).run(
            LinearCycleIterationAlgorithm(4, color_map=colors), max_rounds=30
        )
        bro = BroadcastNetwork(g, bandwidth=16).run(
            LinearCycleIterationAlgorithm(4, color_map=colors), max_rounds=30
        )
        assert uni.decision == bro.decision
        assert uni.metrics.total_bits == bro.metrics.total_bits
        assert uni.rounds == bro.rounds

    def test_local_dominates_congest_in_rounds(self):
        """On the same instance, LOCAL detection uses no more rounds than
        any of our CONGEST detectors (it trades bandwidth for rounds)."""
        g = gen.erdos_renyi(20, 0.3, np.random.default_rng(4))
        local = detect_subgraph_local(g, gen.clique(3))
        congest = detect_triangle_congest(g, bandwidth=8)
        assert local.detected == congest.rejected
        assert local.rounds <= max(congest.rounds, 3)

    def test_congest_bandwidth_rounds_tradeoff(self):
        """Same algorithm, same graph: halving B cannot reduce rounds.

        (Uses the clique detector, whose schedule is deterministic in B.)"""
        g = gen.disjoint_union_all([gen.clique(5), gen.path(40)])
        rounds = {}
        for b in (2, 4, 8, 16):
            rounds[b] = detect_clique(g, 5, bandwidth=b).rounds
        assert rounds[2] >= rounds[4] >= rounds[8] >= rounds[16]

    def test_amplification_improves_detection(self):
        """More color-coding iterations can only help detection (monotone
        amplification), and iteration counts are honest."""
        g = gen.grid(4, 4)
        few = detect_even_cycle(g, 2, iterations=2, seed=3, stop_on_detect=False)
        many = detect_even_cycle(g, 2, iterations=40, seed=3, stop_on_detect=False)
        assert many.iterations_run == 40 and few.iterations_run == 2
        if few.detected:
            assert many.detected


class TestBoundsMatchExecutions:
    def test_even_cycle_schedule_is_what_the_engine_runs(self):
        """The analytic schedule and the simulator agree on round counts."""
        from repro.core.even_cycle import (
            EvenCycleIterationAlgorithm,
            IterationSchedule,
            required_bandwidth,
        )

        g = gen.cycle(32)
        rep = detect_even_cycle(g, 2, iterations=1, seed=0, stop_on_detect=False)
        sched = IterationSchedule.build(32, 2)
        assert rep.rounds_per_iteration == sched.total_rounds
        res = CongestNetwork(g, bandwidth=required_bandwidth(32, 2)).run(
            EvenCycleIterationAlgorithm(2), max_rounds=sched.total_rounds + 1, seed=0
        )
        assert res.rounds <= sched.total_rounds + 1

    def test_funnel_rounds_within_analytic_cap(self):
        from repro.congest.message import int_width
        from repro.lowerbounds.superlinear import run_reduction

        n, b = 6, 16
        x = [(i, j) for i in range(n) for j in range(n)]
        r = run_reduction(2, n, x, [(0, 0)], bandwidth=b)
        w2 = 2 * int_width(n) + 1
        cap = 20 + 2 * (n * n + n) * w2 // b + 2 * n
        assert r.rounds <= cap

    def test_lemma_1_3_bound_not_violated_by_listing(self):
        g = gen.erdos_renyi(18, 0.6, np.random.default_rng(1))
        from repro.theory.counting import lemma_1_3_bound

        res = list_cliques_congested_clique(g, 3, bandwidth=64)
        assert res.count <= lemma_1_3_bound(g.number_of_edges(), 3)

"""Tests for the baseline detectors: linear cycle, trees, cliques, LOCAL,
and congested-clique listing -- each cross-checked against the iso engine
or exact counters."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    detect_clique,
    detect_cycle_linear,
    detect_subgraph_local,
    detect_tree,
    list_cliques_congested_clique,
)
from repro.core.cycle_detection_linear import linear_success_probability
from repro.core.tree_detection import RootedTree
from repro.graphs import generators as gen
from repro.runtime.policy import seeds_for_confidence
from repro.graphs.subgraph_iso import contains_subgraph
from repro.theory.counting import count_cliques, count_cycles_of_length


class TestLinearCycleDetection:
    def test_planted_odd_cycle(self):
        g, verts = gen.planted_cycle_graph(25, 5, 0.02, np.random.default_rng(7))
        colors = {v: i for i, v in enumerate(verts)}
        rep = detect_cycle_linear(g, 5, iterations=1, color_map=colors)
        assert rep.detected

    def test_planted_even_cycle(self):
        g, verts = gen.planted_cycle_graph(30, 6, 0.02, np.random.default_rng(3))
        colors = {v: i for i, v in enumerate(verts)}
        rep = detect_cycle_linear(g, 6, iterations=1, color_map=colors)
        assert rep.detected

    def test_no_false_positive_on_trees(self):
        t = gen.random_tree(30, np.random.default_rng(1))
        for length in (3, 4, 5):
            assert not detect_cycle_linear(t, length, iterations=10).detected

    def test_c3_not_reported_for_c5_search(self):
        g = gen.cycle(3)
        rep = detect_cycle_linear(g, 5, iterations=20)
        assert not rep.detected

    def test_rounds_linear_in_n(self):
        for n in (10, 40, 160):
            rep = detect_cycle_linear(gen.cycle(4, label=f"c{n}"), 4, iterations=1)
            # The schedule is n + length + 2.
            assert rep.rounds_per_iteration <= 4 + 4 + 2 + (n - 4)

    def test_amplified_triangle(self):
        # length 3: success 1/27 per iteration; 150 iterations ~ 99.6%.
        g = gen.clique(5)
        rep = detect_cycle_linear(g, 3, iterations=150, seed=0)
        assert rep.detected

    def test_iteration_formula(self):
        # Per-iteration success l^(-l) = 1/27, sized by the one seed-count
        # formula: (26/27)^t <= 1/3 first holds at t = 30.
        p = linear_success_probability(3)
        assert p == 1 / 27
        assert seeds_for_confidence(2 / 3, p) == math.ceil(math.log(3.0) * 27)
        with pytest.raises(ValueError):
            linear_success_probability(2)


class TestTreeDetection:
    def test_path_detection(self):
        host = gen.cycle(9)
        assert detect_tree(host, gen.path(4), iterations=80, seed=0).detected

    def test_star_detection(self):
        host = nx.star_graph(6)
        star4 = nx.star_graph(3)  # K_{1,3}
        assert detect_tree(host, star4, iterations=80, seed=0).detected

    def test_star_absent_in_cycle(self):
        assert not detect_tree(gen.cycle(10), nx.star_graph(3), iterations=40).detected

    def test_path_longer_than_host(self):
        assert not detect_tree(gen.path(3), gen.path(5), iterations=40).detected

    def test_spider_in_grid(self):
        spider = nx.Graph([(0, 1), (0, 2), (0, 3), (3, 4)])
        assert detect_tree(gen.grid(3, 3), spider, iterations=300, seed=1).detected

    def test_rounds_constant_in_n(self):
        """O(1) rounds: the round count depends only on the pattern depth."""
        pat = gen.path(4)
        r_small = detect_tree(gen.cycle(8), pat, iterations=1, stop_on_detect=False)
        r_large = detect_tree(gen.cycle(64), pat, iterations=1, stop_on_detect=False)
        assert r_small.rounds_per_iteration == r_large.rounds_per_iteration

    def test_rejects_non_tree_pattern(self):
        with pytest.raises(ValueError):
            RootedTree.from_graph(gen.cycle(4))

    def test_rejects_forest_pattern(self):
        f = nx.Graph()
        f.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            RootedTree.from_graph(f)

    def test_rooted_tree_structure(self):
        rt = RootedTree.from_graph(gen.path(5))
        assert rt.t == 5
        assert rt.size[rt.root] == 5
        # Post-order: every child precedes its parent.
        pos = {u: i for i, u in enumerate(rt.order)}
        for u in rt.order:
            for c in rt.children[u]:
                assert pos[c] < pos[u]

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_soundness_random_hosts(self, seed):
        """Rejection implies the tree is really there (cross-check iso)."""
        rng = np.random.default_rng(seed)
        host = gen.erdos_renyi(12, 0.15, rng)
        pat = gen.path(4)
        rep = detect_tree(host, pat, iterations=30, seed=seed)
        if rep.detected:
            assert contains_subgraph(pat, host)


class TestCliqueDetection:
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_agrees_with_truth_on_random(self, s):
        for seed in range(3):
            g = gen.erdos_renyi(18, 0.5, np.random.default_rng(seed))
            truth = count_cliques(g, s) > 0
            res = detect_clique(g, s, bandwidth=8)
            assert res.rejected == truth

    def test_bipartite_no_triangle(self):
        assert not detect_clique(gen.complete_bipartite(6, 6), 3, bandwidth=4).rejected

    def test_k2_is_any_edge(self):
        assert detect_clique(gen.path(2), 2, bandwidth=4).rejected
        g = nx.Graph()
        g.add_nodes_from(range(3))
        assert not detect_clique(g, 2, bandwidth=4).rejected

    def test_rounds_scale_with_n_over_b(self):
        n, b = 60, 4
        g = gen.clique(6, label="K")
        g = gen.disjoint_union_all([g, gen.path(n - 6)])
        res = detect_clique(g, 6, bandwidth=b)
        assert res.rejected
        assert res.rounds >= math.ceil(n / b)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            detect_clique(gen.clique(3), 1, bandwidth=4)


class TestLocalDetection:
    def test_c4_in_grid(self):
        res = detect_subgraph_local(gen.grid(4, 4), gen.cycle(4))
        assert res.detected
        assert res.rounds <= 4
        assert res.witness_node is not None

    def test_absent_pattern(self):
        res = detect_subgraph_local(gen.random_tree(15, np.random.default_rng(0)), gen.cycle(4))
        assert not res.detected

    def test_rounds_independent_of_n(self):
        pat = gen.clique(3)
        r1 = detect_subgraph_local(gen.cycle(9), pat)
        r2 = detect_subgraph_local(gen.cycle(90), pat)
        assert r1.rounds == r2.rounds <= 3

    def test_message_blowup_recorded(self):
        """LOCAL messages carry whole balls: max message size must grow
        with density -- the quantity E6 contrasts with CONGEST's B."""
        res = detect_subgraph_local(gen.clique(12), gen.clique(3))
        assert res.detected
        assert res.max_message_bits > 12 * 8

    def test_empty_pattern_trivially_present(self):
        res = detect_subgraph_local(gen.cycle(4), nx.Graph())
        assert res.detected

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_agrees_with_iso_engine(self, seed):
        rng = np.random.default_rng(seed)
        host = gen.erdos_renyi(12, 0.3, rng)
        pat = gen.cycle(5)
        res = detect_subgraph_local(host, pat)
        assert res.detected == contains_subgraph(pat, host)


class TestCongestedCliqueListing:
    @pytest.mark.parametrize("s", [3, 4])
    def test_exact_listing_random(self, s):
        g = gen.erdos_renyi(16, 0.4, np.random.default_rng(3))
        res = list_cliques_congested_clique(g, s, bandwidth=32)
        assert res.count == count_cliques(g, s)
        for c in res.cliques:
            assert all(g.has_edge(c[i], c[j]) for i in range(s) for j in range(i + 1, s))

    def test_listing_on_clique(self):
        g = gen.clique(9)
        g = nx.relabel_nodes(g, {("K", i): i for i in range(9)})
        res = list_cliques_congested_clique(g, 3, bandwidth=64)
        assert res.count == math.comb(9, 3)

    def test_empty_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(8))
        res = list_cliques_congested_clique(g, 3, bandwidth=16)
        assert res.count == 0

    def test_each_clique_listed_once(self):
        # The run itself asserts no double-listing; this exercises it on a
        # dense instance where many tuples overlap.
        g = gen.erdos_renyi(20, 0.6, np.random.default_rng(0))
        res = list_cliques_congested_clique(g, 3, bandwidth=64)
        assert res.count == count_cliques(g, 3)

    def test_bandwidth_affects_rounds(self):
        g = gen.erdos_renyi(20, 0.5, np.random.default_rng(1))
        fast = list_cliques_congested_clique(g, 3, bandwidth=128)
        slow = list_cliques_congested_clique(g, 3, bandwidth=16)
        assert slow.rounds >= fast.rounds
        assert slow.count == fast.count

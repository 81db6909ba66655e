"""Tests for the one-call dispatcher (pattern classification + routing)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import DetectOutcome, classify_pattern, detect
from repro.graphs import generators as gen
from repro.graphs.subgraph_iso import contains_subgraph


class TestClassifier:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: nx.Graph(), "empty"),
            (lambda: nx.empty_graph(3), "empty"),
            (lambda: nx.path_graph(2), "edge"),
            (lambda: gen.path(5), "tree"),
            (lambda: nx.star_graph(4), "tree"),
            (lambda: gen.clique(3), "triangle"),
            (lambda: gen.clique(5), "clique"),
            (lambda: gen.cycle(4), "even-cycle"),
            (lambda: gen.cycle(6), "even-cycle"),
            (lambda: gen.cycle(5), "odd-cycle"),
            (lambda: gen.theta_graph([2, 2]), "even-cycle"),  # theta(2,2) IS C_4
            (lambda: gen.theta_graph([2, 3]), "odd-cycle"),  # theta(2,3) IS C_5
            (lambda: gen.theta_graph([2, 2, 2]), "general"),
            (lambda: gen.complete_bipartite(2, 2), "even-cycle"),  # K_2,2 IS C_4
            (lambda: gen.complete_bipartite(2, 3), "general"),
            (lambda: gen.grid(2, 3), "general"),
        ],
    )
    def test_classification(self, builder, expected):
        assert classify_pattern(builder()) == expected

    def test_forest_is_general_not_tree(self):
        f = nx.Graph()
        f.add_edges_from([(0, 1), (2, 3)])
        # Disconnected acyclic: not handled by the rooted-tree DP.
        assert classify_pattern(f) == "general"


class TestDispatch:
    def test_tree_route(self):
        out = detect(gen.cycle(9), gen.path(4), seed=1)
        assert out.pattern_class == "tree"
        assert out.model == "CONGEST"
        assert out.detected

    def test_triangle_route(self):
        out = detect(gen.clique(4), gen.clique(3))
        assert out.pattern_class == "triangle"
        assert out.detected
        assert out.miss_probability == 0.0  # deterministic

    def test_clique_route(self):
        out = detect(gen.clique(6), gen.clique(5))
        assert out.pattern_class == "clique" and out.detected

    def test_even_cycle_route(self):
        out = detect(gen.grid(4, 4), gen.cycle(4), seed=2, max_iterations=400)
        assert out.pattern_class == "even-cycle"
        assert out.algorithm.startswith("Theorem 1.1")
        assert out.detected

    def test_odd_cycle_route(self):
        out = detect(gen.clique(5), gen.cycle(5), seed=0, max_iterations=4000)
        assert out.pattern_class == "odd-cycle"
        assert out.detected

    def test_general_route_uses_local_and_says_so(self):
        pat = gen.theta_graph([2, 2, 2])  # K_{2,3}-shaped: genuinely general
        out = detect(gen.grid(3, 3), pat)
        assert out.pattern_class == "general"
        assert out.model == "LOCAL"
        assert "Theorem 1.2" in out.algorithm
        assert out.detected == contains_subgraph(pat, gen.grid(3, 3))

    def test_edge_and_empty(self):
        assert detect(gen.path(3), nx.path_graph(2)).detected
        g_edgeless = nx.empty_graph(4)
        assert not detect(g_edgeless, nx.path_graph(2)).detected
        assert detect(g_edgeless, nx.empty_graph(2)).detected

    def test_negative_controls(self):
        tree = gen.random_tree(20, np.random.default_rng(0))
        for pat in (gen.clique(3), gen.cycle(4), gen.cycle(5)):
            out = detect(tree, pat, max_iterations=30)
            assert not out.detected
            # Misses are honestly quantified for randomized routes.
            if out.pattern_class in ("even-cycle", "odd-cycle"):
                assert 0.0 < out.miss_probability < 1.0

    def test_iteration_cap_respected(self):
        out = detect(gen.grid(3, 3), gen.cycle(6), max_iterations=5)
        assert out.details["iterations"] <= 5

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            detect(gen.clique(4), gen.cycle(4), target_confidence=1.0)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_detected_is_always_a_certificate(self, seed):
        """One-sidedness across all routes: detected=True implies the
        pattern is really there."""
        rng = np.random.default_rng(seed)
        g = gen.erdos_renyi(14, 0.25, rng)
        for pat in (gen.clique(3), gen.cycle(4), gen.path(4)):
            out = detect(g, pat, seed=seed, max_iterations=50)
            if out.detected:
                assert contains_subgraph(pat, g)


class TestLandscape:
    """OV: the paper's complexity landscape through the one-call
    dispatcher -- every pattern class routed on one 48-node host."""

    def test_landscape_is_one_sided_and_exact_where_deterministic(self):
        host = gen.erdos_renyi(48, 0.12, np.random.default_rng(3))
        patterns = {
            "P_4 (tree)": gen.path(4),
            "K_1,3 (star)": nx.star_graph(3),
            "K_3 (triangle)": gen.clique(3),
            "K_4 (clique)": gen.clique(4),
            "C_4 (even cycle)": gen.cycle(4),
            "C_6 (even cycle)": gen.cycle(6),
            "C_5 (odd cycle)": gen.cycle(5),
            "theta(2,2,2) (general)": gen.theta_graph([2, 2, 2]),
        }
        for name, pat in patterns.items():
            out = detect(host, pat, seed=5, max_iterations=500)
            truth = contains_subgraph(pat, host)
            # One-sidedness: a positive is always real.
            if out.detected:
                assert truth, name
            # Deterministic routes must equal the truth outright.
            if out.pattern_class in ("triangle", "clique", "general"):
                assert out.detected == truth, name

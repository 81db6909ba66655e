"""Tests for the Theorem 1.1 even-cycle detection algorithm."""

import functools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import CongestNetwork
from repro.core.color_coding import OracleColorSource, proper_coloring_for_cycle
from repro.core.even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    detect_even_cycle,
    required_bandwidth,
)
from repro.graphs import generators as gen
from repro.theory.bounds import even_cycle_exponent, fit_power_law_exponent


def planted_oracle(graph, verts, k):
    """An OracleColorSource planting a proper coloring on a known cycle.

    The cycle is rotated so that its maximum-degree vertex gets color 0 --
    the 'good event' of Corollary 6.2: if the cycle contains a high-degree
    node, Phase I needs that node to be the color-0 BFS origin (high-degree
    nodes are removed before Phase II)."""
    n = graph.number_of_nodes()
    best = max(range(len(verts)), key=lambda i: graph.degree(verts[i]))
    rotated = list(verts[best:]) + list(verts[:best])
    return OracleColorSource(
        k, proper_coloring_for_cycle(rotated, k), default=2 * k - 1
    )


class TestSchedule:
    def test_anchor_values_k2(self):
        s = IterationSchedule.build(100, 2)
        # delta = 1, high threshold = n, M = n^{1.5} = 1000, R1 = 2M/n + 4.
        assert s.high_threshold == 100
        assert s.r1 == 24
        assert s.tau == 40

    def test_phases_are_contiguous(self):
        s = IterationSchedule.build(64, 3)
        assert s.phase_bfs_start == 1
        assert s.phase_bfs_end == s.phase_peel_start
        assert s.phase_peel_end == s.phase_prefix_start
        assert s.total_rounds == s.phase_prefix_end + 1

    def test_rounds_scale_sublinearly(self):
        """The schedule's total rounds must fit the n^{1-1/(k(k-1))} shape
        -- this IS the Theorem 1.1 claim, checked on the round formula."""
        for k in (2, 3):
            ns = [2**i for i in range(8, 15)]
            rounds = [IterationSchedule.build(n, k).total_rounds for n in ns]
            alpha, r2 = fit_power_law_exponent(ns, rounds)
            assert abs(alpha - even_cycle_exponent(k)) < 0.12, (k, alpha)
            assert r2 > 0.98

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IterationSchedule.build(100, 1)
        with pytest.raises(ValueError):
            IterationSchedule.build(1, 2)

    def test_required_bandwidth_covers_2k_ids(self):
        assert required_bandwidth(1000, 3) >= 6 * 10


class TestDetectionPositive:
    def test_planted_c4_oracle(self):
        g, verts = gen.planted_cycle_graph(30, 4, 0.05, np.random.default_rng(0))
        rep = detect_even_cycle(g, 2, iterations=1, color_source=planted_oracle(g, verts, 2))
        assert rep.detected

    def test_planted_c6_oracle_k3(self):
        g, verts = gen.planted_cycle_graph(40, 6, 0.03, np.random.default_rng(4))
        rep = detect_even_cycle(g, 3, iterations=1, color_source=planted_oracle(g, verts, 3))
        assert rep.detected

    def test_planted_c8_oracle_k4(self):
        g, verts = gen.planted_cycle_graph(40, 8, 0.02, np.random.default_rng(2))
        rep = detect_even_cycle(g, 4, iterations=1, color_source=planted_oracle(g, verts, 4))
        assert rep.detected

    def test_pure_cycle_random_colors(self):
        """On C_4 itself with random colors: amplification must find it."""
        g = gen.cycle(4)
        rep = detect_even_cycle(g, 2, iterations=600, seed=3)
        assert rep.detected

    def test_grid_random_colors(self):
        rep = detect_even_cycle(gen.grid(5, 5), 2, iterations=400, seed=2)
        assert rep.detected

    def test_dense_graph_rejects_via_edge_bound(self):
        """|E| > M = n^{1.5}: some queue must clog (or a cycle is found) --
        either way the algorithm rejects, and soundly (such density forces
        a C_4)."""
        g = gen.clique(30)  # 435 edges > 30^1.5 ~ 165
        rep = detect_even_cycle(g, 2, iterations=3, seed=0)
        assert rep.detected

    @pytest.mark.slow
    def test_theta_graph_k3_amplified(self):
        # theta(3,3) = C_6 exactly; k=3 random colors, heavy amplification.
        g = gen.theta_graph([3, 3])
        rep = detect_even_cycle(g, 3, iterations=4000, seed=1)
        assert rep.detected


class TestDetectionNegative:
    def test_tree_never_detected(self):
        t = gen.random_tree(40, np.random.default_rng(1))
        rep = detect_even_cycle(t, 2, iterations=25, seed=5)
        assert not rep.detected

    def test_c4_free_projective_plane(self):
        """PG(2,3) incidence graph: girth 6, so C_4-free; also dense --
        exercises the edge budget without violating it after high-degree
        removal... the algorithm must NOT reject it for k=2 unless the
        budget is exceeded, in which case detection would be unsound.  We
        use a generous edge constant so the budget holds."""
        from repro.graphs.extremal import projective_plane_incidence

        g = projective_plane_incidence(3)
        rep = detect_even_cycle(g, 2, iterations=30, seed=0, edge_constant=4.0)
        assert not rep.detected

    def test_c6_free_c4_present(self):
        """Grid has C_4s but k=3 looks for C_6... grids have C_6 too; use a
        graph with C_4 but no C_6: K_4 minus nothing -- C_4 yes, C_6 needs 6
        vertices.  K_4 has only 4."""
        g = gen.clique(4)
        rep = detect_even_cycle(g, 3, iterations=40, seed=7)
        assert not rep.detected

    def test_odd_cycle_not_detected_as_even(self):
        g = gen.cycle(7)
        rep = detect_even_cycle(g, 2, iterations=40, seed=0)
        assert not rep.detected

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_soundness_on_forests(self, seed):
        """Property: forests are never rejected (they are C_{2k}-free and
        sparse, so neither witness type can fire)."""
        t = gen.random_tree(25, np.random.default_rng(seed))
        rep = detect_even_cycle(t, 2, iterations=8, seed=seed)
        assert not rep.detected


class TestReportFields:
    def test_report_shape(self):
        g = gen.cycle(4)
        rep = detect_even_cycle(g, 2, iterations=2, seed=0, stop_on_detect=False)
        assert rep.iterations_run == 2
        assert rep.total_rounds == 2 * rep.rounds_per_iteration

    def test_witness_recorded_on_detection(self):
        g, verts = gen.planted_cycle_graph(25, 4, 0.03, np.random.default_rng(9))
        rep = detect_even_cycle(g, 2, iterations=1, color_source=planted_oracle(g, verts, 2))
        assert rep.detected
        assert rep.witnesses and rep.witnesses[0] is not None

    def test_bandwidth_guard(self):
        """The engine must reject runs whose messages exceed a too-small B."""
        from repro.congest.message import BandwidthExceeded

        g, verts = gen.planted_cycle_graph(20, 4, 0.05, np.random.default_rng(0))
        with pytest.raises(BandwidthExceeded):
            detect_even_cycle(
                g,
                2,
                iterations=1,
                bandwidth=2,
                color_source=planted_oracle(g, verts, 2),
            )


# -- A1: ablations of the Theorem 1.1 design choices (DESIGN.md §4) ------
# Each removes one load-bearing part of the Section 6 algorithm and shows
# the failure the paper's analysis predicts.  Cached: EXPERIMENTS.md quotes
# these measurements (tests/test_paper_shapes.py checks them).


@functools.cache
def phase1_ablation():
    """(detected with Phase I, without) on a C_6 whose vertices all have
    degree >= sqrt(|V|), the k=3 threshold: Phase II deletes such nodes."""
    g = nx.cycle_graph(6)
    for v in range(6):
        g.add_edges_from((v, 6 + 12 * v + i) for i in range(12))  # 12 leaves each
    assert all(g.degree(v) >= math.ceil(g.number_of_nodes() ** 0.5) for v in range(6))
    src = OracleColorSource(3, proper_coloring_for_cycle(list(range(6)), 3), default=5)
    return tuple(
        detect_even_cycle(g, 3, iterations=1, color_source=src, enable_phase1=p1).detected
        for p1 in (True, False)
    )


@functools.cache
def layer_filter_traffic():
    """``{layer_filter: (prefixes enqueued, peak queue)}`` over 3 iterations.
    The filter bites only when the decomposition has several layers: a
    dense core on a sparse fringe, with a lean budget putting τ below the
    core degrees."""
    rng = np.random.default_rng(5)
    core = gen.erdos_renyi(60, 0.25, rng)
    fringe = gen.erdos_renyi(120, 0.02, np.random.default_rng(7))
    g = nx.disjoint_union(
        nx.convert_node_labels_to_integers(core), nx.convert_node_labels_to_integers(fringe)
    )
    for i in range(60, 180, 3):
        g.add_edge(i, int(rng.integers(0, 60)))
    # Per-node state is not in a detector's report: run its three
    # iterations (seeds 9, 10, 11) one by one, as detect_even_cycle would.
    n = g.number_of_nodes()
    net = CongestNetwork(g, bandwidth=required_bandwidth(n, 2))
    max_rounds = IterationSchedule.build(n, 2, 0.3).total_rounds + 1
    traffic = {}
    for layer_filter in (True, False):
        states = [
            ctx.state
            for seed in (9, 10, 11)
            for ctx in net.run(
                EvenCycleIterationAlgorithm(2, edge_constant=0.3, layer_filter=layer_filter),
                max_rounds=max_rounds, seed=seed,
            ).contexts.values()
        ]
        traffic[layer_filter] = (sum(st.get("pfx_enqueued", 0) for st in states),
                                 max(st.get("max_pfx_queue", 0) for st in states))
    return traffic


@functools.cache
def budget_constant_sweep():
    """``(constant, M, |E|, schedule rounds, detected)`` per edge-budget
    constant on the C_4-free PG(2,3) incidence graph."""
    from repro.graphs.extremal import projective_plane_incidence

    g = projective_plane_incidence(3)
    rows = []
    for c in (0.2, 1.0, 4.0, 16.0):
        sched = IterationSchedule.build(g.number_of_nodes(), 2, c)
        rep = detect_even_cycle(g, 2, iterations=10, seed=1, edge_constant=c)
        rows.append((c, sched.edge_budget, g.number_of_edges(), sched.total_rounds, rep.detected))
    return tuple(rows)


@functools.cache
def starved_budget_run():
    """K_30 (which has C_4s) under a starved edge budget."""
    return detect_even_cycle(gen.clique(30), 2, iterations=3, seed=0, edge_constant=0.2)


class TestAblations:
    def test_phase1_required_for_high_degree_cycles(self):
        assert phase1_ablation() == (True, False)  # Corollary 6.2's case is Phase I's

    def test_layer_filter_caps_queue_growth(self):
        """Without the ℓ(u0) >= ℓ(v) filter more prefixes flow: a node's
        load is no longer capped by its up-degree, the quantity behind the
        Phase II round bound ``d * n^{δ(k-2)}``."""
        (on_total, on_peak), (off_total, off_peak) = (layer_filter_traffic()[f] for f in (1, 0))
        assert off_total > on_total and off_peak >= on_peak

    def test_detection_survives_without_filter(self):
        """The filter buys the round bound, not completeness."""
        g, verts = gen.planted_cycle_graph(40, 4, 0.02, np.random.default_rng(2))
        src = planted_oracle(g, verts, 2)
        assert detect_even_cycle(g, 2, iterations=1, color_source=src, layer_filter=False).detected

    def test_budget_constant_latency_trade(self):
        """Every phase budget scales with M, so the schedule grows with the
        assumed Turán constant; and no constant may falsely reject the
        C_4-free PG(2,3) (a rejection certifies a cycle or |E| > M)."""
        rows = budget_constant_sweep()
        assert all(r[4] is False for r in rows)
        scheds = [r[3] for r in rows]
        assert scheds == sorted(scheds) and scheds[-1] > 5 * scheds[0]

    def test_budget_escape_hatch_fires_on_real_overload(self):
        """On a graph really too dense for the budget the escape hatch
        (queue overflow / unassigned layer) fires, soundly: K_30 has C_4s."""
        assert starved_budget_run().detected

"""Differential tests: vectorized kernels vs their object-lane references.

The vectorized lane's contract is *bit-exactness*: for every ported
algorithm, both lanes must agree on the global decision, the round count,
every node's decision, and the complete communication ledger (totals,
per-round, per-edge, per-node) -- across graphs, seeds, and bandwidths,
including the ``bandwidth=None`` LOCAL mode and the bandwidth-exceeded
error path.  These tests are the proof obligation for every claim of the
form "lane='vectorized' is just faster".
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import BandwidthExceeded, CongestNetwork, execute_vectorized
from repro.congest.message import int_width
from repro.congest.broadcast_model import BroadcastNetwork
from repro.congest.congested_clique import CongestedClique
from repro.core.clique_detection import (
    CliqueDetection,
    VectorizedCliqueDetection,
    detect_clique,
)
from repro.core.cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
    _first_unseen,
    _sorted_member,
    _sorted_union,
    detect_cycle_linear,
)
from repro.core.triangle import (
    FullAnnouncementProtocol,
    HashSketchProtocol,
    SilentProtocol,
    TruncatedAnnouncementProtocol,
)
from repro.graphs import generators
from repro.graphs.template_graph import sample_input
from repro.lowerbounds.one_round_network import run_one_round_on_network
from repro.runtime import ExecutionPolicy, RunSession


def _session(lane, metrics="full", jobs=1):
    """A session for one lane/metrics/jobs cell that leaves pools warm."""
    return RunSession(
        ExecutionPolicy(lane=lane, metrics=metrics, jobs=jobs), owns_pools=False
    )


def assert_equivalent(res_obj, res_vec, *, check_witness: bool = False):
    """Full-ledger equivalence of two ExecutionResults."""
    assert res_obj.decision == res_vec.decision
    assert res_obj.rounds == res_vec.rounds
    obj_nodes = {u: c.decision for u, c in res_obj.contexts.items()}
    vec_nodes = {u: c.decision for u, c in res_vec.contexts.items()}
    assert obj_nodes == vec_nodes
    a, b = res_obj.metrics, res_vec.metrics
    assert a.total_bits == b.total_bits
    assert a.total_messages == b.total_messages
    assert a.max_message_bits == b.max_message_bits
    assert a.round_bits == b.round_bits
    if a.mode == "full" and b.mode == "full":
        assert a.edge_bits == b.edge_bits
        assert a.node_bits == b.node_bits
        assert a.node_messages == b.node_messages
    if check_witness:
        wa = {u: c.state.get("witness") for u, c in res_obj.contexts.items()}
        wb = {u: c.state.get("witness") for u, c in res_vec.contexts.items()}
        assert wa == wb


GRAPHS = [
    ("gnp-sparse", nx.gnp_random_graph(18, 0.12, seed=0)),
    ("gnp-dense", nx.gnp_random_graph(14, 0.45, seed=1)),
    ("cycle", nx.cycle_graph(11)),
    ("clique", nx.complete_graph(7)),
    ("star", nx.star_graph(9)),
    ("empty", nx.empty_graph(6)),
]


class TestCliqueDifferential:
    @pytest.mark.parametrize("gname,g", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_full_matrix(self, gname, g, s):
        for bandwidth in (4, 16):
            a = detect_clique(g, s, bandwidth, session=_session("object", "full"))
            b = detect_clique(g, s, bandwidth, session=_session("vectorized", "full"))
            assert_equivalent(a, b)

    def test_lite_metrics(self):
        g = nx.gnp_random_graph(16, 0.3, seed=3)
        a = detect_clique(g, 3, 8, session=_session("object", "lite"))
        b = detect_clique(g, 3, 8, session=_session("vectorized", "lite"))
        assert_equivalent(a, b)

    def test_local_mode(self):
        g = nx.gnp_random_graph(12, 0.3, seed=4)
        net = CongestNetwork(g, bandwidth=None)
        a = net.run(CliqueDetection(3), max_rounds=5, seed=0, metrics="full")
        b = net.run(VectorizedCliqueDetection(3), max_rounds=5, seed=0, metrics="full")
        assert_equivalent(a, b)
        # one shipping round with B=n; the silent decide round rolls back
        assert a.rounds == 1

    def test_bandwidth_exceeded_parity(self):
        """A kernel declaring more than B bits raises identically."""
        g = nx.path_graph(4)
        net = CongestNetwork(g, bandwidth=2)

        class OversizedVec(VectorizedCliqueDetection):
            def init_state(self, run):
                st = super().init_state(run)
                st["chunk"] = 4  # ship 4-bit chunks through a 2-bit pipe
                st["num_chunks"] = 1
                return st

        class OversizedObj(CliqueDetection):
            def init(self, node):
                super().init(node)
                node.state["chunk_size"] = 4
                node.state["num_chunks"] = 1

        with pytest.raises(BandwidthExceeded) as eo:
            net.run(OversizedObj(3), max_rounds=4, seed=0)
        with pytest.raises(BandwidthExceeded) as ev:
            net.run(OversizedVec(3), max_rounds=4, seed=0)
        assert str(eo.value) == str(ev.value)

    def test_vectorized_at_least_3x_object_at_n256(self, cpu_best_of_3):
        g = nx.gnp_random_graph(256, 0.08, seed=11)
        obj, vec = _session("object", "lite"), _session("vectorized", "lite")
        t_obj, a = cpu_best_of_3(lambda: detect_clique(g, 3, 16, session=obj))
        t_vec, b = cpu_best_of_3(lambda: detect_clique(g, 3, 16, session=vec))
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.total_messages == b.metrics.total_messages
        assert t_obj / t_vec >= 3.0, (t_obj, t_vec)

    def test_ground_truth(self):
        g = nx.gnp_random_graph(15, 0.4, seed=6)
        for s in (3, 4):
            truth = any(
                len(c) >= s for c in nx.find_cliques(g)
            )
            res = detect_clique(g, s, 8, session=_session("vectorized"))
            assert res.rejected == truth


class TestLinearCycleDifferential:
    @pytest.mark.parametrize("gname,g", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("ell", [3, 4, 6])
    def test_full_matrix(self, gname, g, ell):
        n = g.number_of_nodes()
        net = CongestNetwork(g, bandwidth=16)
        for seed in (0, 3):
            a = net.run(
                LinearCycleIterationAlgorithm(ell),
                max_rounds=n + ell + 3, seed=seed, metrics="full",
            )
            b = net.run(
                VectorizedLinearCycle(ell),
                max_rounds=n + ell + 3, seed=seed, metrics="full",
            )
            assert_equivalent(a, b, check_witness=True)

    def test_oracle_color_map_hits_cycle(self):
        g = nx.cycle_graph(6)
        color_map = {u: u % 6 for u in g.nodes()}
        net = CongestNetwork(g, bandwidth=32)
        a = net.run(
            LinearCycleIterationAlgorithm(6, color_map=color_map),
            max_rounds=20, seed=0, metrics="full",
        )
        b = net.run(
            VectorizedLinearCycle(6, color_map=color_map),
            max_rounds=20, seed=0, metrics="full",
        )
        assert_equivalent(a, b, check_witness=True)
        assert a.rejected

    def test_local_mode(self):
        g = nx.gnp_random_graph(10, 0.35, seed=8)
        net = CongestNetwork(g, bandwidth=None)
        a = net.run(
            LinearCycleIterationAlgorithm(4), max_rounds=20, seed=2, metrics="full"
        )
        b = net.run(VectorizedLinearCycle(4), max_rounds=20, seed=2, metrics="full")
        assert_equivalent(a, b, check_witness=True)


def _planted_cycle_graph(n: int, ell: int, p: float, seed: int):
    """gnp(n, p) plus a C_ell on random nodes, and the oracle coloring
    that makes that cycle properly colored."""
    rng = np.random.default_rng(seed)
    g = nx.gnp_random_graph(n, p, seed=seed)
    cyc = [int(v) for v in rng.choice(n, size=ell, replace=False)]
    nx.add_cycle(g, cyc)
    return g, {v: i for i, v in enumerate(cyc)}


def _run_both_lanes(g, ell, seed, metrics, color_map=None):
    # detect_cycle_linear's bandwidth and round budget.
    n = g.number_of_nodes()
    net = CongestNetwork(g, bandwidth=int_width(max(n, 2)) + int_width(ell))
    rounds = n + ell + 2
    a = net.run(LinearCycleIterationAlgorithm(ell, color_map=color_map),
                max_rounds=rounds, seed=seed, metrics=metrics)
    b = net.run(VectorizedLinearCycle(ell, color_map=color_map),
                max_rounds=rounds, seed=seed, metrics=metrics)
    return a, b


def _assert_lane_parity(a, b):
    assert_equivalent(a, b, check_witness=True)
    assert a.node_decisions == b.node_decisions
    assert list(a.node_decisions) == list(b.node_decisions)
    assert a.metrics.rounds == b.metrics.rounds
    assert a.rejecting_nodes() == b.rejecting_nodes()


class TestLinearCycleLaneProperty:
    """Lane parity of the O(n) baseline over random seeds, lengths,
    graph families and metric modes -- decision, rounds, the full
    ledger, node decisions and witnesses."""

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(3, 7),
        kind=st.sampled_from(["gnp", "grid", "planted", "planted-oracle"]),
        n=st.integers(6, 28),
        metrics=st.sampled_from(["full", "lite"]),
    )
    def test_lanes_agree(self, seed, ell, kind, n, metrics):
        color_map = None
        if kind == "gnp":
            g = nx.gnp_random_graph(n, 3.0 / n, seed=seed % 2**31)
        elif kind == "grid":
            g = nx.convert_node_labels_to_integers(
                nx.grid_2d_graph(max(2, n // 5), 5)
            )
        else:
            g, oracle = _planted_cycle_graph(max(n, ell), ell, 2.0 / n, seed)
            if kind == "planted-oracle":
                color_map = oracle
        a, b = _run_both_lanes(g, ell, seed, metrics, color_map)
        _assert_lane_parity(a, b)
        if color_map is not None:
            assert a.rejected  # the oracle coloring closes the planted cycle

    @pytest.mark.parametrize("metrics", ["full", "lite"])
    def test_large_grid(self, metrics):
        """n = 1024: one scale point well past the small-graph property."""
        g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(32, 32))
        for seed, ell in ((5, 4), (11, 6)):
            a, b = _run_both_lanes(g, ell, seed, metrics)
            _assert_lane_parity(a, b)

    def test_parallel_summary_matches_sequential(self):
        """jobs=2 ships IterationOutcomes built by the parallel summary
        (which reads only rejecting contexts); jobs=1 runs in-process."""
        g, oracle = _planted_cycle_graph(40, 5, 0.05, 3)
        for color_map, iterations in ((oracle, 3), (None, 6)):
            one, two = (
                detect_cycle_linear(g, 5, iterations, seed=9, color_map=color_map,
                                    session=_session("vectorized", "lite", jobs))
                for jobs in (1, 2)
            )
            assert (one.detected, one.iterations_run, one.total_bits,
                    one.total_messages, one.stop_reason) == (
                two.detected, two.iterations_run, two.total_bits,
                two.total_messages, two.stop_reason)
            assert one.detected == (color_map is not None)


class _TrafficLog:
    """Test observer: every send of a run, per round, as ``(sender,
    receiver, origin, hop)`` in the order the lane emits them --
    ``on_message`` on the object lane, ``vec_round`` on the fused lane."""

    def __init__(self):
        self.rounds = {}
        self._grid = None

    def after_init(self, lane):
        run = getattr(lane, "run", None)
        self._grid = run.grid if run is not None else None

    def wake_promise(self, r, lane, promise):
        pass

    def after_round(self, r, lane):
        pass

    def after_finish(self, lane):
        pass

    def on_message(self, r, u, v, msg):
        origin, hop = msg.payload
        self.rounds.setdefault(r, []).append((u, v, origin, hop))

    def vec_round(self, r, edges, sizes, payload):
        if not len(edges):
            return
        g = self._grid
        self.rounds.setdefault(r, []).extend(zip(
            g.ids[g.src[edges]].tolist(), g.ids[g.dst[edges]].tolist(),
            payload["origin"].tolist(), payload["hop"].tolist(),
        ))

    @property
    def sends(self):
        return sum(len(v) for v in self.rounds.values())


def _round_traffic(g, ell, seed, max_rounds=None):
    """Both lanes' per-round traffic logs, plus a plain fused run."""
    n = g.number_of_nodes()
    net = CongestNetwork(g, bandwidth=int_width(max(n, 2)) + int_width(ell))
    rounds = n + ell + 2 if max_rounds is None else max_rounds
    obj, vec = _TrafficLog(), _TrafficLog()
    net._execute(LinearCycleIterationAlgorithm(ell), rounds, seed, False, "lite",
                 observer=obj)
    execute_vectorized(net, VectorizedLinearCycle(ell), rounds, seed, False,
                       "lite", observer=vec)
    plain = net.run(VectorizedLinearCycle(ell), n + ell + 2, seed=seed,
                    metrics="lite")
    return obj, vec, plain


class TestLinearCycleRoundTraffic:
    """Per-round traffic parity: each round's sends, in order, carry the
    same tokens in both lanes.  End-of-run ledgers cannot see *which*
    token a node pops (one broadcast per node per round either way), so
    these pin the FIFO order -- oldest token first -- directly."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ell=st.integers(3, 7),
        n=st.integers(6, 40),
        grid=st.booleans(),
    )
    def test_small_graphs(self, seed, ell, n, grid):
        if grid:
            g = nx.convert_node_labels_to_integers(
                nx.grid_2d_graph(max(2, n // 5), 5))
        else:
            g = nx.gnp_random_graph(n, 4.0 / n, seed=seed % 2**31)
        obj, vec, plain = _round_traffic(g, ell, seed)
        assert obj.rounds == vec.rounds
        assert vec.sends == plain.metrics.total_messages

    @pytest.mark.parametrize("seed", [31680, 31681, 31682])
    def test_batch_benchmark_shape(self, seed):
        """The batch benchmark's op: C5 on the 64x64 grid.  Every token
        has drained long before round 40, so both logged runs stop there
        (an observed object-lane run executes every round of every node);
        the plain run's message count proves no send was cut off."""
        obj, vec, plain = _round_traffic(generators.grid(64, 64), 5, seed,
                                         max_rounds=40)
        assert obj.rounds == vec.rounds
        assert max(vec.rounds) < 39
        assert vec.sends == plain.metrics.total_messages


_keys = st.lists(st.integers(-50, 50), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestSortedSetHelpers:
    """The linear-cycle kernel's set operations against the numpy calls
    they replace.  Same-round duplicates and their order rarely reach an
    observable ledger, so these pin the semantics directly."""

    @given(seen=_keys, keys=_keys)
    def test_first_unseen_is_unique_return_index(self, seen, keys):
        seen = np.unique(seen)
        want = np.zeros(keys.shape[0], dtype=bool)
        want[np.unique(keys, return_index=True)[1]] = True
        want &= ~np.isin(keys, seen)
        assert _first_unseen(seen, keys).tolist() == want.tolist()

    @given(base=_keys, keys=_keys)
    def test_member_and_union(self, base, keys):
        base = np.unique(base)
        assert _sorted_member(base, keys).tolist() == np.isin(keys, base).tolist()
        union = _sorted_union(base, keys)
        assert union.dtype == np.int64
        assert union.tolist() == np.union1d(base, keys).tolist()


class TestBroadcastDifferential:
    """Lane parity under the broadcast restriction: the checked wrappers
    (`_BroadcastChecked` / `_VecBroadcastChecked`) must be transparent for
    a broadcast-legal algorithm, so both lanes keep the full-ledger
    contract on a BroadcastNetwork too."""

    @pytest.mark.parametrize("gname,g", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("s", [3, 4])
    def test_full_matrix(self, gname, g, s):
        for bandwidth in (4, 16):
            net = BroadcastNetwork(g, bandwidth=bandwidth)
            a = net.run(CliqueDetection(s), max_rounds=g.number_of_nodes() + 3,
                        seed=0, metrics="full")
            b = net.run(VectorizedCliqueDetection(s),
                        max_rounds=g.number_of_nodes() + 3,
                        seed=0, metrics="full")
            assert_equivalent(a, b)

    def test_lite_metrics(self):
        g = nx.gnp_random_graph(13, 0.4, seed=9)
        net = BroadcastNetwork(g, bandwidth=8)
        a = net.run(CliqueDetection(3), max_rounds=20, seed=1, metrics="lite")
        b = net.run(VectorizedCliqueDetection(3), max_rounds=20, seed=1,
                    metrics="lite")
        assert_equivalent(a, b)

    def test_agrees_with_plain_congest(self):
        """A broadcast-legal algorithm pays the same bits either way."""
        g = nx.gnp_random_graph(12, 0.35, seed=10)
        plain = CongestNetwork(g, bandwidth=8)
        bcast = BroadcastNetwork(g, bandwidth=8)
        a = plain.run(VectorizedCliqueDetection(3), max_rounds=20, seed=0)
        b = bcast.run(VectorizedCliqueDetection(3), max_rounds=20, seed=0)
        assert_equivalent(a, b)


class TestCongestedCliqueDifferential:
    """Lane parity on a CongestedClique instance: the communication graph
    is K_n with per-node inputs, and the vectorized executor must agree
    with the object lane there exactly as on a plain CongestNetwork."""

    @pytest.mark.parametrize("make_input", [
        lambda: nx.cycle_graph(7),
        lambda: nx.gnp_random_graph(8, 0.3, seed=11),
        lambda: nx.empty_graph(6),
    ], ids=["cycle", "gnp", "empty"])
    def test_clique_kernel(self, make_input):
        net = CongestedClique(make_input(), bandwidth=8)
        a = net.run(CliqueDetection(4), max_rounds=20, seed=0, metrics="full")
        b = net.run(VectorizedCliqueDetection(4), max_rounds=20, seed=0,
                    metrics="full")
        assert_equivalent(a, b)
        assert a.rejected  # the communication graph is complete

    def test_linear_cycle_kernel(self):
        net = CongestedClique(nx.cycle_graph(6), bandwidth=32)
        for seed in (0, 2):
            a = net.run(LinearCycleIterationAlgorithm(3), max_rounds=15,
                        seed=seed, metrics="full")
            b = net.run(VectorizedLinearCycle(3), max_rounds=15,
                        seed=seed, metrics="full")
            assert_equivalent(a, b, check_witness=True)

    def test_lite_metrics(self):
        net = CongestedClique(nx.gnp_random_graph(7, 0.4, seed=12), bandwidth=8)
        a = net.run(CliqueDetection(3), max_rounds=15, seed=3, metrics="lite")
        b = net.run(VectorizedCliqueDetection(3), max_rounds=15, seed=3,
                    metrics="lite")
        assert_equivalent(a, b)


PROTOCOLS = [
    FullAnnouncementProtocol(10),
    TruncatedAnnouncementProtocol(10, budget=30),
    HashSketchProtocol(8),
    SilentProtocol(),
]


class TestOneRoundDifferential:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
    def test_outcomes_agree(self, protocol):
        checked = 0
        for seed in range(30):
            sample = sample_input(6, np.random.default_rng(seed), id_space=10**6)
            if sample.has_duplicate_ids():
                continue
            a = run_one_round_on_network(protocol, sample, session=_session("object"))
            b = run_one_round_on_network(
                protocol, sample, session=_session("vectorized")
            )
            assert a.rejected == b.rejected
            assert a.correct == b.correct
            assert a.bandwidth_used == b.bandwidth_used
            assert a.messages == b.messages
            checked += 1
        assert checked > 10

"""Engine-level tests for the vectorized execution lane.

Covers the :class:`~repro.congest.vectorized.EdgeIndex` invariants, the
batched round loop's validation and accounting, and the composition with
the runtime sanitizer (``sanitize=True``) -- including the regression
that read-only shared arrays must NOT trip the alias guard.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    VEC_ACCEPT,
    BandwidthExceeded,
    CongestNetwork,
    EdgeIndex,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
)
from repro.congest.sanitizer import AliasGuard, SanitizerViolation
from repro.core.clique_detection import VectorizedCliqueDetection


def _index_of(g: nx.Graph) -> EdgeIndex:
    return CongestNetwork(g, bandwidth=8).edge_index()


class TestEdgeIndex:
    def test_directed_edges_in_out_order(self):
        g = nx.path_graph(4)
        grid = _index_of(g)
        assert grid.num_directed == 2 * g.number_of_edges()
        pairs = list(zip(grid.src.tolist(), grid.dst.tolist()))
        # out-order: sorted by (src, dst)
        assert pairs == sorted(pairs)
        assert set(pairs) == {(u, v) for u, v in g.to_directed().edges()}

    def test_in_rank_is_delivery_permutation(self):
        g = nx.gnp_random_graph(15, 0.3, seed=2)
        grid = _index_of(g)
        pairs = list(zip(grid.src.tolist(), grid.dst.tolist()))
        # sorting edge positions by in_rank must order them by (dst, src):
        # ascending receiver, then ascending sender -- the object lane's
        # inbox iteration order.
        by_rank = sorted(range(len(pairs)), key=lambda e: grid.in_rank[e])
        delivered = [(pairs[e][1], pairs[e][0]) for e in by_rank]
        assert delivered == sorted(delivered)

    def test_out_edges_slices(self):
        g = nx.cycle_graph(6)
        grid = _index_of(g)
        for p in range(6):
            edges = grid.out_edges(np.array([p]))
            assert set(grid.dst[edges].tolist()) == set(g.neighbors(p))
        assert grid.out_edges(np.arange(6)).shape[0] == grid.num_directed

    def test_arrays_are_read_only(self):
        grid = _index_of(nx.path_graph(3))
        for arr in (grid.ids, grid.src, grid.dst, grid.out_ptr, grid.in_rank, grid.deg):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_cached_on_network(self):
        net = CongestNetwork(nx.path_graph(3), bandwidth=4)
        assert net.edge_index() is net.edge_index()


class _EchoAlgorithm(VectorizedAlgorithm):
    """Broadcast a constant byte for ``rounds`` rounds, then accept."""

    name = "vec-echo"

    def __init__(self, rounds: int = 2, size_bits: int = 4):
        self.rounds = rounds
        self.size = size_bits

    def init_state(self, run: VecRun) -> Dict[str, Any]:
        return {}

    def all_quiescent(self, run: VecRun, state: Dict[str, Any]) -> bool:
        return bool(run.halted.all())

    def step_all(self, run, r, state, inbox) -> Optional[VecOutbox]:
        if r >= self.rounds:
            run.decision[:] = VEC_ACCEPT
            run.halted[:] = True
            return None
        grid = run.grid
        payload = np.full((grid.num_directed, 1), r, dtype=np.uint8)
        return VecOutbox(grid.all_edges(), payload, self.size)


class _DuplicateEdgeCheat(_EchoAlgorithm):
    name = "vec-duplicate-edge"

    def step_all(self, run, r, state, inbox):
        out = super().step_all(run, r, state, inbox)
        if out is not None:
            edges = np.concatenate([out.edges, out.edges[:1]])
            payload = np.concatenate([out.payload, out.payload[:1]])
            return VecOutbox(edges, payload, out.size_bits)
        return None


#: ambient process state a cheating kernel consults (invisible to the
#: alias guard, which only watches the algorithm instance).
_AMBIENT = {"n": 0}


class _NondeterministicKernel(_EchoAlgorithm):
    """Cheat: consults ambient entropy, so its replay diverges (L3)."""

    name = "vec-nondeterministic"

    def step_all(self, run, r, state, inbox):
        out = super().step_all(run, r, state, inbox)
        if out is not None:
            _AMBIENT["n"] += 1
            payload = out.payload.copy()
            payload[:, 0] = _AMBIENT["n"] % 251
            return VecOutbox(out.edges, payload, out.size_bits)
        return out


class TestVectorizedEngine:
    def test_metrics_accounting(self):
        g = nx.cycle_graph(5)
        net = CongestNetwork(g, bandwidth=8)
        res = net.run(_EchoAlgorithm(rounds=3, size_bits=4), max_rounds=10, seed=0)
        # 10 directed edges x 4 bits x 3 rounds; quiescence probe rolled back
        assert res.rounds == 3
        assert res.metrics.total_messages == 30
        assert res.metrics.total_bits == 120
        assert res.metrics.max_message_bits == 4

    def test_local_mode_unbounded(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=None)
        res = net.run(_EchoAlgorithm(rounds=1, size_bits=10**6), max_rounds=5, seed=0)
        assert res.metrics.max_message_bits == 10**6

    def test_bandwidth_enforced(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=3)
        with pytest.raises(BandwidthExceeded, match=r"exceeds B=3"):
            net.run(_EchoAlgorithm(rounds=1, size_bits=4), max_rounds=5, seed=0)

    def test_duplicate_edge_rejected(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=8)
        with pytest.raises(ValueError, match="one message per edge per round"):
            net.run(_DuplicateEdgeCheat(rounds=1), max_rounds=5, seed=0)

    def test_max_rounds_cap(self):
        net = CongestNetwork(nx.path_graph(3), bandwidth=8)
        res = net.run(_EchoAlgorithm(rounds=100), max_rounds=4, seed=0)
        assert res.rounds == 4


class TestSanitizeComposition:
    def test_clean_kernel_passes_sanitize(self):
        g = nx.gnp_random_graph(12, 0.3, seed=1)
        net = CongestNetwork(g, bandwidth=6)
        res = net.run(
            VectorizedCliqueDetection(3), max_rounds=10, seed=0, sanitize=True
        )
        plain = net.run(VectorizedCliqueDetection(3), max_rounds=10, seed=0)
        assert res.decision == plain.decision
        assert res.rounds == plain.rounds

    def test_nondeterministic_kernel_flagged_l3(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=8)
        with pytest.raises(SanitizerViolation) as exc:
            net.run(_NondeterministicKernel(rounds=2), max_rounds=5, seed=0, sanitize=True)
        assert exc.value.rule_id == "L3"

    def test_alias_guard_ignores_read_only_arrays(self):
        """Regression: the engine's shared read-only edge index arrays must
        not be reported as a cross-node channel."""
        grid = _index_of(nx.path_graph(4))

        class Holder:
            pass

        holder = Holder()
        guard = AliasGuard(holder)
        contexts = {
            u: type("Ctx", (), {"state": {"grid_ids": grid.ids}})() for u in range(4)
        }
        guard.check(contexts, "finish")  # must not raise

    def test_alias_guard_still_catches_writable_sharing(self):
        class Holder:
            pass

        shared = np.zeros(3)
        guard = AliasGuard(Holder())
        contexts = {
            u: type("Ctx", (), {"state": {"buf": shared}})() for u in range(2)
        }
        with pytest.raises(SanitizerViolation) as exc:
            guard.check(contexts, "finish")
        assert exc.value.rule_id == "L2"


def _planted_c5():
    """Two 5-cycles joined by a path, with an oracle coloring: each
    cycle's color-0 node (0 and 10) rejects, every other node accepts."""
    g = nx.cycle_graph(5)
    nx.add_cycle(g, [10, 11, 12, 13, 14])
    nx.add_path(g, [2, 5, 6, 7, 12])
    nx.add_path(g, [3, 8, 9])
    return g, {u: u % 10 for u in (0, 1, 2, 3, 4, 10, 11, 12, 13, 14)}


class TestLazyFinalContexts:
    """The fused lane's final contexts are a read-only mapping that
    synthesizes each NodeContext on first access; every one must match
    the object lane's context for the same run."""

    @pytest.mark.parametrize("seed,color_map", [
        (0, False), (7, False), (0, True), (None, True),
    ])
    def test_fields_match_eager_reference(self, seed, color_map):
        from repro.congest import execute_vectorized
        from repro.core.cycle_detection_linear import (
            LinearCycleIterationAlgorithm,
            VectorizedLinearCycle,
        )

        g, cmap = _planted_c5()
        net = CongestNetwork(g, bandwidth=16)
        cmap = cmap if color_map else None
        algo = VectorizedLinearCycle(5, color_map=cmap)
        res = execute_vectorized(net, algo, 20, seed, False, "full")
        lazy = res.contexts
        eager = net.run(
            LinearCycleIterationAlgorithm(5, color_map=cmap), max_rounds=20, seed=seed
        ).contexts
        assert isinstance(eager, dict)
        assert not isinstance(lazy, dict)
        assert list(lazy) == list(eager)
        assert len(lazy) == len(eager)
        run, ids = lazy._run, list(eager)
        for u in reversed(ids):  # out of order on purpose
            a, b = lazy[u], eager[u]
            assert lazy[u] is a  # cached
            assert (a.id, a.neighbors, a.n, a.decision, a.round, a._halted) == (
                b.id, b.neighbors, b.n, b.decision, b.round, b._halted
            )
            # The object lane keeps its working state as sets and deques;
            # the fused lane exposes only node_state (the witness).
            p = ids.index(u)
            assert a.state == algo.node_state(run, lazy._state, p)
            assert a.state.get("witness") == b.state.get("witness")
            if seed is None:
                assert a.rng is None and b.rng is None
            elif color_map:
                # No stream was touched: the lazy lane leaves rng None
                # rather than build n generators; the object lane's is fresh.
                assert a.rng is None
                fresh = np.random.default_rng(int(run.rngs._seeds[p]))
                assert b.rng.bit_generator.state == fresh.bit_generator.state
            else:
                assert a.rng.bit_generator.state == b.rng.bit_generator.state
        if color_map:
            assert {u for u in lazy if lazy[u].state} == {0, 10}

    def test_read_only_and_missing_keys(self):
        from repro.core.cycle_detection_linear import VectorizedLinearCycle

        net = CongestNetwork(nx.path_graph(4), bandwidth=16)
        ctxs = net.run(VectorizedLinearCycle(3), max_rounds=10, seed=1).contexts
        for missing in (-1, 4, 1.5, "a"):
            assert missing not in ctxs
            with pytest.raises(KeyError):
                ctxs[missing]
        assert 3 in ctxs and ctxs.get(9) is None
        with pytest.raises(TypeError):
            ctxs[0] = None  # type: ignore[index]

    def test_summarize_reads_only_rejecting_contexts(self):
        import dataclasses
        from collections.abc import Mapping

        from repro.congest.parallel import _summarize
        from repro.core.cycle_detection_linear import VectorizedLinearCycle

        class Spy(Mapping):
            def __init__(self, inner):
                self.inner, self.read = inner, []

            def __getitem__(self, u):
                self.read.append(u)
                return self.inner[u]

            def __iter__(self):
                raise AssertionError("_summarize must not iterate contexts")

            def __len__(self):
                return len(self.inner)

        g, cmap = _planted_c5()
        net = CongestNetwork(g, bandwidth=16)
        res = net.run(VectorizedLinearCycle(5, color_map=cmap), max_rounds=20, seed=0)
        spy = Spy(res.contexts)
        out = _summarize(3, dataclasses.replace(res, contexts=spy))
        assert spy.read == [0, 10]
        assert out.rejecting_nodes == (0, 10)
        assert out.witnesses == (0, 10)
        assert out.rejected and out.index == 3

    def test_sanitized_run_on_lazy_mapping(self):
        from repro.core.cycle_detection_linear import VectorizedLinearCycle

        g, cmap = _planted_c5()
        net = CongestNetwork(g, bandwidth=16)
        for algo in (VectorizedLinearCycle(5, color_map=cmap), VectorizedLinearCycle(4)):
            checked = net.run(algo, max_rounds=20, seed=2, sanitize=True)
            plain = net.run(algo, max_rounds=20, seed=2)
            assert checked.node_decisions == plain.node_decisions
            assert checked.rounds == plain.rounds
            assert {u: c.state for u, c in checked.contexts.items()} == {
                u: c.state for u, c in plain.contexts.items()
            }

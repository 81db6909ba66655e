"""The amplification network token and the shared-memory export lifecycle.

Pinned contracts:

* two graphs get the same token exactly when they build the same
  network -- in particular, unsortable nodes inserted in different orders
  get different identifiers, so they must get different tokens;
* the per-graph-object digest memo never goes stale: after any in-place
  mutation the memoized token equals the token of a fresh copy, and an
  amplified run equals a cold-cache run;
* a repeat token on an unchanged graph does not re-hash it;
* a parent's shared-memory export is unlinked when its network leaves the
  parent LRU, but never while a running call still ships its handle.
"""

from __future__ import annotations

import gc
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.congest import Algorithm, CongestNetwork, run_amplified
from repro.congest import parallel as par
from repro.congest.shm import (
    export_network,
    release_shared_graphs,
    shared_export_names,
)
from repro.core.cycle_detection_linear import _LinearCycleFactory


@pytest.fixture(autouse=True)
def _cold_caches():
    par._NET_CACHE.clear()
    yield
    par._NET_CACHE.clear()
    release_shared_graphs()


def _c4_with_tail(order):
    g = nx.Graph()
    g.add_nodes_from(order)
    g.add_edges_from(
        [(0, 1), (1, "a"), ("a", "b"), ("b", 0), ("b", "p"), ("p", "q")]
    )
    return g


class TestTokenFollowsIdentifierOrder:
    """Unsortable nodes are numbered in insertion order; so is the token."""

    A = [0, 1, "a", "b", "p", "q"]
    B = ["q", "p", "b", "a", 1, 0]

    def test_insertion_order_changes_the_token(self):
        a, b = _c4_with_tail(self.A), _c4_with_tail(self.B)
        assert par._net_token(a, 8, {}) != par._net_token(b, 8, {})

    def test_sortable_nodes_ignore_insertion_order(self):
        a = nx.Graph([(3, 1), (1, 2), (2, 3)])
        b = nx.Graph([(1, 2), (2, 3), (3, 1)])
        assert list(a) != list(b)
        assert par._net_token(a, 8, {}) == par._net_token(b, 8, {})

    def test_warm_cache_does_not_change_the_answer(self):
        # Graph a warming the LRU used to hand graph b a's network (same
        # token, different identifiers): first_reject 32 at node 1
        # instead of b's own 50 at node 5.
        kw = dict(iterations=3000, seed=3, bandwidth=8, max_rounds=12)
        factory = _LinearCycleFactory(4, None)
        a, b = _c4_with_tail(self.A), _c4_with_tail(self.B)
        cold = run_amplified(b, factory, **kw)
        par._NET_CACHE.clear()
        run_amplified(a, factory, **kw)
        warm = run_amplified(b, factory, **kw)
        assert (cold.first_reject, cold.outcomes[-1].rejecting_nodes) == (
            50,
            (5,),
        )
        assert warm == cold


# -- the memo never goes stale ---------------------------------------------

_NODES = st.one_of(
    st.integers(0, 6),
    st.sampled_from(["a", "b", "c"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


class DigestMemoMachine(RuleBasedStateMachine):
    """Random in-place mutations; the memo must track every one."""

    def __init__(self):
        super().__init__()
        self.g = nx.Graph()
        self.g.add_edges_from([(0, "a"), ("a", (1, 1)), ((1, 1), 0), (2, "b")])

    def _pick(self, data, pool):
        return data.draw(st.sampled_from(sorted(pool, key=repr)))

    @rule(u=_NODES, v=_NODES)
    def add_edge(self, u, v):
        self.g.add_edge(u, v)

    @rule(u=_NODES)
    def add_node(self, u):
        self.g.add_node(u)

    @rule(data=st.data())
    def remove_edge(self, data):
        if self.g.number_of_edges():
            self.g.remove_edge(*self._pick(data, self.g.edges()))

    @rule(data=st.data())
    def remove_node(self, data):
        if self.g.number_of_nodes() > 1:
            self.g.remove_node(self._pick(data, self.g.nodes()))

    @rule(data=st.data())
    def readd_node(self, data):
        # Same node and edge sets, new insertion order.
        if self.g.number_of_nodes():
            u = self._pick(data, self.g.nodes())
            nbrs = list(self.g[u])
            self.g.remove_node(u)
            self.g.add_edges_from((u, w) for w in nbrs if w != u)
            self.g.add_node(u)

    @rule(data=st.data(), value=st.one_of(
        st.integers(), st.lists(st.integers(), max_size=3).map(np.array)
    ))
    def set_edge_attribute(self, data, value):
        if self.g.number_of_edges():
            u, v = self._pick(data, self.g.edges())
            self.g[u][v]["w"] = value

    @rule(data=st.data())
    def relabel_in_place(self, data):
        if self.g.number_of_nodes():
            u = self._pick(data, self.g.nodes())
            fresh = ("r", self.g.number_of_nodes())
            if fresh not in self.g:
                nx.relabel_nodes(self.g, {u: fresh}, copy=False)

    @rule()
    def clear_edges(self):
        self.g.clear_edges()

    @invariant()
    def memoized_token_matches_a_fresh_copy(self):
        if self.g.number_of_nodes():
            token = par._net_token(self.g, 8, {})
            assert token == par._net_token(self.g, 8, {})
            assert token == par._net_token(nx.Graph(self.g), 8, {})


TestDigestMemo = DigestMemoMachine.TestCase
TestDigestMemo.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMemo:
    def test_repeat_call_on_unchanged_graph_does_not_rehash(self, monkeypatch):
        calls = []
        real = par._structure_digest

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(par, "_structure_digest", counting)
        g = nx.grid_2d_graph(6, 6)
        first = par._net_token(g, 8, {})
        for bandwidth in (8, 16, None):
            par._net_token(g, bandwidth, {"knows_n": False})
        assert par._net_token(g, 8, {}) == first
        assert len(calls) == 1
        g.add_edge((0, 0), (5, 5))
        assert par._net_token(g, 8, {}) != first
        assert len(calls) == 2

    def test_memo_does_not_keep_the_graph_alive(self):
        g = nx.path_graph(5)
        par._net_token(g, 8, {})
        assert g in par._DIGESTS
        alive = weakref.ref(g)
        del g
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("attr", ["adj", "_adj"])
    def test_unmemoizable_graph_is_hashed_directly(self, attr, monkeypatch):
        # No ``_adj``, or not weakly referenceable (``__slots__``): the
        # digest is computed straight from the adjacency, every time.
        Wrapper = type("Wrapper", (), {"__slots__": (attr,)})
        g = nx.cycle_graph(["x", 1, (2,)])
        expected = par._net_token(g, 8, {})
        wrapped = Wrapper()
        setattr(wrapped, attr, g.adj if attr == "adj" else g._adj)
        calls = []
        real = par._structure_digest
        monkeypatch.setattr(
            par, "_structure_digest", lambda *a: calls.append(1) or real(*a)
        )
        assert par._net_token(wrapped, 8, {}) == expected
        assert par._net_token(wrapped, 8, {}) == expected
        assert len(calls) == 2

    @pytest.mark.parametrize("jobs,share_graph", [(1, None), (2, True)])
    def test_amplified_run_after_mutation_matches_cold_cache(
        self, jobs, share_graph
    ):
        # A path has no C4 until the closing edge is added in place; a
        # stale token would reuse the path's network and miss it.  The
        # fixed coloring (by identifier) makes the first seed decide.
        g = nx.path_graph(4)
        factory = _LinearCycleFactory(4, ((0, 0), (1, 1), (2, 2), (3, 3)))
        kw = dict(iterations=6, seed=1, bandwidth=8, max_rounds=12, jobs=jobs,
                  share_graph=share_graph)
        before = run_amplified(g, factory, **kw)
        assert not before.rejected
        g.add_edge(3, 0)
        warm = run_amplified(g, factory, **kw)
        par._NET_CACHE.clear()
        cold = run_amplified(nx.Graph(g), factory, **kw)
        assert warm.rejected and warm.first_reject == 0
        assert warm == cold


# -- shared-memory exports follow the parent LRU ---------------------------


class _Accept(Algorithm):
    name = "accept"

    def round(self, node, inbox):
        node.accept()
        node.halt()
        return {}


@dataclass(frozen=True)
class AcceptAll:
    def __call__(self, iteration: int) -> Algorithm:
        return _Accept()


class TestExportRelease:
    def test_evicted_exports_are_unlinked(self):
        kw = dict(iterations=2, seed=0, bandwidth=8, max_rounds=2)
        names = []
        for i in range(10):
            g = nx.path_graph(2048 + i)
            shared = run_amplified(g, AcceptAll(), jobs=2, **kw)
            names.append(shared_export_names()[-1])
            assert shared == run_amplified(g, AcceptAll(), jobs=1, **kw)
        live = shared_export_names()
        assert len(live) <= par._NET_CACHE_MAX
        gone = [n for n in names if n not in live]
        assert len(gone) >= 10 - par._NET_CACHE_MAX
        for name in gone:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_export_outlives_eviction_while_shipped(self):
        token = "tok-shipping"
        with par._shipping(token):
            net = par._cached_network(
                token, lambda: CongestNetwork(nx.path_graph(6), bandwidth=4)
            )
            name = export_network(net, token)["shm_name"]
            for i in range(par._NET_CACHE_MAX):
                par._cached_network(
                    f"tok-filler-{i}",
                    lambda: CongestNetwork(nx.path_graph(3), bandwidth=4),
                )
            assert token not in par._NET_CACHE
            assert name in shared_export_names()
        assert name not in shared_export_names()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_free_cache_lock(self):
        # Pool workers are forked while engine threads may hold the
        # cache lock; the child's copy must not start out held.
        with par._NET_LOCK:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                os._exit(0 if par._NET_LOCK.acquire(timeout=5) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

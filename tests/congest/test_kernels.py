"""The fused round kernel: object-lane differentials and profiling.

Two contracts:

* :func:`execute_vectorized` (the fused :class:`RoundKernel` loop) is
  bit-identical to the object lane -- decisions, rounds, ledgers -- and
  its outbox-validation and bandwidth *error strings* are pinned;
* the cross matrix: lane x fault plan runs diff clean through
  :func:`diff_records`.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    BandwidthExceeded,
    CongestNetwork,
    execute_vectorized,
)
from repro.congest.kernels import KernelProfile
import repro.congest.randomness as randomness
from repro.congest.randomness import LazyRngs, first_integers
from repro.congest.vectorized import VecOutbox, VectorizedAlgorithm
from repro.core.broadcast_accumulate import (
    BroadcastAccumulate,
    VectorizedBroadcastAccumulate,
)
from repro.core.cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
)
from repro.runtime import ExecutionPolicy


class _UnsortedEcho(VectorizedAlgorithm):
    """Sends on a valid but *descending* edge list: exercises the fused
    kernel's argsort fallback (the strictly-increasing fast check fails,
    the reorder must restore the canonical edge order)."""

    name = "unsorted-echo"
    message_dtype = np.dtype(np.int64)

    def __init__(self, rounds=3):
        self.rounds = rounds

    def init_state(self, run):
        return {}

    def all_quiescent(self, run, state):
        return bool(run.halted.all())

    def step_all(self, run, r, state, inbox):
        if r >= self.rounds:
            run.decision[:] = 1  # accept
            run.halted[:] = True
            return None
        edges = run.grid.all_edges()[::-1].copy()
        return VecOutbox(edges, np.arange(edges.shape[0], dtype=np.int64), 5)


class _BadEdges(VectorizedAlgorithm):
    name = "bad-edges"
    message_dtype = np.dtype(np.int64)

    def __init__(self, mode):
        self.mode = mode  # "range" | "dup" | "oversize"

    def init_state(self, run):
        return {}

    def step_all(self, run, r, state, inbox):
        e = run.grid.num_directed
        if self.mode == "range":
            edges = np.array([0, e + 3], dtype=np.int64)
        elif self.mode == "dup":
            edges = np.array([1, 1], dtype=np.int64)
        else:
            edges = np.array([0], dtype=np.int64)
        payload = np.zeros(edges.shape[0], dtype=np.int64)
        bits = 10**6 if self.mode == "oversize" else 3
        return VecOutbox(edges, payload, bits)


class TestFusedVsReference:
    """The fused loop against the object lane, the reference semantics."""

    @pytest.mark.parametrize("metrics", ["full", "lite"])
    def test_broadcast_workload_bit_identical(self, metrics):
        g = nx.random_regular_graph(4, 48, seed=3)
        net = CongestNetwork(g, bandwidth=31)
        a = execute_vectorized(
            net, VectorizedBroadcastAccumulate(6), 10, 0, False, metrics
        )
        b = net.run(BroadcastAccumulate(6), max_rounds=10, seed=0, metrics=metrics)
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.node_decisions == b.node_decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.round_bits == b.metrics.round_bits
        if metrics == "full":
            assert a.metrics.edge_bits == b.metrics.edge_bits
            assert a.metrics.node_messages == b.metrics.node_messages

    def test_broadcast_fused_at_least_1_5x_object(self, cpu_best_of_3):
        # n = 48 is the smallest size whose measured margin (~11x on a
        # 2-vCPU Linux host) is at least 5x this floor.
        g = nx.random_regular_graph(4, 48, seed=3)
        net = CongestNetwork(g, bandwidth=31)
        net.edge_index()
        t_obj, b = cpu_best_of_3(lambda: net.run(
            BroadcastAccumulate(8), max_rounds=10, seed=0, metrics="lite"
        ))
        t_fused, a = cpu_best_of_3(lambda: execute_vectorized(
            net, VectorizedBroadcastAccumulate(8), 10, 0, False, "lite"
        ))
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.metrics.total_bits == b.metrics.total_bits
        assert t_obj / t_fused >= 1.5, (t_obj, t_fused)

    def test_randomized_workload_same_rng_stream(self):
        g = nx.cycle_graph(12)
        net = CongestNetwork(g, bandwidth=16)
        a = execute_vectorized(net, VectorizedLinearCycle(4), 20, 7, False, "full")
        b = net.run(LinearCycleIterationAlgorithm(4), max_rounds=20, seed=7)
        assert a.node_decisions == b.node_decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.edge_bits == b.metrics.edge_bits

    def test_unsorted_outbox_falls_back_bit_identical(self):
        g = nx.path_graph(9)
        net = CongestNetwork(g, bandwidth=8)
        a = execute_vectorized(net, _UnsortedEcho(), 8, 0, False, "full")
        # Three rounds of 5-bit messages on all 16 directed edges; the
        # silent decide round is the unbilled quiescence probe.
        assert a.rounds == 3
        assert a.metrics.round_bits == {0: 80, 1: 80, 2: 80}
        assert a.metrics.edge_bits == {
            e: 15 for u, v in g.edges() for e in ((u, v), (v, u))
        }

    @pytest.mark.parametrize("mode,exc,message", [
        ("range", ValueError, "round 0: outbox edge index out of range"),
        ("dup", ValueError,
         "node 1 tried to send two messages to 0 in round 0; "
         "the model allows one message per edge per round"),
        ("oversize", BandwidthExceeded,
         "node 0 -> 1: message of 1000000 bits exceeds B=8"),
    ], ids=["range-ValueError", "dup-ValueError", "oversize-BandwidthExceeded"])
    def test_error_strings_identical(self, mode, exc, message):
        g = nx.path_graph(6)
        net = CongestNetwork(g, bandwidth=8)
        with pytest.raises(exc) as fused:
            execute_vectorized(net, _BadEdges(mode), 4, 0, False, "lite")
        assert str(fused.value) == message


class TestLazyRngs:
    def test_vectorized_seed_draw_matches_sequential(self):
        """Pins the numpy behaviour LazyRngs relies on: a bounded
        power-of-two integers() draw consumes one 64-bit word per value,
        so size=n yields the same stream as n single draws."""
        seq_master = np.random.default_rng(99)
        seq = [int(seq_master.integers(0, 2**63)) for _ in range(512)]
        vec_master = np.random.default_rng(99)
        vec = vec_master.integers(0, 2**63, size=512)
        assert seq == [int(v) for v in vec]

    def test_generators_spawn_lazily_and_cache(self):
        seeds = np.array([1, 2, 3], dtype=np.int64)
        rngs = LazyRngs(seeds)
        assert len(rngs) == 3
        assert not rngs._made
        g1 = rngs[1]
        assert rngs._made == {1: g1}
        assert rngs[1] is g1
        # Same seed, same stream as an eagerly-built generator.
        assert g1.integers(0, 100) == np.random.default_rng(2).integers(0, 100)


def _numpy_first_draws(seeds, high):
    return np.array(
        [np.random.default_rng(int(s)).integers(0, high) for s in seeds],
        dtype=np.int64,
    )


class TestVectorizedFirstDraw:
    """Pins ``LazyRngs.first_integers`` against numpy itself.

    The method re-implements ``SeedSequence`` -> ``PCG64`` seeding -> one
    64-bit output -> Lemire's 32-bit bounded draw in uint64 arrays.  A
    numpy release that changes any of those steps fails here first, with
    the seed and bound that diverged, before any lane differential does.
    At run time such a numpy makes ``first_integers`` fall back to real
    generators, so these tests check the mirror itself
    (``_mirrored_draw``) as well as the public method.
    """

    @staticmethod
    def _check(seeds, high):
        arr = np.array(seeds, dtype=np.int64)
        want = _numpy_first_draws(seeds, high).tolist()
        got = LazyRngs(arr).first_integers(high)
        assert got.dtype == np.int64
        assert got.tolist() == want
        if high > 1:
            assert LazyRngs(arr)._mirrored_draw(high).tolist() == want

    @settings(max_examples=60)
    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40),
        high=st.integers(1, 2**32),
    )
    def test_matches_default_rng(self, seeds, high):
        self._check(seeds, high)

    @pytest.mark.parametrize("high", [1, 2, 5, 7, 2**31 + 1, 2**32 - 1, 2**32])
    def test_edge_seeds(self, high):
        self._check([0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1], high)

    def test_rejection_fallback_runs(self):
        """Near 2**32 most Lemire draws land under the bound (here 3 in
        4): those nodes fall back to, and keep, their real generator."""
        seeds = np.arange(200, dtype=np.int64)
        high = 2**32 - 2**30
        rngs = LazyRngs(seeds)
        got = rngs.first_integers(high)
        assert got.tolist() == _numpy_first_draws(seeds, high).tolist()
        assert 0 < len(rngs._made) < 200  # the fallback nodes only

    @pytest.mark.parametrize("high", [1, 5, 2**32 - 3, 2**32])
    def test_stream_continues_after_draw(self, high):
        """``rngs[p]`` read after the vectorized draw continues exactly
        where ``default_rng(s)`` does after one ``integers(0, high)`` --
        for fallback and vectorized positions alike."""
        seeds = np.array([0, 1, 2**32, 12345, 2**62 + 7] + list(range(40, 80)),
                         dtype=np.int64)
        rngs = LazyRngs(seeds)
        rngs.first_integers(high)
        for p, s in enumerate(seeds.tolist()):
            ref = np.random.default_rng(s)
            ref.integers(0, high)
            got = rngs[p]
            assert got.bit_generator.state == ref.bit_generator.state
            assert got.integers(0, 2**40, size=3).tolist() == \
                ref.integers(0, 2**40, size=3).tolist()

    def test_must_be_first_use(self):
        rngs = LazyRngs(np.arange(4, dtype=np.int64))
        rngs[0]
        with pytest.raises(RuntimeError, match="first use"):
            rngs.first_integers(5)
        with pytest.raises(ValueError, match="high"):
            LazyRngs(np.arange(4, dtype=np.int64)).first_integers(2**32 + 1)

    def test_reference_list_path(self):
        """An unseeded run's rngs is a list of None: no draw is possible."""
        with pytest.raises(ValueError, match="seeded"):
            first_integers([None, None], 9)

    def test_runtime_self_check_passes_on_installed_numpy(self):
        randomness._FIRST_DRAW_OK = None  # force a fresh check
        assert randomness._first_draw_matches_numpy() is True
        assert randomness._FIRST_DRAW_OK is True

    @pytest.mark.parametrize("high", [5, 2**32])
    def test_falls_back_to_real_generators_on_mismatch(self, monkeypatch, high):
        """A numpy whose draw no longer matches the mirror gets every
        node's draw from its real generator, and streams still continue."""
        monkeypatch.setattr(randomness, "_FIRST_DRAW_OK", False)
        seeds = np.arange(30, dtype=np.int64)
        rngs = LazyRngs(seeds)
        got = rngs.first_integers(high)
        assert got.tolist() == _numpy_first_draws(seeds, high).tolist()
        assert sorted(rngs._made) == list(range(30))
        ref = np.random.default_rng(7)
        ref.integers(0, high)
        assert rngs[7].bit_generator.state == ref.bit_generator.state


class TestKernelProfile:
    def test_profile_counts_fast_path_rounds(self):
        g = nx.random_regular_graph(4, 32, seed=1)
        net = CongestNetwork(g, bandwidth=31)
        prof = KernelProfile()
        execute_vectorized(
            net, VectorizedBroadcastAccumulate(5), 8, 0, False, "lite",
            profile=prof,
        )
        assert prof.rounds == 5
        assert prof.fast_rounds == 5  # full broadcast rides the fast path
        assert prof.messages == 5 * 4 * 32
        d = prof.as_dict()
        assert all(k in d for k in ("step_ms", "mask_ms", "bill_ms",
                                    "permute_ms", "deliver_ms"))

    def test_partial_sends_are_not_fast_path(self):
        g = nx.cycle_graph(12)
        net = CongestNetwork(g, bandwidth=16)
        prof = KernelProfile()
        execute_vectorized(
            net, VectorizedLinearCycle(4), 20, 7, False, "lite", profile=prof,
        )
        assert prof.rounds > 0
        assert prof.fast_rounds < prof.rounds


# ----------------------------------------------------------------------
# lane x fault-plan cross matrix
# ----------------------------------------------------------------------
MATRIX_FAULTS = [None, "drop:0.3", "drop:0.2|corrupt:0.2|crash:1@2|seed:13"]


def _run_matrix_cell(lane, spec):
    """The amplified detector (one ``amplified`` event, per-seed totals)
    plus one iteration through ``ses.run``, whose ``run`` event carries
    the per-round bit trace the lanes must agree on."""
    from repro.core.cycle_detection_linear import (
        _LinearCycleFactory,
        detect_cycle_linear,
    )
    from repro.runtime import RunSession

    g = nx.cycle_graph(12)
    policy = ExecutionPolicy(lane=lane, faults=spec, seed=5)
    with RunSession(policy, record=True, owns_pools=False) as ses:
        rep = detect_cycle_linear(g, 4, iterations=6, session=ses)
        res = ses.run(ses.network(g, bandwidth=7),
                      _LinearCycleFactory(4, None, lane=lane)(0), max_rounds=18,
                      label="linear-cycle-C4")
        out = (rep.detected, rep.iterations_run, rep.total_bits,
               rep.total_messages, res.decision, res.rounds,
               res.metrics.total_bits)
    assert [e.kind for e in ses.record.events] == ["amplified", "run"]
    return out, ses.record


@pytest.mark.parametrize("spec", MATRIX_FAULTS)
class TestBackendLaneFaultMatrix:
    def test_numpy_backend_matches_object_lane(self, spec):
        from repro.runtime import diff_records

        out_obj, rec_obj = _run_matrix_cell("object", spec)
        out_vec, rec_vec = _run_matrix_cell("vectorized", spec)
        assert out_obj == out_vec
        diff = diff_records(rec_obj, rec_vec)
        assert diff["num_events"][0] == diff["num_events"][1], diff
        assert diff["first_divergence"] is None, diff

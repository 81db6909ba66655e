"""Engine fast path vs. the seed engine: same bits, half the wall-clock.

The fast-path work has three layers: (1) the engine precomputes adjacency
sets / neighbor tuples and inlines send validation, (2) ``metrics="lite"``
skips the per-(edge, round) ledger while keeping aggregate counters exact,
and (3) the even-cycle algorithm caches its schedule's phase boundaries as
plain ints instead of re-deriving property chains every round, with
``jobs`` fanning independent colorings over a process pool.

To measure the gain honestly this module embeds a *frozen snapshot* of the
seed implementation -- the seed engine round loop (networkx adjacency
queries, eager per-node inboxes, always-full metrics) and the seed
even-cycle round dispatch (schedule property chains, per-node uncached
schedule builds) -- and races it against the shipped fast path on an
E1-style sweep.  The snapshot classes below are a deliberate copy of the
seed code; do not "fix" them, they are the regression baseline.

The workload uses odd cycle graphs (C_{2k}-free), so every iteration on
both sides executes the full schedule and the comparison also checks that
decisions and aggregate bit totals are identical.
"""

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

import networkx as nx
import pytest

from conftest import print_table
from emit import emit
from repro.congest.algorithm import Decision, NodeContext, broadcast
from repro.congest.message import Message, int_width
from repro.congest.metrics import CommMetrics
from repro.congest.network import CongestNetwork, ExecutionResult
from repro.congest.parallel import _merge, _run_chunk, run_amplified
from repro.core.clique_detection import detect_clique
from repro.core.cycle_detection_linear import _LinearCycleFactory
from repro.core.even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    _build_schedule,
    detect_even_cycle,
    required_bandwidth,
)
from repro.runtime import ExecutionPolicy, RunSession

NS = [65, 97, 129]  # odd => C_4-free; >= 64 per the bench contract
K = 2
ITERATIONS = 12
JOBS = 4
SEED = 0
REQUIRED_SPEEDUP = 2.0
REPEATS = 2  # best-of timing damps single-core scheduler noise

# vectorized clique lane (PR 3): object lane is the PR 1 fast path.
CLIQUE_NS = [64, 128, 256]
CLIQUE_P = 0.08
CLIQUE_B = 16
VEC_REQUIRED_SPEEDUP = 3.0

# persistent amplification pool (PR 3): baseline is a frozen snapshot of
# the PR 1 pool-per-call executor below.
POOL_SEEDS = 32
POOL_JOBS = 4
POOL_REQUIRED_SPEEDUP = 1.5


def _best_of(fn, repeats: int = REPEATS):
    best, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


# ----------------------------------------------------------------------
# Frozen seed snapshot (baseline) -- copied from the pre-fast-path code.
# ----------------------------------------------------------------------
class SeedEvenCycle(EvenCycleIterationAlgorithm):
    """Seed round dispatch: schedule property chains, uncached builds."""

    def init(self, node: NodeContext) -> None:
        if node.n is None:
            raise ValueError("the Theorem 1.1 algorithm requires knowledge of n")
        # The seed rebuilt the schedule per node (no memoization).
        sched = _build_schedule.__wrapped__(node.n, self.k, self.edge_constant)
        st = node.state
        st["sched"] = sched
        st["color"] = self.colors.color(node.id, node.rng, iteration=0)
        st["is_high"] = node.degree >= sched.high_threshold
        st["high_neighbors"] = set()
        st["queue"] = deque()
        st["seen_tokens"] = set()
        st["layer"] = None
        st["removed_neighbors"] = set()
        st["pfx_queue"] = deque()
        st["inc_origins"] = set()
        st["dec_origins"] = set()
        st["witness"] = None
        st["max_pfx_queue"] = 0
        st["pfx_enqueued"] = 0

    def round(self, node: NodeContext, inbox):
        st = node.state
        sched: IterationSchedule = st["sched"]
        r = node.round

        for sender, msg in inbox.items():
            kind = msg.kind
            if kind == "high":
                st["high_neighbors"].add(sender)
                st["removed_neighbors"].add(sender)
            elif kind == "bfs":
                self._ingest_bfs(node, msg)
            elif kind == "peeled":
                st["removed_neighbors"].add(sender)
            elif kind == "pfx":
                self._ingest_prefix(node, sender, msg)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown message kind {kind!r}")

        if r == 0:
            if st["is_high"]:
                if st["color"] == 0 and self.enable_phase1:
                    st["queue"].append((node.id, 0))
                    st["seen_tokens"].add((node.id, 0))
                return broadcast(node, Message.of_record(None, 1, kind="high"))
            return {}

        if r < sched.phase_bfs_end:
            out = self._phase_bfs_round(node)
            if r == sched.phase_bfs_end - 1 and st["queue"]:
                node.reject()
                st["witness"] = ("queue-overflow-phase1", len(st["queue"]))
            return out

        if st["is_high"]:
            if r >= sched.phase_prefix_end:
                self._finish_iteration(node)
            return {}

        if r < sched.phase_peel_end:
            return self._phase_peel_round(node, r - sched.phase_peel_start)

        if r < sched.phase_prefix_end:
            out = self._phase_prefix_round(node, r - sched.phase_prefix_start)
            if r == sched.phase_prefix_end - 1 and st["pfx_queue"]:
                node.reject()
                st["witness"] = ("queue-overflow-phase2", len(st["pfx_queue"]))
            return out

        self._finish_iteration(node)
        return {}

    def _phase_bfs_round(self, node: NodeContext):
        st = node.state
        if not st["queue"]:
            return {}
        origin, hop = st["queue"].popleft()
        w = int_width(node.namespace_size)
        msg = Message.of_record(
            (origin, hop), size_bits=w + int_width(2 * self.k), kind="bfs"
        )
        return broadcast(node, msg)

    def _phase_peel_round(self, node: NodeContext, step: int):
        st = node.state
        sched: IterationSchedule = st["sched"]
        if st["layer"] is not None:
            return {}
        if step > sched.peel_steps:
            return {}
        if step == sched.peel_steps:
            node.reject()
            st["witness"] = ("unassigned-layer", self._active_degree(node))
            return {}
        if self._active_degree(node) <= sched.tau:
            st["layer"] = step
            return broadcast(node, Message.of_record(None, 1, kind="peeled"))
        return {}

    def _prefix_message(self, node: NodeContext, direction, path, origin_layer):
        w = int_width(node.namespace_size)
        sched: IterationSchedule = node.state["sched"]
        layer_bits = int_width(sched.peel_steps + 1)
        size = len(path) * w + layer_bits + int_width(2 * self.k) + 2
        return Message.of_record((direction, path, origin_layer), size, kind="pfx")


class SeedNetwork(CongestNetwork):
    """Seed round loop: networkx lookups, eager inboxes, full metrics."""

    def run(self, algorithm, max_rounds, seed=0, stop_on_reject=False,
            **_ignored) -> ExecutionResult:
        import numpy as np

        metrics = CommMetrics()
        master = np.random.default_rng(seed) if seed is not None else None

        contexts = {}
        for u in sorted(self.graph.nodes()):
            rng = (
                np.random.default_rng(master.integers(0, 2**63))
                if master is not None
                else None
            )
            contexts[u] = NodeContext(
                id=u,
                neighbors=tuple(sorted(self.graph.neighbors(u))),
                n=self.n if self.knows_n else None,
                namespace_size=self.namespace_size,
                bandwidth=self.bandwidth,
                input=self.inputs.get(u),
                rng=rng,
            )
        for ctx in contexts.values():
            algorithm.init(ctx)

        inboxes = {u: {} for u in contexts}
        rounds_run = 0
        for r in range(max_rounds):
            if all(ctx._halted for ctx in contexts.values()):
                break
            if stop_on_reject and any(
                ctx.decision is Decision.REJECT for ctx in contexts.values()
            ):
                break
            next_inboxes = {u: {} for u in contexts}
            any_traffic = False
            for u, ctx in contexts.items():
                if ctx._halted:
                    continue
                ctx.round = r
                outbox = algorithm.round(ctx, inboxes[u]) or {}
                for v, msg in outbox.items():
                    self._seed_validate_send(u, v, msg)
                    metrics.record(r, u, v, msg.size_bits)
                    next_inboxes[v][u] = msg
                    any_traffic = True
            inboxes = next_inboxes
            rounds_run = r + 1
            if not any_traffic and all(
                not inboxes[u] for u in contexts
            ) and self._seed_all_quiescent(algorithm, contexts):
                break

        for ctx in contexts.values():
            algorithm.finish(ctx)

        decisions = {u: ctx.decision for u, ctx in contexts.items()}
        if any(d is Decision.REJECT for d in decisions.values()):
            global_decision = Decision.REJECT
        else:
            global_decision = Decision.ACCEPT
        return ExecutionResult(
            decision=global_decision,
            rounds=rounds_run,
            metrics=metrics,
            node_decisions=decisions,
            contexts=contexts,
        )

    def _seed_validate_send(self, u, v, msg):
        if not isinstance(msg, Message):
            raise TypeError(f"node {u} tried to send a non-Message: {msg!r}")
        if v not in self.graph[u]:
            raise ValueError(f"node {u} tried to send to non-neighbor {v}")
        if self.bandwidth is not None and msg.size_bits > self.bandwidth:
            raise Exception(
                f"node {u} -> {v}: message of {msg.size_bits} bits exceeds "
                f"B={self.bandwidth}"
            )

    @staticmethod
    def _seed_all_quiescent(algorithm, contexts):
        probe = getattr(algorithm, "is_quiescent", None)
        if probe is None:
            return True
        return all(probe(ctx) for ctx in contexts.values())


def run_seed_snapshot(graph: nx.Graph, k: int, iterations: int, seed: int):
    """The seed detect_even_cycle loop on the seed engine snapshot."""
    n = graph.number_of_nodes()
    sched = _build_schedule.__wrapped__(n, k, 1.0)
    net = SeedNetwork(graph, bandwidth=required_bandwidth(n, k))
    detected = False
    total_bits = 0
    runs = 0
    for t in range(iterations):
        res = net.run(SeedEvenCycle(k), max_rounds=sched.total_rounds + 1,
                      seed=seed + t)
        runs += 1
        total_bits += res.metrics.total_bits
        if res.rejected:
            detected = True
            break
    return detected, total_bits, runs


def run_fastpath(graph: nx.Graph, k: int, iterations: int, seed: int,
                 jobs: int = JOBS):
    rep = detect_even_cycle(
        graph, k, iterations=iterations, seed=seed,
        session=RunSession(jobs=jobs, metrics="lite", owns_pools=False),
    )
    return rep.detected, rep.total_bits, rep.iterations_run


# ----------------------------------------------------------------------
class TestEngineFastpath:
    def test_fastpath_equivalent_on_small_instance(self):
        """Quick (non-slow) check: snapshot and fast path agree exactly."""
        g = nx.cycle_graph(33)
        seed_out = run_seed_snapshot(g, K, 2, SEED)
        fast_out = run_fastpath(g, K, 2, SEED, jobs=2)
        assert seed_out == fast_out

    @pytest.mark.slow
    def test_fastpath_at_least_2x_on_e1_sweep(self):
        """The headline claim: >= 2x wall-clock on the E1-style sweep,
        identical decisions and aggregate bit totals."""
        rows = []
        seed_total = 0.0
        fast_total = 0.0
        for n in NS:
            g = nx.cycle_graph(n)
            t_seed, seed_out = _best_of(
                lambda: run_seed_snapshot(g, K, ITERATIONS, SEED)
            )
            t_fast, fast_out = _best_of(
                lambda: run_fastpath(g, K, ITERATIONS, SEED)
            )
            assert seed_out == fast_out, (
                f"n={n}: fast path diverged: seed {seed_out} vs {fast_out}"
            )
            assert seed_out[0] is False  # odd cycle: every iteration ran
            seed_total += t_seed
            fast_total += t_fast
            rows.append(
                (n, f"{t_seed:.3f}s", f"{t_fast:.3f}s",
                 f"{t_seed / t_fast:.2f}x", seed_out[1])
            )

        speedup = seed_total / fast_total
        print_table(
            f"Engine fast path vs seed snapshot "
            f"(k={K}, {ITERATIONS} iterations, jobs={JOBS}, lite metrics) "
            f"[overall speedup {speedup:.2f}x]",
            ["n", "seed", "fast path", "speedup", "total bits (both)"],
            rows,
        )
        assert speedup >= REQUIRED_SPEEDUP, (
            f"fast path only {speedup:.2f}x over the seed engine "
            f"(need >= {REQUIRED_SPEEDUP}x)"
        )
        emit(
            "BENCH_engine",
            "engine_fastpath_vs_seed",
            {
                "required_speedup": REQUIRED_SPEEDUP,
                "overall_speedup": round(speedup, 3),
                "seed_seconds": round(seed_total, 4),
                "fastpath_seconds": round(fast_total, 4),
                "ns": NS,
                "iterations": ITERATIONS,
                "jobs": JOBS,
            },
            policy=ExecutionPolicy(metrics="lite", jobs=JOBS),
        )


# ----------------------------------------------------------------------
# PR 3: vectorized round kernels vs the PR 1 object-lane fast path.
# ----------------------------------------------------------------------
def _lane_session(lane: str, metrics: str) -> RunSession:
    return RunSession(lane=lane, metrics=metrics, owns_pools=False)


class TestVectorizedCliqueLane:
    def test_vectorized_clique_smoke(self):
        """Quick (non-slow) equivalence check; scripts/verify.sh runs this
        as its time-budgeted bench smoke step."""
        g = nx.gnp_random_graph(48, CLIQUE_P, seed=11)
        a = detect_clique(g, 3, CLIQUE_B, session=_lane_session("object", "full"))
        b = detect_clique(
            g, 3, CLIQUE_B, session=_lane_session("vectorized", "full")
        )
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.edge_bits == b.metrics.edge_bits

    @pytest.mark.slow
    def test_vectorized_clique_at_least_3x(self):
        """>= 3x wall-clock over the object lane on the largest instance,
        bit-identical ledgers throughout."""
        rows = []
        per_n = {}
        speedup_largest = 0.0
        for n in CLIQUE_NS:
            g = nx.gnp_random_graph(n, CLIQUE_P, seed=11)
            obj, vec = _lane_session("object", "lite"), _lane_session("vectorized", "lite")
            t_obj, a = _best_of(lambda: detect_clique(g, 3, CLIQUE_B, session=obj))
            t_vec, b = _best_of(lambda: detect_clique(g, 3, CLIQUE_B, session=vec))
            assert a.decision == b.decision
            assert a.rounds == b.rounds
            assert a.metrics.total_bits == b.metrics.total_bits
            assert a.metrics.total_messages == b.metrics.total_messages
            speedup = t_obj / t_vec
            speedup_largest = speedup  # CLIQUE_NS is ascending
            per_n[str(n)] = {
                "object_seconds": round(t_obj, 4),
                "vectorized_seconds": round(t_vec, 4),
                "speedup": round(speedup, 3),
            }
            rows.append(
                (n, f"{t_obj:.3f}s", f"{t_vec:.3f}s", f"{speedup:.2f}x",
                 a.metrics.total_bits)
            )
        print_table(
            f"Vectorized clique lane vs object lane "
            f"(s=3, B={CLIQUE_B}, p={CLIQUE_P}) "
            f"[largest-instance speedup {speedup_largest:.2f}x]",
            ["n", "object", "vectorized", "speedup", "total bits (both)"],
            rows,
        )
        assert speedup_largest >= VEC_REQUIRED_SPEEDUP, (
            f"vectorized lane only {speedup_largest:.2f}x at n={CLIQUE_NS[-1]} "
            f"(need >= {VEC_REQUIRED_SPEEDUP}x)"
        )
        emit(
            "BENCH_engine",
            "vectorized_clique_vs_object",
            {
                "required_speedup": VEC_REQUIRED_SPEEDUP,
                "largest_instance_speedup": round(speedup_largest, 3),
                "per_n": per_n,
                "s": 3,
                "bandwidth": CLIQUE_B,
                "p": CLIQUE_P,
            },
            policy=ExecutionPolicy(
                lane="vectorized", metrics="lite", bandwidth=CLIQUE_B
            ),
        )


# ----------------------------------------------------------------------
# PR 3: persistent amplification pool vs the PR 1 pool-per-call executor.
# ----------------------------------------------------------------------
def run_amplified_poolpercall(graph, factory, iterations, jobs, **kw):
    """Frozen snapshot of the PR 1 run_amplified parallel path: a fresh
    ProcessPoolExecutor per call, no worker-side network cache.  This is
    the regression baseline; do not "fix" it."""
    spec_base = {
        "graph": graph,
        "algo_factory": factory,
        "seed": kw.get("seed", 0),
        "bandwidth": kw["bandwidth"],
        "max_rounds": kw["max_rounds"],
        "metrics": kw.get("metrics", "lite"),
        "stop_on_detect": kw.get("stop_on_detect", True),
        "network_kwargs": {},
    }
    n_chunks = min(iterations, jobs * 4)
    bounds = [(iterations * i) // n_chunks for i in range(n_chunks + 1)]
    chunk_results = [None] * n_chunks
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_chunk, {**spec_base, "start": lo, "stop": hi})
            for lo, hi in zip(bounds, bounds[1:])
        ]
        try:
            for i, fut in enumerate(futures):
                chunk_results[i] = fut.result()
                if spec_base["stop_on_detect"] and any(
                    o.rejected for o in chunk_results[i]
                ):
                    for later in futures[i + 1 :]:
                        later.cancel()
                    break
        finally:
            for fut in futures:
                fut.cancel()
    return _merge(
        [c for c in chunk_results if c is not None],
        iterations,
        spec_base["stop_on_detect"],
    )


class TestPersistentPool:
    @pytest.mark.slow
    def test_persistent_pool_at_least_1_5x_at_32_seeds(self):
        """>= 1.5x per run_amplified call at 32 seeds: the persistent pool
        amortizes executor spawn and network construction that the
        pool-per-call baseline repays on every call."""
        g = nx.cycle_graph(21)  # odd: no C_4, every iteration runs
        factory = _LinearCycleFactory(4, None)
        kw = dict(bandwidth=16, max_rounds=30, metrics="lite", seed=SEED)

        baseline = run_amplified_poolpercall(g, factory, POOL_SEEDS, POOL_JOBS, **kw)
        # warm the persistent pool + worker caches before timing, exactly
        # the steady state the optimization targets.
        warm = run_amplified(
            g, factory, POOL_SEEDS, jobs=POOL_JOBS,
            bandwidth=16, max_rounds=30, metrics="lite", seed=SEED,
        )
        assert (warm.rejected, warm.iterations_run) == (
            baseline.rejected, baseline.iterations_run
        )
        assert [o.total_bits for o in warm.outcomes] == [
            o.total_bits for o in baseline.outcomes
        ]

        t_old, _ = _best_of(
            lambda: run_amplified_poolpercall(g, factory, POOL_SEEDS, POOL_JOBS, **kw),
            repeats=3,
        )
        t_new, _ = _best_of(
            lambda: run_amplified(
                g, factory, POOL_SEEDS, jobs=POOL_JOBS,
                bandwidth=16, max_rounds=30, metrics="lite", seed=SEED,
            ),
            repeats=3,
        )
        speedup = t_old / t_new
        print_table(
            f"Persistent amplification pool vs pool-per-call "
            f"({POOL_SEEDS} seeds, jobs={POOL_JOBS}) [speedup {speedup:.2f}x]",
            ["variant", "per call"],
            [("pool-per-call (PR 1)", f"{t_old * 1000:.1f}ms"),
             ("persistent pool", f"{t_new * 1000:.1f}ms")],
        )
        assert speedup >= POOL_REQUIRED_SPEEDUP, (
            f"persistent pool only {speedup:.2f}x at {POOL_SEEDS} seeds "
            f"(need >= {POOL_REQUIRED_SPEEDUP}x)"
        )
        emit(
            "BENCH_engine",
            "persistent_pool_vs_poolpercall",
            {
                "required_speedup": POOL_REQUIRED_SPEEDUP,
                "speedup": round(speedup, 3),
                "poolpercall_seconds": round(t_old, 4),
                "persistent_seconds": round(t_new, 4),
                "seeds": POOL_SEEDS,
                "jobs": POOL_JOBS,
            },
            policy=ExecutionPolicy(metrics="lite", jobs=POOL_JOBS, bandwidth=16),
        )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))

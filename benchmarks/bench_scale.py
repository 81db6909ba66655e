"""Scale sweep: the fused vectorized engine at n ~ 10^4 - 10^5.

The workload is :mod:`repro.core.broadcast_accumulate`: every node
broadcasts a 31-bit accumulator every round, so each round moves one
message over every directed edge -- the densest traffic CONGEST allows,
and the whole run rides the fused kernel's trusted full-broadcast fast
path.  Asserted (a regression fails the run):

* wall-clock grows roughly linearly in ``n`` (edges scale with ``n``
  here), pinned loosely to rule out an accidental quadratic term;
* the smoke slice: at ``n = 16384`` the fused lane agrees with the object
  lane (the reference semantics) on decision, rounds and total bits, and
  is at least 1.5x faster.

Numbers land in ``BENCH_scale.json``.
"""

import time

import networkx as nx

from conftest import print_table
from emit import emit
from repro.congest.network import CongestNetwork
from repro.congest.vectorized import execute_vectorized
from repro.core.broadcast_accumulate import (
    BroadcastAccumulate,
    VectorizedBroadcastAccumulate,
)

NS = [4096, 16384, 65536, 131072]
ROUNDS = 8
_NET_CACHE = {}


def ring_lattice_net(n: int) -> CongestNetwork:
    """Degree-4 ring lattice: linear edge growth, cheap to build at 10^5."""
    net = _NET_CACHE.get(n)
    if net is None:
        g = nx.watts_strogatz_graph(n, 4, 0, seed=0)
        net = CongestNetwork(g, bandwidth=31)
        net.edge_index()  # pre-build the CSR so runs time the engine only
        _NET_CACHE[n] = net
    return net


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(fn, reps: int = 2) -> float:
    return min(_time_once(fn) for _ in range(reps))


def _run_fused(net):
    return execute_vectorized(
        net, VectorizedBroadcastAccumulate(ROUNDS), ROUNDS + 2, 0, False, "lite"
    )


class TestScaleSweep:
    def test_wall_clock_scales_roughly_linearly(self):
        """16x more nodes must cost well under 16^2 -- rule out O(n^2)."""
        lo, hi = NS[0], NS[-1]
        t_lo = _best_of(lambda: _run_fused(ring_lattice_net(lo)))
        t_hi = _best_of(lambda: _run_fused(ring_lattice_net(hi)))
        growth = t_hi / max(t_lo, 1e-9)
        factor = hi / lo
        print_table(
            "scale: fused wall-clock growth",
            ["n range", "time ratio", "node ratio"],
            [(f"{lo} -> {hi}", f"{growth:.1f}x", f"{factor}x")],
        )
        # Constant per-run overhead makes sublinear ratios possible; the
        # guard only excludes superlinear blowup (4x headroom over linear).
        assert growth < 4 * factor
        emit(
            "BENCH_scale",
            "wall_clock_growth",
            {
                "n_lo": lo,
                "n_hi": hi,
                "time_ratio": round(growth, 2),
                "node_ratio": factor,
            },
        )


class TestScaleSmoke:
    def test_scale_smoke(self):
        """verify.sh's time-budgeted slice: one mid-size parity + speedup
        against the object lane."""
        n = 16384
        net = ring_lattice_net(n)
        t0 = time.perf_counter()
        b = net.run(BroadcastAccumulate(ROUNDS), max_rounds=ROUNDS + 2, seed=0,
                    metrics="lite")
        object_s = time.perf_counter() - t0
        a = _run_fused(net)
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.metrics.total_bits == b.metrics.total_bits
        fused_s = _best_of(lambda: _run_fused(net))
        assert object_s / fused_s >= 1.5

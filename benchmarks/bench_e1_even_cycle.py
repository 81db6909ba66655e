"""E1 -- Theorem 1.1: sublinear C_{2k} detection vs. the linear baseline.

Regenerates the theorem's content as a table: per-iteration round counts of
the Section 6 algorithm across ``n``, the fitted exponent against the
predicted ``1 - 1/(k(k-1))`` (0.5 for C_4, 5/6 for C_6), and the linear
baseline's ``Θ(n)`` rounds with the crossover point.  Absolute constants are
ours; the *shape* -- who wins and the exponent -- is the paper's.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core.color_coding import OracleColorSource, proper_coloring_for_cycle
from repro.core.even_cycle import IterationSchedule, detect_even_cycle
from repro.core.cycle_detection_linear import detect_cycle_linear
from repro.graphs import generators as gen
from repro.theory.bounds import even_cycle_exponent, fit_power_law_exponent

# Sweep to n = 2^18 (the schedule is analytic, so large n costs nothing);
# the wider range tightens the power-law fit against the predicted
# exponent and matches the engine's 10^5-node operating envelope.
NS = [2**i for i in range(7, 19)]


def _schedule_rounds(k):
    return [(n, IterationSchedule.build(n, k).total_rounds) for n in NS]


class TestE1Shape:
    @pytest.mark.parametrize("k", [2, 3])
    def test_fitted_exponent_matches_theorem(self, benchmark, k):
        rows = benchmark(_schedule_rounds, k)
        ns, rounds = zip(*rows)
        alpha, r2 = fit_power_law_exponent(ns, rounds)
        predicted = even_cycle_exponent(k)
        print_table(
            f"E1: C_{2*k} detection rounds per iteration (k={k}) "
            f"[fit alpha={alpha:.3f}, predicted {predicted:.3f}, R^2={r2:.3f}]",
            ["n", "rounds/iter", "baseline Θ(n)", "winner"],
            [
                (n, r, n + 2 * k + 2, "Thm 1.1" if r < n + 2 * k + 2 else "baseline")
                for n, r in rows
            ],
        )
        assert abs(alpha - predicted) < 0.12
        assert r2 > 0.98

    def test_crossover_exists_and_moves_up_with_k(self, benchmark):
        """The sublinear algorithm eventually beats the linear baseline;
        the crossover n grows with k (weaker exponent)."""

        def crossover(k):
            n = 4
            while True:
                n *= 2
                if IterationSchedule.build(n, k).total_rounds < n:
                    return n
                if n > 2**36:  # pragma: no cover
                    raise AssertionError(f"no crossover found for k={k}")

        c2, c3 = benchmark(lambda: (crossover(2), crossover(3)))
        print_table(
            "E1: crossover vs the linear baseline",
            ["k", "first n where Thm 1.1 wins"],
            [(2, c2), (3, c3)],
        )
        assert c2 <= c3


class TestE1Execution:
    def test_planted_detection_timed(self, benchmark):
        """Time one full simulator iteration on a planted C_4 instance."""
        g, verts = gen.planted_cycle_graph(128, 4, 0.01, np.random.default_rng(0))
        best = max(range(4), key=lambda i: g.degree(verts[i]))
        rotated = verts[best:] + verts[:best]
        src = OracleColorSource(2, proper_coloring_for_cycle(rotated, 2), default=3)

        rep = benchmark(
            lambda: detect_even_cycle(g, 2, iterations=1, color_source=src)
        )
        assert rep.detected

    def test_simulated_vs_baseline_rounds_on_instance(self, benchmark):
        """Measured engine rounds on one instance, both algorithms."""
        n = 96
        g, verts = gen.planted_cycle_graph(n, 4, 0.01, np.random.default_rng(1))
        best = max(range(4), key=lambda i: g.degree(verts[i]))
        rotated = verts[best:] + verts[:best]
        src = OracleColorSource(2, proper_coloring_for_cycle(rotated, 2), default=3)
        rep = detect_even_cycle(g, 2, iterations=1, color_source=src)
        base = benchmark(
            lambda: detect_cycle_linear(
                g, 4, iterations=1, color_map={v: i for i, v in enumerate(rotated)}
            )
        )
        print_table(
            "E1: one planted instance, measured engine rounds",
            ["algorithm", "rounds", "detected"],
            [
                ("Theorem 1.1 (one iteration)", rep.rounds_per_iteration, rep.detected),
                ("linear baseline (one iteration)", base.rounds_per_iteration, base.detected),
            ],
        )
        assert rep.detected and base.detected

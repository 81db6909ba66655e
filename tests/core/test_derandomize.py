"""Tests for the derandomized color-coding machinery."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derandomize import (
    ExhaustiveColorFamily,
    PolynomialColorFamily,
    detect_even_cycle_deterministic,
    next_prime,
    splitter_family_size,
)
from repro.congest import BandwidthExceeded
from repro.graphs import generators as gen
from repro.runtime import ExecutionPolicy, RunSession


class TestNextPrime:
    def test_values(self):
        assert next_prime(2) == 2
        assert next_prime(14) == 17
        assert next_prime(31) == 31

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=50)
    def test_result_is_prime_and_minimal(self, n):
        from repro.graphs.extremal import is_prime

        p = next_prime(n)
        assert p >= n and is_prime(p)
        assert all(not is_prime(q) for q in range(n, p))


class TestPolynomialFamily:
    def test_field_large_enough(self):
        fam = PolynomialColorFamily(10, 4)
        assert fam.p >= 4 * 16

    def test_colorings_in_range(self):
        fam = PolynomialColorFamily(20, 2)
        col = fam.coloring((1, 2, 3, 4))
        assert set(col.keys()) == set(range(20))
        assert set(col.values()) <= set(range(4))

    def test_seed_arity_checked(self):
        fam = PolynomialColorFamily(20, 2)
        with pytest.raises(ValueError):
            fam.coloring((1, 2, 3))
        with pytest.raises(ValueError):
            fam.seed_for([1, 2, 3], [0, 1, 2])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_coverage_property(self, seed):
        """THE derandomization guarantee: for any 2k distinct vertices and
        any target colors, the family contains a realising member."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        n = 40
        fam = PolynomialColorFamily(n, k)
        verts = rng.choice(n, size=2 * k, replace=False).tolist()
        colors = rng.integers(0, 2 * k, size=2 * k).tolist()
        member = fam.coloring(fam.seed_for(verts, colors))
        assert [member[v] for v in verts] == colors

    def test_covering_subfamily_covers_all_rotations(self):
        fam = PolynomialColorFamily(12, 2)
        vs = [0, 3, 7, 11]
        seeds = fam.covering_subfamily([vs])
        assert len(seeds) == 4  # one per rotation
        realized = {tuple(fam.coloring(s)[v] for v in vs) for s in seeds}
        assert realized == {
            (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)
        }


class TestExhaustiveFamily:
    def test_enumerates_all(self):
        fam = ExhaustiveColorFamily(3, 2)
        cols = list(fam.colorings())
        assert len(cols) == fam.size == 4**3
        assert len({tuple(sorted(c.items())) for c in cols}) == 64

    def test_invalid(self):
        with pytest.raises(ValueError):
            ExhaustiveColorFamily(0, 2)


class TestDeterministicDetection:
    def test_planted_cycle_detected_deterministically(self):
        rng = np.random.default_rng(1)
        g, cyc = gen.planted_cycle_graph(22, 4, 0.03, rng)
        best = max(range(4), key=lambda i: g.degree(cyc[i]))
        rot = cyc[best:] + cyc[:best]
        fam = PolynomialColorFamily(22, 2)
        rep = detect_even_cycle_deterministic(
            g, 2, fam.covering_subfamily([rot]), family=fam
        )
        assert rep.detected

    def test_runs_are_bit_identical(self):
        rng = np.random.default_rng(2)
        g, cyc = gen.planted_cycle_graph(18, 4, 0.02, rng)
        fam = PolynomialColorFamily(18, 2)
        seeds = fam.covering_subfamily([cyc])
        r1 = detect_even_cycle_deterministic(g, 2, seeds, family=fam)
        r2 = detect_even_cycle_deterministic(g, 2, seeds, family=fam)
        assert (r1.detected, r1.iterations_run, r1.total_rounds) == (
            r2.detected, r2.iterations_run, r2.total_rounds
        )

    def test_session_policy_and_record_reach_the_amplification(self):
        rng = np.random.default_rng(2)
        g, cyc = gen.planted_cycle_graph(18, 4, 0.02, rng)
        fam = PolynomialColorFamily(18, 2)
        seeds = fam.covering_subfamily([cyc])
        plain = detect_even_cycle_deterministic(g, 2, seeds, family=fam)
        with RunSession(ExecutionPolicy(jobs=2, metrics="lite"), record=True,
                        owns_pools=False) as ses:
            rep = detect_even_cycle_deterministic(g, 2, seeds, family=fam,
                                                  session=ses)
        assert [(e.kind, e.label) for e in ses.record.events] == [
            ("amplified", "even-cycle-C4")
        ]
        assert (rep.detected, rep.iterations_run, rep.total_rounds) == (
            plain.detected, plain.iterations_run, plain.total_rounds
        )
        # The policy's bandwidth is honoured: one bit is too few.
        with RunSession(ExecutionPolicy(bandwidth=1), owns_pools=False) as ses:
            with pytest.raises(BandwidthExceeded):
                detect_even_cycle_deterministic(g, 2, seeds, family=fam,
                                                session=ses)

    def test_sound_on_trees(self):
        t = gen.random_tree(16, np.random.default_rng(3))
        fam = PolynomialColorFamily(16, 2)
        seeds = [fam.seed_for([0, 1, 2, 3], [0, 1, 2, 3])]
        assert not detect_even_cycle_deterministic(t, 2, seeds, family=fam).detected

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="at least one iteration"):
            detect_even_cycle_deterministic(gen.cycle(4), 2, [])


class TestCostAccounting:
    def test_splitter_beats_explicit_in_n(self):
        """The compressed family is poly-log in n; the explicit one is not."""
        fam_small = PolynomialColorFamily(100, 2)
        fam_big = PolynomialColorFamily(10_000, 2)
        # Explicit family grows polynomially with n (p >= n).
        assert fam_big.size > 100 * fam_small.size
        # Splitter size grows only logarithmically (100x the n, ~2x the size).
        assert splitter_family_size(10_000, 2) <= 2 * splitter_family_size(100, 2)

    def test_splitter_formula_guards(self):
        with pytest.raises(ValueError):
            splitter_family_size(1, 2)

"""Tests for color-coding utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.color_coding import (
    OracleColorSource,
    RandomColorSource,
    is_properly_colored_cycle,
    proper_coloring_for_cycle,
    success_probability,
)
from repro.runtime.policy import seeds_for_confidence


class TestSuccessProbability:
    def test_k2(self):
        assert success_probability(2) == pytest.approx(4.0**-4)

    def test_decreasing_in_k(self):
        ps = [success_probability(k) for k in range(2, 8)]
        assert ps == sorted(ps, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            success_probability(1)

    def test_iterations_scale(self):
        # p = 1/256: (255/256)^t <= 1/3 first holds at t = 281, the C_4
        # seed count detect() asks for at its default confidence.
        assert seeds_for_confidence(2 / 3, success_probability(2)) == 281


class TestSources:
    def test_random_source_range(self):
        src = RandomColorSource(3)
        rng = np.random.default_rng(0)
        colors = {src.color(i, rng, 0) for i in range(200)}
        assert colors <= set(range(6))
        assert len(colors) == 6  # all colors appear over 200 draws

    def test_random_source_requires_rng(self):
        with pytest.raises(ValueError):
            RandomColorSource(2).color(0, None, 0)

    def test_oracle_source(self):
        src = OracleColorSource(2, {5: 3}, default=1)
        assert src.color(5, None, 0) == 3
        assert src.color(6, None, 0) == 1

    def test_oracle_validates_range(self):
        with pytest.raises(ValueError):
            OracleColorSource(2, {0: 4})
        with pytest.raises(ValueError):
            OracleColorSource(2, {}, default=9)


class TestPlantedColorings:
    def test_proper_coloring_roundtrip(self):
        ids = [10, 20, 30, 40]
        colors = proper_coloring_for_cycle(ids, 2)
        assert is_properly_colored_cycle(ids, colors)

    def test_rotation_and_direction_detected(self):
        ids = [1, 2, 3, 4, 5, 6]
        colors = proper_coloring_for_cycle(ids, 3)
        # Same cycle listed from a different starting point / direction.
        rotated = ids[2:] + ids[:2]
        assert is_properly_colored_cycle(rotated, colors)
        assert is_properly_colored_cycle(list(reversed(ids)), colors)

    def test_wrong_coloring_rejected(self):
        ids = [1, 2, 3, 4]
        colors = {1: 0, 2: 1, 3: 2, 4: 2}  # not proper
        assert not is_properly_colored_cycle(ids, colors)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            proper_coloring_for_cycle([1, 2, 3], 2)

    def test_duplicate_vertices_raise(self):
        with pytest.raises(ValueError):
            proper_coloring_for_cycle([1, 1, 2, 3], 2)

    @given(st.integers(min_value=2, max_value=5))
    def test_planted_always_detectable(self, k):
        ids = list(range(100, 100 + 2 * k))
        colors = proper_coloring_for_cycle(ids, k)
        assert is_properly_colored_cycle(ids, colors)

"""Color coding [Alon--Yuster--Zwick], as used by the Theorem 1.1 algorithm.

Section 6 colors every node independently and uniformly with a color in
``{0, ..., 2k-1}`` and then searches only for *properly-colored* copies of
``C_{2k}``: cycles ``u_0, ..., u_{2k-1}`` with ``c(u_i) = i``.  A fixed
2k-cycle is properly colored (relative to a fixed starting vertex and
direction) with probability ``(2k)^{-2k}``, so ``O((2k)^{2k})`` independent
repetitions detect with constant probability.

This module holds the coloring sources (random and oracle-controlled -- the
latter lets tests and the derandomization discussion plant a known-good
coloring), the ``C_{2k}`` success probability, and
:class:`AmplifiedReport`, the one report every color-coding detector
returns.  Seed counts come from
:func:`repro.runtime.policy.seeds_for_confidence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..congest.parallel import AmplifiedOutcome

__all__ = [
    "AmplifiedReport",
    "ColorSource",
    "RandomColorSource",
    "OracleColorSource",
    "success_probability",
    "proper_coloring_for_cycle",
    "is_properly_colored_cycle",
]


class ColorSource:
    """Assigns each node a color in ``{0, .., 2k-1}`` for a given iteration."""

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("need k >= 2")
        self.k = k
        self.num_colors = 2 * k

    def color(self, node_id: int, rng: Optional[np.random.Generator], iteration: int) -> int:
        raise NotImplementedError


class RandomColorSource(ColorSource):
    """The paper's coloring: each node draws iid uniform from its own
    private randomness.  (Distributed-legal: no communication needed.)"""

    def color(self, node_id: int, rng: Optional[np.random.Generator], iteration: int) -> int:
        if rng is None:
            raise ValueError("random coloring needs per-node randomness")
        return int(rng.integers(0, self.num_colors))


class OracleColorSource(ColorSource):
    """A fixed coloring map, for tests and derandomization experiments.

    The paper notes the algorithm "is easily de-randomized using standard
    techniques at the cost of an additional O(log n) factor": one walks a
    deterministic family of colorings guaranteed to contain a good one.
    ``OracleColorSource`` is the primitive such a family plugs into.
    """

    def __init__(self, k: int, colors: Mapping[int, int], default: int = 0):
        super().__init__(k)
        bad = {v: c for v, c in colors.items() if not 0 <= c < self.num_colors}
        if bad:
            raise ValueError(f"colors out of range [0, {self.num_colors}): {bad}")
        if not 0 <= default < self.num_colors:
            raise ValueError(f"default color {default} out of range")
        self.colors = dict(colors)
        self.default = default

    def color(self, node_id: int, rng, iteration: int) -> int:
        return self.colors.get(node_id, self.default)


def success_probability(k: int) -> float:
    """Probability a *fixed* 2k-cycle is properly colored in one iteration,
    for a fixed choice of start vertex and direction: ``(2k)^{-2k}``."""
    if k < 2:
        raise ValueError("need k >= 2")
    return float((2 * k) ** (-(2 * k)))


@dataclass
class AmplifiedReport:
    """Outcome of one amplified color-coding detection.

    The tree, linear-cycle, Theorem 1.1 and derandomized detectors all
    return this, built by :meth:`from_outcome` from the merged
    :class:`~repro.congest.parallel.AmplifiedOutcome`, which rides along
    as ``outcome`` (the server derives coalesced followers from it).
    ``total_bits`` / ``total_messages`` aggregate every executed
    iteration and are identical at any ``metrics`` mode or ``jobs``.
    ``seeds_saved`` / ``stop_reason`` report the adaptive stop (see
    :mod:`repro.congest.parallel`).  ``schedule`` is Theorem 1.1's
    :class:`~repro.core.even_cycle.IterationSchedule`, ``None`` for the
    other detectors.
    """

    detected: bool
    iterations_run: int
    rounds_per_iteration: int
    total_rounds: int
    witnesses: List[Any]
    total_bits: int
    total_messages: int
    seeds_requested: int
    seeds_saved: int
    stop_reason: str
    outcome: AmplifiedOutcome
    schedule: Optional[Any] = None

    @classmethod
    def from_outcome(
        cls,
        amp: AmplifiedOutcome,
        rounds_per_iteration: int,
        schedule: Optional[Any] = None,
    ) -> "AmplifiedReport":
        return cls(
            detected=amp.rejected,
            iterations_run=amp.iterations_run,
            rounds_per_iteration=rounds_per_iteration,
            total_rounds=amp.iterations_run * rounds_per_iteration,
            witnesses=list(amp.witnesses),
            total_bits=amp.total_bits,
            total_messages=amp.total_messages,
            seeds_requested=amp.seeds_requested,
            seeds_saved=amp.seeds_saved,
            stop_reason=amp.stop_reason,
            outcome=amp,
            schedule=schedule,
        )


def proper_coloring_for_cycle(
    cycle_ids: Sequence[int], k: int
) -> Dict[int, int]:
    """A coloring making ``cycle_ids`` a properly-colored 2k-cycle.

    ``cycle_ids`` lists the cycle vertices in cyclic order; vertex ``i``
    gets color ``i``.  Used by tests to plant guaranteed-detectable
    instances through :class:`OracleColorSource`.
    """
    if len(cycle_ids) != 2 * k:
        raise ValueError(f"need exactly {2 * k} vertices, got {len(cycle_ids)}")
    if len(set(cycle_ids)) != len(cycle_ids):
        raise ValueError("cycle vertices must be distinct")
    return {v: i for i, v in enumerate(cycle_ids)}


def is_properly_colored_cycle(
    cycle_ids: Sequence[int], colors: Mapping[int, int]
) -> bool:
    """Ground-truth predicate: is this cyclic vertex sequence properly
    colored in some rotation/direction?"""
    m = len(cycle_ids)
    for shift in range(m):
        for direction in (1, -1):
            seq = [cycle_ids[(shift + direction * i) % m] for i in range(m)]
            if all(colors.get(v) == i for i, v in enumerate(seq)):
                return True
    return False

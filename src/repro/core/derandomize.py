"""Derandomizing the color coding (the Theorem 1.1 footnote, made concrete).

The paper notes its algorithm "is easily de-randomized using standard
techniques, at the cost of an additional O(log n) factor in the running
time (see, e.g., [15])".  The standard technique walks a *deterministic
family of colorings* guaranteed to contain, for every set of ``2k``
vertices, a member realising any prescribed proper coloring; nodes iterate
the family in lockstep instead of flipping coins.

This module provides two explicit families with *provable* coverage plus
the cost accounting:

* :class:`PolynomialColorFamily` -- colorings
  ``c_a(v) = (poly_a(v) mod p) mod 2k`` over all polynomials of degree
  ``< 2k`` over ``GF(p)``, ``p`` prime ``> max(n, 4k²)``.  Coverage is an
  interpolation argument (implemented and tested, see
  :meth:`PolynomialColorFamily.seed_for`): for any ``2k`` distinct vertices
  and any target colors, pick field targets hitting those colors and
  interpolate.  The family is explicit and *complete* but has size
  ``p^{2k}`` — this is the textbook object the splitter machinery of
  [15]/[Naor–Schulman–Srinivasan] compresses to ``O(poly(k) log n)``
  members; we expose the compressed size as a formula
  (:func:`splitter_family_size`) and keep the explicit family as the
  verifiable primitive, which is also practical at test scale via
  :meth:`PolynomialColorFamily.covering_subfamily`.
* :class:`ExhaustiveColorFamily` -- all ``(2k)^n`` colorings, the brute
  endpoint used by the deterministic detector on tiny graphs.

:func:`detect_even_cycle_deterministic` runs the Theorem 1.1 algorithm over
a family (one amplification, one iteration per family member), giving a
fully deterministic detector (no randomness anywhere: the iteration order
is fixed) whose completeness on a known cycle follows from family
coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from ..graphs.extremal import is_prime
from .color_coding import AmplifiedReport, OracleColorSource
from .even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    required_bandwidth,
)

if TYPE_CHECKING:
    from ..runtime.session import RunSession

__all__ = [
    "next_prime",
    "PolynomialColorFamily",
    "ExhaustiveColorFamily",
    "splitter_family_size",
    "detect_even_cycle_deterministic",
]


def next_prime(n: int) -> int:
    """Smallest prime ``>= n`` (trial division; fine for simulator scales)."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _eval_poly(coeffs: Sequence[int], x: int, p: int) -> int:
    """Horner evaluation of ``sum coeffs[i] x^i`` over ``GF(p)``."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _interpolate(points: Sequence[Tuple[int, int]], p: int) -> List[int]:
    """Lagrange interpolation over ``GF(p)``: the unique polynomial of
    degree < len(points) through the given (x, y) pairs, as a coefficient
    list (low-order first)."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x")
    m = len(points)
    coeffs = [0] * m
    for i, (xi, yi) in enumerate(points):
        # Basis polynomial L_i(x) = prod_{j!=i} (x - x_j) / (x_i - x_j).
        basis = [1]  # polynomial 1
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # basis *= (x - xj)
            new = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d + 1] = (new[d + 1] + c) % p
                new[d] = (new[d] - c * xj) % p
            basis = new
            denom = (denom * (xi - xj)) % p
        scale = (yi * pow(denom, p - 2, p)) % p
        for d in range(len(basis)):
            coeffs[d] = (coeffs[d] + basis[d] * scale) % p if d < len(basis) else coeffs[d]
    return coeffs


class PolynomialColorFamily:
    """The degree-``<2k`` polynomial coloring family over ``GF(p)``.

    ``p >= max(n, 4k^2)`` guarantees every color in ``{0..2k-1}`` has at
    least one field value below ``p`` mapping to it with room to spare for
    distinctness (we need ``2k`` distinct field targets; taking target for
    color ``c`` from ``{c, c + 2k, c + 4k, ...}`` gives ``>= 2`` choices per
    color once ``p >= 4k^2``).
    """

    def __init__(self, n: int, k: int):
        if k < 2 or n < 1:
            raise ValueError("need k >= 2 and n >= 1")
        self.n = n
        self.k = k
        self.num_colors = 2 * k
        self.p = next_prime(max(n, 4 * k * k))

    @property
    def size(self) -> int:
        """``p^{2k}`` members -- the explicit (uncompressed) family size."""
        return self.p ** (2 * self.k)

    def coloring(self, seed: Sequence[int]) -> Dict[int, int]:
        """The coloring indexed by coefficient vector ``seed``."""
        if len(seed) != 2 * self.k:
            raise ValueError(f"seed must have {2 * self.k} coefficients")
        return {
            v: _eval_poly(seed, v, self.p) % self.num_colors for v in range(self.n)
        }

    def seed_for(
        self, vertices: Sequence[int], colors: Sequence[int]
    ) -> Tuple[int, ...]:
        """A family member realising ``colors`` on ``vertices`` (coverage).

        This is the constructive heart of the derandomization: for any
        ``2k`` distinct vertices and any target colors there IS a member,
        and we can exhibit it by interpolation.
        """
        if len(vertices) != 2 * self.k or len(set(vertices)) != len(vertices):
            raise ValueError(f"need {2 * self.k} distinct vertices")
        # Duplicate target colors are fine: each occurrence is bumped to a
        # fresh field value in the same residue class below.
        used: set = set()
        points = []
        for v, c in zip(vertices, colors):
            target = c % self.num_colors
            while target in used:
                target += self.num_colors
                if target >= self.p:
                    raise AssertionError("p too small for distinct targets")
            used.add(target)
            points.append((v % self.p, target))
        coeffs = _interpolate(points, self.p)
        coeffs = coeffs + [0] * (2 * self.k - len(coeffs))
        return tuple(coeffs[: 2 * self.k])

    def covering_subfamily(
        self, vertex_sets: Sequence[Sequence[int]]
    ) -> List[Tuple[int, ...]]:
        """Seeds covering every listed 2k-set with every cyclic proper
        coloring -- a *certified* small subfamily for a known workload
        (used by the deterministic detector when the caller can enumerate
        candidate cycles, e.g. in regression tests)."""
        seeds: List[Tuple[int, ...]] = []
        base = list(range(self.num_colors))
        for vs in vertex_sets:
            for shift in range(self.num_colors):
                colors = [(i + shift) % self.num_colors for i in base]
                seeds.append(self.seed_for(vs, colors))
        return seeds


class ExhaustiveColorFamily:
    """All ``(2k)^n`` colorings: the brute-force deterministic endpoint."""

    def __init__(self, n: int, k: int):
        if k < 2 or n < 1:
            raise ValueError("need k >= 2 and n >= 1")
        self.n = n
        self.k = k
        self.num_colors = 2 * k

    @property
    def size(self) -> int:
        return self.num_colors**self.n

    def colorings(self) -> Iterator[Dict[int, int]]:
        for code in range(self.size):
            c = {}
            x = code
            for v in range(self.n):
                c[v] = x % self.num_colors
                x //= self.num_colors
            yield c


def splitter_family_size(n: int, k: int) -> float:
    """Size of the compressed (splitter-based) family the O(log n)-factor
    derandomization uses: ``e^{2k} (2k)^{O(log 2k)} log n`` members
    [Naor--Schulman--Srinivasan; the route referenced via [15]].

    We report the standard ``e^{2k} * (2k)^{ceil(log2(2k))} * ceil(log2 n)``
    instantiation.  Note this is *poly-log in n* -- the promised O(log n)
    factor -- versus ``(2k)^{2k}`` expected repetitions for the randomized
    algorithm; the two meet at constant k.
    """
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 and n >= 2")
    t = 2 * k
    return math.e**t * t ** math.ceil(math.log2(t)) * math.ceil(math.log2(n))


@dataclass(frozen=True)
class _FamilyFactory:
    """Picklable factory: iteration ``t`` colors by the ``t``-th seed."""

    k: int
    edge_constant: float
    family: Any
    seeds: Tuple[Tuple[int, ...], ...]

    def __call__(self, iteration: int) -> EvenCycleIterationAlgorithm:
        src = OracleColorSource(
            self.k, self.family.coloring(self.seeds[iteration]), default=0
        )
        return EvenCycleIterationAlgorithm(
            self.k, edge_constant=self.edge_constant, color_source=src
        )


def detect_even_cycle_deterministic(
    graph: nx.Graph,
    k: int,
    seeds: Sequence[Sequence[int]],
    family: Optional[PolynomialColorFamily] = None,
    bandwidth: Optional[int] = None,
    edge_constant: float = 1.0,
    session: Optional["RunSession"] = None,
) -> AmplifiedReport:
    """Run the Theorem 1.1 algorithm deterministically over family seeds.

    ``seeds`` index members of ``family`` (defaults to the polynomial
    family sized for the graph).  No randomness is consumed anywhere:
    detection is reproducible bit for bit, and completeness on a cycle is
    inherited from family coverage of that cycle's vertex set.  The
    family walk runs as one amplification (iteration ``t`` colors by
    ``seeds[t]``), stopping at the first detecting member.  It is one
    ``session.amplify`` call, so the session's policy (jobs, lane,
    bandwidth, ...) applies and a recorded session gets one ``amplified``
    event.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    n = graph.number_of_nodes()
    if family is None:
        family = PolynomialColorFamily(n, k)
    sched = IterationSchedule.build(n, k, edge_constant)
    amp = ses.amplify(
        graph,
        _FamilyFactory(k, edge_constant, family, tuple(map(tuple, seeds))),
        len(seeds),
        seed=0,
        bandwidth=ses.resolve_bandwidth(bandwidth, required_bandwidth(n, k)),
        max_rounds=sched.total_rounds + 1,
        label=f"even-cycle-C{2 * k}",
    )
    return AmplifiedReport.from_outcome(amp, sched.total_rounds, schedule=sched)

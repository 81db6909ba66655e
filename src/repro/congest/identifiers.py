"""Identifier namespaces and assignments.

Several results in the paper are statements *about identifiers*:

* Theorem 4.1 assumes a namespace of size ``N = 3n`` split into three equal
  disjoint parts ``N0, N1, N2`` and quantifies over the adversary's choice of
  one identifier per part (:func:`partitioned_namespace`).
* Theorem 5.1 assigns each node an identifier drawn uniformly at random from
  ``[n^3]`` -- with a small probability of collision the proof has to sweat
  about (:func:`random_assignment` reproduces exactly that distribution,
  collisions included).
* Upper-bound algorithms assume unique IDs from a namespace of size
  ``poly(n)`` (:func:`canonical_assignment`).

An *assignment* is a dict ``{vertex: identifier}``; the simulator relabels
the input graph with it before running.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "canonical_assignment",
    "identifier_order",
    "random_assignment",
    "partitioned_namespace",
    "adversarial_assignment",
]


def canonical_assignment(vertices: Sequence[Hashable]) -> Dict[Hashable, int]:
    """Assign IDs ``0..n-1`` in iteration order (unique, deterministic)."""
    return {v: i for i, v in enumerate(vertices)}


def identifier_order(vertices: Iterable[Hashable]) -> List[Hashable]:
    """The vertex order a default network numbers ``0..n-1``.

    Sorted when the vertices are mutually comparable, else iteration
    (insertion) order -- so for unsortable vertex sets the identifiers
    depend on how the graph was built.  Anything keyed by "the same
    network" (the amplification network token) must use this order too.
    """
    ordered = list(vertices)
    try:
        return sorted(ordered)
    except TypeError:
        return ordered


def random_assignment(
    vertices: Sequence[Hashable],
    namespace_size: int,
    rng: np.random.Generator,
    unique: bool = True,
) -> Dict[Hashable, int]:
    """Assign identifiers uniformly at random from ``[namespace_size]``.

    With ``unique=True`` (the default) a random *injective* assignment is
    drawn, which is what upper-bound algorithms assume.  With
    ``unique=False`` identifiers are drawn independently -- the Theorem 5.1
    input distribution, where collisions occur with probability
    ``O(1/n)`` and the analysis conditions on their absence.
    """
    n = len(vertices)
    if unique:
        if namespace_size < n:
            raise ValueError(
                f"namespace of size {namespace_size} cannot uniquely name {n} vertices"
            )
        ids = rng.choice(namespace_size, size=n, replace=False)
    else:
        ids = rng.integers(0, namespace_size, size=n)
    return {v: int(i) for v, i in zip(vertices, ids)}


def partitioned_namespace(n_per_part: int, parts: int = 3) -> List[range]:
    """Split the namespace ``[parts * n_per_part]`` into equal disjoint parts.

    Part ``i`` is ``range(i * n_per_part, (i+1) * n_per_part)``.  Theorem 4.1
    uses ``parts=3`` and considers the triangle class
    ``{Δ(u0,u1,u2) | u_i ∈ N_i}``.
    """
    return [range(i * n_per_part, (i + 1) * n_per_part) for i in range(parts)]


def adversarial_assignment(
    vertices: Sequence[Hashable],
    ids: Sequence[int],
) -> Dict[Hashable, int]:
    """Assign explicitly-chosen identifiers (the lower-bound adversary's move)."""
    if len(ids) != len(vertices):
        raise ValueError("need exactly one identifier per vertex")
    if len(set(ids)) != len(ids):
        raise ValueError("adversarial assignments must be injective")
    return {v: int(i) for v, i in zip(vertices, ids)}

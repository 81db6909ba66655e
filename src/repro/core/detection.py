"""The one-call public API: classify ``H``, pick the right detector.

The paper's message is that subgraph detection's difficulty depends
dramatically on what ``H`` is: trees are O(1) [12], even cycles sublinear
(Theorem 1.1), odd cycles and cliques linear [10], and some graphs nearly
quadratic (Theorem 1.2).  :func:`detect` operationalizes that map --

=================  ===========================================  ============
pattern class      algorithm                                    rounds
=================  ===========================================  ============
single edge/K_2    trivial local check                          0
tree               color-coded DP (:mod:`tree_detection`)       O(1)
triangle/K_3       neighbor exchange (:mod:`triangle`)          O(Δ log n/B)
clique K_s         bitmap shipping (:mod:`clique_detection`)    O(n/B)
even cycle C_2k    Theorem 1.1 (:mod:`even_cycle`)              O(n^{1-1/(k(k-1))})
odd cycle C_2k+1   linear color-BFS                             O(n)
anything else      LOCAL ball collection (unbounded messages)   O(|H|)
=================  ===========================================  ============

The fallback row is honest about its model: for general ``H`` no good
CONGEST algorithm is known (and by Theorem 1.2 none exists for some ``H``),
so the dispatcher switches to the LOCAL model and says so in the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional

import networkx as nx

from ..runtime.policy import seeds_for_confidence
from .clique_detection import detect_clique
from .color_coding import success_probability
from .cycle_detection_linear import detect_cycle_linear, linear_success_probability
from .even_cycle import detect_even_cycle
from .generic_detection import detect_subgraph_local
from .tree_detection import detect_tree, tree_success_probability
from .triangle import detect_triangle_congest

__all__ = ["classify_pattern", "detect", "DetectOutcome"]


def classify_pattern(pattern: nx.Graph) -> str:
    """One of: ``empty``, ``edge``, ``tree``, ``triangle``, ``clique``,
    ``even-cycle``, ``odd-cycle``, ``general``."""
    n = pattern.number_of_nodes()
    m = pattern.number_of_edges()
    if n == 0:
        return "empty"
    if m == 0:
        return "empty"  # isolated vertices are present in any graph with >= n nodes
    if n == 2 and m == 1:
        return "edge"
    if m == n - 1 and nx.is_connected(pattern):
        return "tree"
    if n == 3 and m == 3:
        return "triangle"
    if m == n * (n - 1) // 2 and n >= 3:
        return "clique"
    degrees = {d for _, d in pattern.degree()}
    if degrees == {2} and nx.is_connected(pattern) and m == n:
        return "even-cycle" if n % 2 == 0 else "odd-cycle"
    return "general"


@dataclass
class DetectOutcome:
    """Result of a dispatched detection."""

    detected: bool
    pattern_class: str
    algorithm: str
    model: str  # "CONGEST" or "LOCAL"
    rounds: int
    details: Dict[str, Any]

    #: Randomized algorithms have one-sided error: ``detected=True`` is
    #: always a certificate; ``detected=False`` may be a miss with
    #: probability <= ``miss_probability``.
    miss_probability: float = 0.0


def detect(
    graph: nx.Graph,
    pattern: nx.Graph,
    bandwidth: Optional[int] = None,
    seed: int = 0,
    target_confidence: float = 2.0 / 3.0,
    max_iterations: Optional[int] = None,
    session: Optional["RunSession"] = None,
) -> DetectOutcome:
    """Detect ``pattern`` in ``graph`` with the best algorithm we have.

    ``target_confidence`` sizes the amplification of the randomized
    detectors through :func:`~repro.runtime.policy.seeds_for_confidence`
    with each detector's own per-iteration success probability (capped by
    ``max_iterations`` to keep simulations finite at large k; a miss is
    reported as ``miss_probability = (1 - p)^t`` over the ``t`` seeds
    run).  ``bandwidth`` and every default behind it belong to the
    detector the dispatcher picks.  A ``session``'s
    :class:`~repro.runtime.policy.ExecutionPolicy` (jobs, metrics mode,
    bandwidth, ...) is threaded through to that detector.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    kind = classify_pattern(pattern)

    if kind == "empty":
        ok = graph.number_of_nodes() >= pattern.number_of_nodes()
        return DetectOutcome(ok, kind, "trivial", "CONGEST", 0, {})
    if kind == "edge":
        ok = graph.number_of_edges() >= 1
        return DetectOutcome(ok, kind, "trivial", "CONGEST", 0, {})

    if kind == "triangle":
        res = detect_triangle_congest(
            graph, bandwidth=bandwidth, seed=seed, session=ses
        )
        return DetectOutcome(
            res.rejected, kind, "neighbor exchange", "CONGEST", res.rounds,
            {"bits": res.metrics.total_bits},
        )

    if kind == "clique":
        s = pattern.number_of_nodes()
        res = detect_clique(
            graph, s, bandwidth=bandwidth, seed=seed, session=ses
        )
        return DetectOutcome(
            res.rejected, kind, "bitmap shipping [10]", "CONGEST", res.rounds, {}
        )

    if kind in ("tree", "even-cycle", "odd-cycle"):
        h = pattern.number_of_nodes()
        if kind == "tree":
            p = tree_success_probability(h)
            algorithm = "color-coded tree DP [12]"
            run = functools.partial(detect_tree, graph, pattern)
        elif kind == "even-cycle":
            p = success_probability(h // 2)
            algorithm = "Theorem 1.1 (sublinear)"
            run = functools.partial(detect_even_cycle, graph, h // 2)
        else:
            p = linear_success_probability(h)
            algorithm = "linear color-BFS"
            run = functools.partial(detect_cycle_linear, graph, h)
        iterations = seeds_for_confidence(target_confidence, p)
        if max_iterations is not None:
            iterations = max(1, min(iterations, max_iterations))
        rep = run(iterations, seed=seed, bandwidth=bandwidth, session=ses)
        return DetectOutcome(
            rep.detected, kind, algorithm, "CONGEST", rep.total_rounds,
            {"iterations": rep.iterations_run,
             "rounds_per_iteration": rep.rounds_per_iteration},
            miss_probability=(
                0.0 if rep.detected else (1.0 - p) ** rep.iterations_run
            ),
        )

    # General H: fall back to LOCAL (and say so) -- by Theorem 1.2 there is
    # no universally fast CONGEST algorithm to dispatch to.
    res = detect_subgraph_local(graph, pattern, seed=seed, session=ses)
    return DetectOutcome(
        res.detected, kind, "LOCAL ball collection (no fast CONGEST "
        "algorithm exists for general H: Theorem 1.2)", "LOCAL",
        res.rounds,
        {"max_message_bits": res.max_message_bits},
    )

"""The paper's algorithms: Theorem 1.1 and every baseline it plays against.

* :mod:`~repro.core.even_cycle` -- Theorem 1.1, sublinear ``C_{2k}``
  detection (color coding + pipelined BFS + layer decomposition).
* :mod:`~repro.core.cycle_detection_linear` -- the O(n) any-cycle baseline.
* :mod:`~repro.core.triangle` -- CONGEST triangle detection and the
  one-round protocols of Section 5.
* :mod:`~repro.core.tree_detection` -- O(1)-round trees [12].
* :mod:`~repro.core.clique_detection` -- O(n)-round cliques [10].
* :mod:`~repro.core.listing` -- congested-clique s-clique listing.
* :mod:`~repro.core.generic_detection` -- LOCAL O(|H|)-round detection.
"""

from .clique_detection import CliqueDetection, VectorizedCliqueDetection, detect_clique
from .color_coding import (
    AmplifiedReport,
    ColorSource,
    OracleColorSource,
    RandomColorSource,
    is_properly_colored_cycle,
    proper_coloring_for_cycle,
    success_probability,
)
from .cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
    detect_cycle_linear,
)
from .detection import DetectOutcome, classify_pattern, detect
from .decomposition import LayerDecomposition, layer_decomposition, peel_threshold
from .derandomize import (
    ExhaustiveColorFamily,
    PolynomialColorFamily,
    detect_even_cycle_deterministic,
    next_prime,
    splitter_family_size,
)
from .even_cycle import (
    EvenCycleIterationAlgorithm,
    IterationSchedule,
    detect_even_cycle,
    required_bandwidth,
)
from .generic_detection import LocalDetectionResult, detect_subgraph_local
from .property_testing import (
    TriangleFreenessTester,
    distance_to_triangle_freeness_lower_bound,
    edge_disjoint_triangle_packing,
    rounds_for_epsilon,
    test_triangle_freeness,
)
from .listing import (
    CliqueListingAlgorithm,
    CliqueListingPlan,
    CliqueListingResult,
    list_cliques_congested_clique,
)
from .tree_detection import (
    RootedTree,
    TreeDetectionIteration,
    detect_tree,
)
from .triangle_listing import (
    TriangleListingCongest,
    TriangleListingOutcome,
    list_triangles_congest,
)
from .triangle import (
    FullAnnouncementProtocol,
    HashSketchProtocol,
    NeighborExchangeTriangleDetection,
    OneRoundOutcome,
    OneRoundProtocol,
    SilentProtocol,
    TruncatedAnnouncementProtocol,
    detect_triangle_congest,
    run_one_round_protocol,
)

__all__ = [
    "CliqueDetection",
    "VectorizedCliqueDetection",
    "detect_clique",
    "AmplifiedReport",
    "ColorSource",
    "OracleColorSource",
    "RandomColorSource",
    "is_properly_colored_cycle",
    "proper_coloring_for_cycle",
    "success_probability",
    "LinearCycleIterationAlgorithm",
    "VectorizedLinearCycle",
    "detect_cycle_linear",
    "DetectOutcome",
    "classify_pattern",
    "detect",
    "LayerDecomposition",
    "layer_decomposition",
    "peel_threshold",
    "ExhaustiveColorFamily",
    "PolynomialColorFamily",
    "detect_even_cycle_deterministic",
    "next_prime",
    "splitter_family_size",
    "EvenCycleIterationAlgorithm",
    "IterationSchedule",
    "detect_even_cycle",
    "required_bandwidth",
    "LocalDetectionResult",
    "detect_subgraph_local",
    "CliqueListingAlgorithm",
    "CliqueListingPlan",
    "CliqueListingResult",
    "list_cliques_congested_clique",
    "TriangleFreenessTester",
    "distance_to_triangle_freeness_lower_bound",
    "edge_disjoint_triangle_packing",
    "rounds_for_epsilon",
    "test_triangle_freeness",
    "RootedTree",
    "TreeDetectionIteration",
    "detect_tree",
    "TriangleListingCongest",
    "TriangleListingOutcome",
    "list_triangles_congest",
    "FullAnnouncementProtocol",
    "HashSketchProtocol",
    "NeighborExchangeTriangleDetection",
    "OneRoundOutcome",
    "OneRoundProtocol",
    "SilentProtocol",
    "TruncatedAnnouncementProtocol",
    "detect_triangle_congest",
    "run_one_round_protocol",
]

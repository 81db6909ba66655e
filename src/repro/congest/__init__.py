"""Distributed-model simulators: CONGEST, LOCAL, and the Congested Clique.

This package is Substrate 1 of the reproduction (see DESIGN.md): a
synchronous, bit-exact message-passing engine on which every algorithm and
every lower-bound adversary in the paper runs.
"""

from .algorithm import WAKE_NEVER, Algorithm, Decision, NodeContext, broadcast, silent
from .broadcast_model import (
    BroadcastAlgorithm,
    BroadcastNetwork,
    BroadcastViolation,
    run_broadcast_congest,
)
from .congested_clique import CongestedClique, run_congested_clique
from .identifiers import (
    adversarial_assignment,
    canonical_assignment,
    partitioned_namespace,
    random_assignment,
)
from .kernels import BACKENDS, BackendUnavailable, KernelProfile, backend_available
from .local_model import BallCollection, LocalNetwork, run_local
from .message import BandwidthExceeded, Message, id_width, int_width
from .metrics import (
    DEFAULT_ROUND_WINDOW,
    CommMetrics,
    LiteLedgerGuard,
    MetricsModeError,
    RoundLedger,
)
from .network import CongestNetwork, ExecutionResult, run_congest
from .parallel import AmplifiedOutcome, IterationOutcome, run_amplified, shutdown_pools
from .sanitizer import AliasGuard, SanitizerViolation, VecTrafficDigest
from .shm import GRAPH_SHARE_MIN_NODES, release_shared_graphs
from .vectorized import (
    VEC_ACCEPT,
    VEC_REJECT,
    VEC_UNDECIDED,
    EdgeIndex,
    VecInbox,
    VecOutbox,
    VecRun,
    VectorizedAlgorithm,
    execute_vectorized,
    execute_vectorized_reference,
)

__all__ = [
    "WAKE_NEVER",
    "Algorithm",
    "BroadcastAlgorithm",
    "BroadcastNetwork",
    "BroadcastViolation",
    "run_broadcast_congest",
    "Decision",
    "NodeContext",
    "broadcast",
    "silent",
    "CongestedClique",
    "run_congested_clique",
    "adversarial_assignment",
    "canonical_assignment",
    "partitioned_namespace",
    "random_assignment",
    "BallCollection",
    "LocalNetwork",
    "run_local",
    "BandwidthExceeded",
    "Message",
    "id_width",
    "int_width",
    "CommMetrics",
    "MetricsModeError",
    "RoundLedger",
    "LiteLedgerGuard",
    "DEFAULT_ROUND_WINDOW",
    "BACKENDS",
    "BackendUnavailable",
    "KernelProfile",
    "backend_available",
    "GRAPH_SHARE_MIN_NODES",
    "release_shared_graphs",
    "CongestNetwork",
    "ExecutionResult",
    "run_congest",
    "AmplifiedOutcome",
    "IterationOutcome",
    "run_amplified",
    "shutdown_pools",
    "AliasGuard",
    "SanitizerViolation",
    "VecTrafficDigest",
    "VEC_ACCEPT",
    "VEC_REJECT",
    "VEC_UNDECIDED",
    "EdgeIndex",
    "VecInbox",
    "VecOutbox",
    "VecRun",
    "VectorizedAlgorithm",
    "execute_vectorized",
    "execute_vectorized_reference",
]

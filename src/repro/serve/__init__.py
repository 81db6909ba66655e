"""Detection-as-a-service: the asyncio serving layer over the engine.

The runtime grew everything a long-lived daemon needs -- persistent
worker pools, a stable :meth:`~repro.runtime.policy.ExecutionPolicy.policy_hash`,
the construction cache, the peak-hold governor -- but structured around
one-shot CLI invocations.  This package re-layers it for requests:

:mod:`~repro.serve.protocol`
    The JSONL-over-TCP wire format (stdlib only): request parsing, graph
    specs (generated families or uploaded edge lists), construction
    fingerprints, and the cache/coalescing key anatomy.
:mod:`~repro.serve.admission`
    Deterministic request admission + back-pressure: in-flight work is
    bounded off the :class:`~repro.runtime.governor.PeakHoldGovernor`
    estimate, with explicit admit / queue / reject outcomes.
:mod:`~repro.serve.cache`
    The policy-keyed result cache: LRU over (construction fingerprint,
    pattern, policy hash, seed block) with hit/miss counters.
:mod:`~repro.serve.coalesce`
    The batch coalescer: compatible requests (same construction + policy
    hash + seed block) share one amplification batch; followers derive
    their answers from the leader's ordered seed outcomes bit-identically
    (:func:`~repro.congest.parallel.prefix_outcome`).
:mod:`~repro.serve.executor`
    Request execution against a :class:`~repro.runtime.session.RunSession`:
    each pattern class calls its standalone detector, so served responses
    diff clean against direct runs.
:mod:`~repro.serve.server`
    The asyncio server tying the layers together, streaming
    :class:`~repro.runtime.record.RunRecord` JSONL per request plus a
    ``stats`` snapshot endpoint; ``repro serve`` on the CLI.  Deadlines,
    leader re-election, and journal-backed cache recovery live here
    (see ``docs/serving.md`` for the guarantees table).

Design rule, enforced by deep-lint rule L8: modules in this package hold
**no mutable module-level state**.  Every counter, cache, queue, and
registry lives on an instance owned by the server or the engine core, so
a server's lifecycle bounds its state and pool workers never fork a
stale copy.
"""

from .admission import AdmissionController
from .cache import CacheJournal, ResultCache
from .coalesce import BatchCoalescer, LeaderDied
from .executor import (
    ServeResult,
    decode_result,
    derive_follower,
    encode_result,
    execute_request,
)
from .protocol import (
    DetectRequest,
    ProtocolError,
    build_graph,
    construction_fingerprint,
    parse_request,
)
from .server import (
    DeadlineExceeded,
    DetectionServer,
    OverloadError,
    ServerStats,
)

__all__ = [
    "AdmissionController",
    "BatchCoalescer",
    "CacheJournal",
    "DeadlineExceeded",
    "DetectRequest",
    "DetectionServer",
    "LeaderDied",
    "OverloadError",
    "ProtocolError",
    "ResultCache",
    "ServeResult",
    "ServerStats",
    "build_graph",
    "construction_fingerprint",
    "decode_result",
    "derive_follower",
    "encode_result",
    "execute_request",
    "parse_request",
]

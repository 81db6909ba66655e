"""The execution runtime: policies, sessions, and run artifacts.

Every knob the engine grew over the previous PRs -- execution lane
(object / vectorized), process-pool amplification (``jobs``), metrics
mode (``full`` / ``lite``), the runtime sanitizer, bandwidth, the model
variant (CONGEST / broadcast / LOCAL / congested clique), seeding, and
construction caching -- used to be threaded through every detector,
experiment, and CLI path as a separate keyword argument.  This package
is the single chassis that replaces that sprawl:

``ExecutionPolicy``
    A frozen, validated bundle of all engine knobs -- the one way to
    configure a run -- built directly, from a dict, or from a
    ``key=value`` CLI spec, plus a stable content hash for stamping
    artifacts.  Nothing here reads the environment.
``ExecutionEngine``
    The execution core: the blocking run/amplify primitives (the
    amplification's pool ladder included) plus a submit/await surface over a bounded
    orchestration thread pool, shared by sessions and the serving layer
    (:mod:`repro.serve`).  One :func:`default_engine` per process unless
    a client injects its own.
``RunSession``
    A client of the engine that owns the caller-facing scope: it builds
    the right network for the policy's model variant, applies
    lane/metrics/sanitize on every run, fans amplified iterations over
    the persistent worker pool with the policy's ``jobs``, scopes the
    construction cache, and (as a context manager) shuts the worker
    pools down on exit.
``RunRecord``
    A structured run artifact: policy snapshot, git SHA, platform stamp,
    and one trace event per engine run (seed, decision, rounds, bit
    totals, per-round bits), written and re-loaded as JSONL so two runs
    can be diffed (:func:`diff_records`).
``SweepCheckpoint``
    Cell-level checkpoint/resume over a sweep's run record: completed
    (label, seed, n) cells are journaled with an atomic flush and skipped
    on resume, and a resumed sweep's final record diffs clean against an
    uninterrupted one (see ``docs/robustness.md``).

Detectors and experiments accept ``session=`` and route through it; their
old keyword arguments remain as thin shims that build a policy
internally, so results are bit-identical for fixed seeds either way.
"""

from .checkpoint import CheckpointError, SweepCheckpoint, cell_key
from .engine import ExecutionEngine, default_engine, shutdown_default_engine
from .governor import GovernorStateStore, PeakHoldGovernor
from .policy import (
    LANES,
    MODELS,
    ExecutionPolicy,
    PolicyError,
    seeds_for_confidence,
)
from .record import (
    RunRecord,
    TraceEvent,
    diff_records,
    git_sha,
    platform_stamp,
)
from .session import RunSession, use_session

__all__ = [
    "CheckpointError",
    "SweepCheckpoint",
    "cell_key",
    "ExecutionEngine",
    "default_engine",
    "shutdown_default_engine",
    "ExecutionPolicy",
    "PeakHoldGovernor",
    "GovernorStateStore",
    "PolicyError",
    "seeds_for_confidence",
    "LANES",
    "MODELS",
    "RunSession",
    "use_session",
    "RunRecord",
    "TraceEvent",
    "diff_records",
    "git_sha",
    "platform_stamp",
]

"""Request execution: every pattern class is a call to its detector.

:func:`execute_request` is the single function standing between a parsed
:class:`~repro.serve.protocol.DetectRequest` and the runtime: it builds
the graph, opens a recording :class:`~repro.runtime.session.RunSession`
(a *client* of the shared engine -- ``owns_pools=False``), and calls the
standalone detector the pattern names (``detect_triangle_congest``,
``detect_clique``, ``detect_even_cycle``, ``detect_cycle_linear``,
``detect_tree``) with the request's seed, iterations and bandwidth.  The
executor keeps no copy of any detector parameter: bandwidth defaults,
round budgets, success probabilities and labels belong to the detectors,
and the label comes back from the recorded event.  So a served
response's record diffs clean (:func:`~repro.runtime.record.diff_records`)
against a recorded session calling the detector directly, and against
``repro detect --record``, which ``tests/serve/test_executor_parity.py``
asserts for every pattern class under each lane and metrics mode; the
other ``tests/serve/`` suites check cache hits and coalesced followers
against ``execute_request``.

Amplified patterns (cycles, paths) run one ``session.amplify`` -- one
``amplified`` trace event carrying the ordered per-iteration outcomes --
and their report carries that
:class:`~repro.congest.parallel.AmplifiedOutcome`, the shape the batch
coalescer derives follower answers from: :func:`derive_follower` replays
the pure stopping rule over the leader's ordered outcomes
(:func:`repro.congest.parallel.prefix_outcome`) and synthesizes a record
that is indistinguishable from having run the follower directly.
Single-run patterns (triangle, cliques) produce one ``run`` trace event.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..congest.parallel import (
    AmplifiedOutcome,
    IterationOutcome,
    prefix_outcome,
)
from ..core.clique_detection import detect_clique
from ..core.cycle_detection_linear import detect_cycle_linear
from ..core.even_cycle import detect_even_cycle
from ..core.tree_detection import detect_tree
from ..core.triangle import detect_triangle_congest
from ..graphs import generators
from ..runtime.engine import ExecutionEngine
from ..runtime.governor import PeakHoldGovernor
from ..runtime.policy import ExecutionPolicy
from ..runtime.record import (
    RunRecord,
    event_from_amplified,
    git_sha,
    platform_stamp,
)
from ..runtime.session import RunSession
from .protocol import DetectRequest, ProtocolError, build_graph

__all__ = [
    "RecordStamp",
    "ServeResult",
    "decode_result",
    "derive_follower",
    "encode_result",
    "execute_request",
]


@dataclass(frozen=True)
class RecordStamp:
    """Captured-once attribution for synthesized records.

    ``git_sha`` is memoized per process and ``platform_stamp`` costs
    about a microsecond, so the stamp saves no per-record work.  What it
    does do: the server captures it at construction, so the process's
    one ``git`` spawn happens at start-up, not inside the first
    request's execution.
    """

    git_sha: str
    platform: Dict[str, str]

    @classmethod
    def capture(cls) -> "RecordStamp":
        return cls(git_sha=git_sha(), platform=platform_stamp())


@dataclass
class ServeResult:
    """Everything the serving layers need from one executed request.

    ``rows`` is the response's record as parsed JSONL rows (header,
    events, footer) ready to stream; ``outcome`` carries the ordered
    iteration outcomes for amplified patterns so the coalescer can derive
    follower results; single-run patterns leave it ``None``.
    """

    payload: Dict[str, Any]
    rows: List[Dict[str, Any]]
    amplified: bool
    label: str
    outcome: Optional[AmplifiedOutcome] = None


def _fresh_record(policy: ExecutionPolicy, stamp: Optional[RecordStamp]) -> RunRecord:
    if stamp is None:
        return RunRecord.start(policy)
    return RunRecord(
        policy=policy.as_dict(),
        policy_hash=policy.policy_hash(),
        git_sha=stamp.git_sha,
        platform=stamp.platform,
        started_unix=time.time(),
    )


def _record_rows(record: RunRecord) -> List[Dict[str, Any]]:
    rows = [json.loads(record.header_line())]
    rows.extend(json.loads(RunRecord.event_line(e)) for e in record.events)
    rows.append(json.loads(record.footer_line()))
    return rows


def _amplified_payload(amp: AmplifiedOutcome) -> Dict[str, Any]:
    return {
        "detected": amp.rejected,
        "iterations_run": amp.iterations_run,
        "seeds_requested": amp.seeds_requested,
        "seeds_saved": amp.seeds_saved,
        "stop_reason": amp.stop_reason,
        "total_bits": amp.total_bits,
        "total_messages": amp.total_messages,
    }


def _tuplize(value: Any) -> Any:
    """Recursively restore JSON lists to the tuples the runtime uses.

    Witness and rejecting-node fields are tuples (hashable, comparable)
    before a journal round-trip turns them into lists; decoding must
    restore the exact shapes or a journal-warm hit would not be
    bit-identical to the live result it replays.
    """
    if isinstance(value, list):
        return tuple(_tuplize(v) for v in value)
    return value


def encode_result(result: ServeResult) -> Dict[str, Any]:
    """The JSON-serializable form of a :class:`ServeResult`.

    Everything the cache journal persists for one entry: payload, record
    rows, and -- for amplified patterns -- the ordered per-iteration
    outcomes, so a restored entry can still seed follower derivation
    (:func:`derive_follower`) exactly like a live one.
    """
    amp = None
    if result.outcome is not None:
        amp = {
            "rejected": result.outcome.rejected,
            "first_reject": result.outcome.first_reject,
            "iterations_run": result.outcome.iterations_run,
            "seeds_requested": result.outcome.seeds_requested,
            "target_accepts": result.outcome.target_accepts,
            "stop_reason": result.outcome.stop_reason,
            "outcomes": [
                [
                    o.index,
                    o.rejected,
                    o.rounds,
                    o.total_bits,
                    o.total_messages,
                    o.max_message_bits,
                    list(o.witnesses),
                    list(o.rejecting_nodes),
                ]
                for o in result.outcome.outcomes
            ],
        }
    return {
        "payload": result.payload,
        "rows": result.rows,
        "amplified": result.amplified,
        "label": result.label,
        "outcome": amp,
    }


def decode_result(obj: Dict[str, Any]) -> ServeResult:
    """Inverse of :func:`encode_result` (bit-exact round trip)."""
    amp = None
    raw = obj.get("outcome")
    if raw is not None:
        amp = AmplifiedOutcome(
            rejected=raw["rejected"],
            first_reject=raw["first_reject"],
            iterations_run=raw["iterations_run"],
            outcomes=[
                IterationOutcome(
                    index=row[0],
                    rejected=row[1],
                    rounds=row[2],
                    total_bits=row[3],
                    total_messages=row[4],
                    max_message_bits=row[5],
                    witnesses=_tuplize(row[6]),
                    rejecting_nodes=_tuplize(row[7]),
                )
                for row in raw["outcomes"]
            ],
            seeds_requested=raw["seeds_requested"],
            target_accepts=raw["target_accepts"],
            stop_reason=raw["stop_reason"],
        )
    return ServeResult(
        payload=obj["payload"],
        rows=obj["rows"],
        amplified=obj["amplified"],
        label=obj["label"],
        outcome=amp,
    )


def execute_request(
    req: DetectRequest,
    policy: ExecutionPolicy,
    *,
    engine: Optional[ExecutionEngine] = None,
    governor: Optional[PeakHoldGovernor] = None,
    stamp: Optional[RecordStamp] = None,
) -> ServeResult:
    """Execute one request under ``policy``; return payload + record rows.

    Blocking -- the server submits it to the engine's thread pool; tests
    and the bench baseline call it directly on a plain session, which is
    precisely what "bit-identical to a direct RunSession run" quantifies
    over.
    """
    graph = build_graph(req.graph_spec)
    record = _fresh_record(policy, stamp)
    ses = RunSession(
        policy,
        record=record,
        owns_pools=False,
        governor=governor,
        engine=engine,
    )
    kind, arg, bw = req.pattern_kind, req.pattern_arg, req.bandwidth
    amp: Optional[AmplifiedOutcome] = None
    try:
        if kind == "triangle":
            res = detect_triangle_congest(graph, bw, seed=req.seed, session=ses)
        elif kind == "clique":
            res = detect_clique(graph, arg, bw, seed=req.seed, session=ses)
        else:
            if kind == "even-cycle":
                detector, target = detect_even_cycle, arg
            elif kind == "odd-cycle":
                detector, target = detect_cycle_linear, arg
            elif kind == "tree":
                detector, target = detect_tree, generators.path(arg)
            else:  # pragma: no cover - parse_pattern bounds the kinds
                raise ProtocolError(f"unsupported pattern kind {kind!r}")
            amp = detector(
                graph, target, req.iterations, seed=req.seed, bandwidth=bw,
                session=ses,
            ).outcome
    finally:
        ses.close()
    if amp is None:
        payload = {
            "detected": res.rejected,
            "decision": res.decision.name,
            "rounds": res.rounds,
            "total_bits": res.metrics.total_bits,
            "total_messages": res.metrics.total_messages,
        }
    else:
        payload = _amplified_payload(amp)
    return ServeResult(
        payload=payload,
        rows=_record_rows(record),
        amplified=amp is not None,
        label=next(e.label for e in reversed(record.events) if e.kind != "note"),
        outcome=amp,
    )


def derive_follower(
    leader: ServeResult,
    req: DetectRequest,
    policy: ExecutionPolicy,
    stamp: Optional[RecordStamp] = None,
) -> ServeResult:
    """A follower's exact result, derived from its group leader's.

    No execution: the stopping rule is replayed over the prefix of the
    leader's ordered seed outcomes that the follower's budget covers
    (:func:`~repro.congest.parallel.prefix_outcome`), and a fresh record
    is synthesized around the derived event.  The result diffs clean
    against running the follower directly -- same policy hash, same
    event fields; only wall-clock (not compared) differs.

    Single-run leaders coalesce exact duplicates only, so their
    followers reuse the leader's rows as-is (the cache-replay shape).
    """
    if not leader.amplified:
        return ServeResult(
            payload=dict(leader.payload),
            rows=leader.rows,
            amplified=False,
            label=leader.label,
        )
    assert leader.outcome is not None
    cap = req.iterations
    if policy.amplify_max_seeds is not None:
        cap = min(cap, policy.amplify_max_seeds)
    amp = prefix_outcome(
        leader.outcome.outcomes,
        cap,
        stop_on_detect=True,
        target=leader.outcome.target_accepts,
    )
    # seeds_requested reports the caller's ask, pre max_seeds cap --
    # mirroring run_amplified, which caps execution but not the field.
    amp.seeds_requested = req.iterations
    record = _fresh_record(policy, stamp)
    record.add_event(
        event_from_amplified(leader.label, req.seed, amp, wall_ms=0.0)
    )
    record.finalize()
    return ServeResult(
        payload=_amplified_payload(amp),
        rows=_record_rows(record),
        amplified=True,
        label=leader.label,
        outcome=amp,
    )

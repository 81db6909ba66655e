"""Structured run artifacts: trace events, JSONL records, and diffs.

A :class:`RunRecord` captures *what actually executed* under a
:class:`~repro.runtime.session.RunSession`: the full policy snapshot (and
its content hash), the generating git SHA, a platform stamp, wall-clock
timing, and one :class:`TraceEvent` per engine run -- seed, decision,
round count, aggregate bit totals, and the per-round bit trace
(``CommMetrics.round_bits``, available in both metrics modes).

The on-disk format is JSONL: a ``header`` line, one ``event`` line per
trace event, and a ``footer`` line.  :meth:`RunRecord.load` round-trips
it, and :func:`diff_records` compares two records field by field --
the tool for answering "what changed between these two runs?" across
policies, commits, or machines.
"""

from __future__ import annotations

import functools
import json
import platform as _platform
import subprocess
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import durable
from .policy import ExecutionPolicy

__all__ = [
    "TraceEvent",
    "RunRecord",
    "diff_records",
    "git_sha",
    "platform_stamp",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: On-disk format version, bumped on incompatible JSONL layout changes.
RECORD_FORMAT = 1


@functools.lru_cache(maxsize=None)
def git_sha() -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout.

    Asked once per process: every record stamps the same checkout, so
    later calls reuse the first answer instead of spawning ``git``.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        return proc.stdout.strip()
    except Exception:
        return "unknown"


def platform_stamp() -> Dict[str, str]:
    """Host attribution: interpreter, implementation, machine, OS."""
    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "machine": _platform.machine(),
        "system": _platform.system(),
    }


@dataclass
class TraceEvent:
    """One engine run (or amplified fan-out) inside a session.

    ``round_bits`` is the per-round communication trace as sorted
    ``[round, bits]`` pairs -- exact in both metrics modes.  For
    amplified events the aggregates sum over the executed iterations and
    ``rounds`` counts the per-iteration round budget actually billed.
    """

    kind: str  # "run" | "amplified" | "note"
    label: str
    seed: Optional[int] = None
    decision: Optional[str] = None
    rounds: Optional[int] = None
    total_bits: Optional[int] = None
    total_messages: Optional[int] = None
    round_bits: List[List[int]] = field(default_factory=list)
    wall_ms: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        known = {
            "kind", "label", "seed", "decision", "rounds",
            "total_bits", "total_messages", "round_bits", "wall_ms", "extra",
        }
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class RunRecord:
    """Everything needed to attribute, replay, and diff a session's runs."""

    policy: Dict[str, Any]
    policy_hash: str
    git_sha: str
    platform: Dict[str, str]
    started_unix: float
    finished_unix: Optional[float] = None
    events: List[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Not a dataclass field: a lock must not ride into asdict() /
        # pickle.  Appends from concurrent engine threads (a session
        # shared by many asyncio tasks) serialize on it, so the event
        # list never interleaves partially-constructed writes.
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @classmethod
    def start(cls, policy: ExecutionPolicy) -> "RunRecord":
        """Open a record for a session running under ``policy``."""
        return cls(
            policy=policy.as_dict(),
            policy_hash=policy.policy_hash(),
            git_sha=git_sha(),
            platform=platform_stamp(),
            started_unix=time.time(),
        )

    def add_event(self, event: TraceEvent) -> TraceEvent:
        with self._lock:
            self.events.append(event)
        return event

    def note(self, label: str, **extra: Any) -> TraceEvent:
        """Append a free-form annotation event."""
        return self.add_event(TraceEvent(kind="note", label=label, extra=extra))

    def finalize(self) -> None:
        if self.finished_unix is None:
            self.finished_unix = time.time()

    # -- persistence ---------------------------------------------------
    def header_line(self) -> str:
        """The JSONL header line (no trailing newline)."""
        return json.dumps(
            {
                "type": "header",
                "format": RECORD_FORMAT,
                "policy": self.policy,
                "policy_hash": self.policy_hash,
                "git_sha": self.git_sha,
                "platform": self.platform,
                "started_unix": self.started_unix,
            },
            sort_keys=True,
        )

    @staticmethod
    def event_line(event: TraceEvent) -> str:
        """One JSONL event line (no trailing newline)."""
        return json.dumps({"type": "event", **event.as_dict()}, sort_keys=True)

    def footer_line(self) -> str:
        """The JSONL footer line (no trailing newline)."""
        return json.dumps(
            {
                "type": "footer",
                "finished_unix": self.finished_unix,
                "num_events": len(self.events),
            },
            sort_keys=True,
        )

    def write(self, path: "str | Path", final: bool = True) -> Path:
        """Atomically write the record as JSONL (header, events, footer).

        ``final=False`` skips the :meth:`finalize` stamp, so a record
        written mid-run is not marked finished.
        """
        if final:
            self.finalize()
        lines = [self.header_line()]
        lines.extend(self.event_line(e) for e in self.events)
        lines.append(self.footer_line())
        return durable.atomic_write(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "RunRecord":
        """Load a record written by :meth:`write` (strict round-trip)."""
        return cls.from_lines(Path(path).read_text().splitlines(), path)

    @classmethod
    def from_lines(cls, lines: List[Any], source: "str | Path") -> "RunRecord":
        """Parse JSONL record lines (``str`` or ``bytes``) strictly."""
        header: Optional[Dict[str, Any]] = None
        footer: Dict[str, Any] = {}
        events: List[TraceEvent] = []
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            kind = row.get("type") if isinstance(row, dict) else None
            if kind == "header":
                header = row
            elif kind == "event":
                events.append(TraceEvent.from_dict(row))
            elif kind == "footer":
                footer = row
            else:
                raise ValueError(f"{source}:{lineno}: unknown record line {kind!r}")
        if header is None:
            raise ValueError(f"{source}: no header line; not a RunRecord file")
        declared = footer.get("num_events")
        if declared is not None and declared != len(events):
            raise ValueError(
                f"{source}: footer declares {declared} events, "
                f"found {len(events)}"
            )
        return cls(
            policy=header["policy"],
            policy_hash=header["policy_hash"],
            git_sha=header["git_sha"],
            platform=header.get("platform", {}),
            started_unix=header["started_unix"],
            finished_unix=footer.get("finished_unix"),
            events=events,
        )


def diff_records(a: RunRecord, b: RunRecord) -> Dict[str, Any]:
    """Field-by-field comparison of two run records.

    Returns a dict with ``policy`` (changed fields -> ``[a, b]``),
    ``git_sha`` / ``policy_hash`` pairs when they differ, the event-count
    pair, and ``first_divergence``: the index and per-field deltas of the
    first trace event whose observable outcome (decision, rounds, bit
    totals, per-round trace) differs -- ``None`` when the traces agree.
    """
    out: Dict[str, Any] = {"identical": True}

    policy_delta = {
        key: [a.policy.get(key), b.policy.get(key)]
        for key in sorted(set(a.policy) | set(b.policy))
        if a.policy.get(key) != b.policy.get(key)
    }
    if policy_delta:
        out["policy"] = policy_delta
        out["identical"] = False
    if a.policy_hash != b.policy_hash:
        out["policy_hash"] = [a.policy_hash, b.policy_hash]
        out["identical"] = False
    if a.git_sha != b.git_sha:
        out["git_sha"] = [a.git_sha, b.git_sha]
        out["identical"] = False

    out["num_events"] = [len(a.events), len(b.events)]
    if len(a.events) != len(b.events):
        out["identical"] = False

    first_divergence: Optional[Dict[str, Any]] = None
    compared = ("kind", "label", "seed", "decision", "rounds",
                "total_bits", "total_messages", "round_bits")
    for i, (ea, eb) in enumerate(zip(a.events, b.events)):
        delta = {
            f: [getattr(ea, f), getattr(eb, f)]
            for f in compared
            if getattr(ea, f) != getattr(eb, f)
        }
        if delta:
            first_divergence = {"index": i, "fields": delta}
            out["identical"] = False
            break
    out["first_divergence"] = first_divergence
    return out


def _round_bits_trace(metrics: Any) -> List[List[int]]:
    """``CommMetrics.round_bits`` as sorted ``[round, bits]`` pairs."""
    rb: Dict[int, int] = getattr(metrics, "round_bits", {}) or {}
    return [[int(r), int(bits)] for r, bits in sorted(rb.items())]


def event_from_result(
    label: str,
    seed: Optional[int],
    result: Any,
    wall_ms: Optional[float] = None,
    **extra: Any,
) -> TraceEvent:
    """Build a ``run`` trace event from an ``ExecutionResult``."""
    m = result.metrics
    return TraceEvent(
        kind="run",
        label=label,
        seed=seed,
        decision=result.decision.name,
        rounds=result.rounds,
        total_bits=m.total_bits,
        total_messages=m.total_messages,
        round_bits=_round_bits_trace(m),
        wall_ms=wall_ms,
        extra=extra,
    )


def event_from_amplified(
    label: str,
    seed: Optional[int],
    outcome: Any,
    wall_ms: Optional[float] = None,
    **extra: Any,
) -> TraceEvent:
    """Build an ``amplified`` trace event from an ``AmplifiedOutcome``."""
    per_iteration: List[List[int]] = [
        [o.index, o.total_bits] for o in outcome.outcomes
    ]
    return TraceEvent(
        kind="amplified",
        label=label,
        seed=seed,
        decision="REJECT" if outcome.rejected else "ACCEPT",
        rounds=sum(o.rounds for o in outcome.outcomes),
        total_bits=outcome.total_bits,
        total_messages=outcome.total_messages,
        round_bits=per_iteration,
        wall_ms=wall_ms,
        extra={
            "iterations_run": outcome.iterations_run,
            "first_reject": outcome.first_reject,
            "seeds_requested": getattr(outcome, "seeds_requested", None),
            "target_accepts": getattr(outcome, "target_accepts", None),
            "stop_reason": getattr(outcome, "stop_reason", None),
            "seeds_saved": getattr(outcome, "seeds_saved", 0),
            **extra,
        },
    )

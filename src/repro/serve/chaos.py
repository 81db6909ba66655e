"""Deterministic infrastructure fault injection for the serving stack.

PR 5's :class:`~repro.faults.plan.FaultPlan` made *algorithm* failures --
dropped messages, crashed nodes, stalled rounds -- a replayable
experiment dimension.  This module does the same for *infrastructure*
failures: torn client connections, stalled requests, torn cache
journals, and slow engines.  The two compose: a server can run an
:class:`InfraFaultPlan` (``DetectionServer(chaos=...)`` / ``repro serve
--chaos``) while its base policy carries an algorithm-level fault plan,
and every decision on both levels is a pure SplitMix64 hash, so a chaos
run replays bit-identically.

Spec grammar (``|``-separated, like the fault grammar)::

    conn-drop:P | req-stall:R | cache-torn | engine-slow:MS | seed:S

* ``conn-drop:P`` -- probability the connection is severed instead of a
  response being written (the client sees EOF mid-stream);
* ``req-stall:R`` -- probability a request stalls inside the server: it
  holds its slot until its deadline fires (deterministic
  ``deadline-exceeded``) or the server drains it at shutdown;
* ``cache-torn`` -- the result-cache journal's first append is torn
  mid-line (a simulated crash mid-write; the restart-time load must
  drop the torn tail);
* ``engine-slow:MS`` -- every engine execution is delayed by ``MS``
  milliseconds (combined with deadlines this forces timeout paths);
* ``seed:S`` -- the schedule seed (default 0; there is no ambient master
  seed at the server, so the default is itself deterministic).

Probabilistic decisions are keyed by the server's *request sequence
number* -- the arrival index of each parsed detect request -- so a
replayed request sequence sees the identical fault schedule, which is
what makes the kill->restart->replay matrix in
``tests/serve/test_chaos.py`` provable rather than flaky.

Pool-worker deaths are not simulated here.  They are real process
faults with one owner, :func:`repro.congest.parallel.run_amplified`'s
ladder, and ``tests/serve/test_chaos.py`` exercises that ladder by
``SIGKILL``-ing live pool workers.

Everything stateful here is a frozen plan (deep-lint L8 bans non-frozen
dataclasses in this module: plans are journaled by their spec and must
not drift from it) or an instance-scoped injector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from ..faults.inject import mix64

__all__ = [
    "InfraFaultPlan",
    "InfraFaultSpecError",
    "InfraFaultInjector",
    "chaos_execute",
]

_TWO64 = 1 << 64

# Distinct odd 64-bit stream constants (same discipline as
# repro.faults.inject): one per decision dimension, so the conn-drop
# coin and the stall coin of the same request are independent.
_K_SEQ = 0x9E3779B97F4A7C15
_K_STREAM = 0x27D4EB2F165667C5

_STREAM_CONN_DROP = 11
_STREAM_REQ_STALL = 12


class InfraFaultSpecError(ValueError):
    """An invalid infra-fault spec string or plan field."""


@dataclass(frozen=True)
class InfraFaultPlan:
    """A validated, immutable description of serving-infrastructure faults.

    Fields mirror the spec grammar in the module docstring.  The plan is
    frozen for the same reason :class:`~repro.faults.plan.FaultPlan` is:
    it is hashed into records and journals by its canonical spec, and a
    mutated plan would silently diverge from what was journaled.
    """

    conn_drop: float = 0.0
    req_stall: float = 0.0
    cache_torn: bool = False
    engine_slow_ms: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("conn_drop", "req_stall"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise InfraFaultSpecError(
                    f"{name}: expected a probability, got {p!r}"
                )
            if not 0.0 <= float(p) <= 1.0:
                raise InfraFaultSpecError(
                    f"{name}: probability {p} outside [0, 1]"
                )
            object.__setattr__(self, name, float(p))
        if not isinstance(self.cache_torn, bool):
            raise InfraFaultSpecError(
                f"cache-torn: expected a flag, got {self.cache_torn!r}"
            )
        if not isinstance(self.engine_slow_ms, int) or isinstance(
            self.engine_slow_ms, bool
        ):
            raise InfraFaultSpecError(
                f"engine-slow: expected milliseconds, got {self.engine_slow_ms!r}"
            )
        if self.engine_slow_ms < 0:
            raise InfraFaultSpecError(
                f"engine-slow: negative delay {self.engine_slow_ms}"
            )
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise InfraFaultSpecError(f"seed: expected an int, got {self.seed!r}")

    # -- predicates ----------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.conn_drop == 0.0
            and self.req_stall == 0.0
            and not self.cache_torn
            and self.engine_slow_ms == 0
        )

    @property
    def probabilistic(self) -> bool:
        """True when the schedule draws coins (conn-drop or req-stall)."""
        return self.conn_drop > 0.0 or self.req_stall > 0.0

    # -- canonical spec ------------------------------------------------
    def spec(self) -> str:
        """Canonical spec; ``InfraFaultPlan.from_spec(p.spec()) == p``."""
        parts = []
        if self.conn_drop:
            parts.append(f"conn-drop:{float(self.conn_drop)!r}")
        if self.req_stall:
            parts.append(f"req-stall:{float(self.req_stall)!r}")
        if self.cache_torn:
            parts.append("cache-torn")
        if self.engine_slow_ms:
            parts.append(f"engine-slow:{self.engine_slow_ms}")
        if self.seed is not None:
            parts.append(f"seed:{self.seed}")
        return "|".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "conn_drop": self.conn_drop,
            "req_stall": self.req_stall,
            "cache_torn": self.cache_torn,
            "engine_slow_ms": self.engine_slow_ms,
            "seed": self.seed,
        }

    def merged(self, **overrides: Any) -> "InfraFaultPlan":
        """A copy with ``overrides`` applied (layering, like fault plans)."""
        return replace(self, **overrides)

    # -- parsing -------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "InfraFaultPlan":
        """Parse the chaos grammar (module docstring); strict on errors."""
        fields: Dict[str, Any] = {}
        for part in spec.split("|"):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition(":")
            key = key.strip()
            raw = raw.strip()
            if key == "cache-torn":
                if sep:
                    raise InfraFaultSpecError(
                        f"cache-torn is a flag and takes no value, got {part!r}"
                    )
                if "cache_torn" in fields:
                    raise InfraFaultSpecError("duplicate chaos field 'cache-torn'")
                fields["cache_torn"] = True
                continue
            if not sep or not key or not raw:
                raise InfraFaultSpecError(
                    f"bad chaos spec fragment {part!r}; expected key:value"
                )
            attr = {
                "conn-drop": "conn_drop",
                "req-stall": "req_stall",
                "engine-slow": "engine_slow_ms",
                "seed": "seed",
            }.get(key)
            if attr is None:
                raise InfraFaultSpecError(
                    f"unknown chaos field {key!r}; known: conn-drop, "
                    "req-stall, cache-torn, engine-slow, seed"
                )
            if attr in fields:
                raise InfraFaultSpecError(f"duplicate chaos field {key!r}")
            if attr in ("conn_drop", "req_stall"):
                try:
                    fields[attr] = float(raw)
                except ValueError:
                    raise InfraFaultSpecError(
                        f"{key}: expected a probability, got {raw!r}"
                    ) from None
            else:  # engine_slow_ms, seed
                try:
                    fields[attr] = int(raw)
                except ValueError:
                    raise InfraFaultSpecError(
                        f"{key}: expected an int, got {raw!r}"
                    ) from None
        return cls(**fields)


class InfraFaultInjector:
    """Executable form of an :class:`InfraFaultPlan` for one server.

    Construction resolves the schedule seed; after that every method is
    a pure function of its arguments (the same stateless discipline as
    :class:`~repro.faults.inject.FaultInjector`), so two servers
    replaying the same request sequence under the same plan make the
    same decisions -- including a server restarted after a kill.
    """

    __slots__ = ("plan", "_seed_mix", "_drop_threshold", "_stall_threshold")

    def __init__(self, plan: InfraFaultPlan) -> None:
        self.plan = plan
        self._seed_mix = mix64(plan.seed if plan.seed is not None else 0)
        self._drop_threshold = _threshold(plan.conn_drop)
        self._stall_threshold = _threshold(plan.req_stall)

    def _coin(self, stream: int, seq: int) -> int:
        x = (
            self._seed_mix
            ^ (stream * _K_STREAM)
            ^ ((seq & (_TWO64 - 1)) * _K_SEQ)
        )
        return mix64(x)

    def drop_connection(self, seq: int) -> bool:
        """Sever the connection instead of writing response ``seq``?"""
        return self._coin(_STREAM_CONN_DROP, seq) < self._drop_threshold

    def stall_request(self, seq: int) -> bool:
        """Stall request ``seq`` until its deadline (or server drain)?"""
        return self._coin(_STREAM_REQ_STALL, seq) < self._stall_threshold

    def engine_delay_s(self) -> float:
        """Injected per-execution engine latency, in seconds."""
        return self.plan.engine_slow_ms / 1000.0


def _threshold(p: float) -> int:
    """Acceptance threshold on the mixed 64-bit value for probability ``p``."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return _TWO64
    return int(p * float(_TWO64))


def chaos_execute(
    delay_s: float,
    fn: Callable[..., Any],
    /,
    *args: Any,
    **kwargs: Any,
) -> Any:
    """Engine-thread shim applying scheduled chaos around one execution.

    ``delay_s`` injects engine latency; without it this is a
    transparent call of ``fn``.
    """
    if delay_s > 0.0:
        time.sleep(delay_s)
    return fn(*args, **kwargs)

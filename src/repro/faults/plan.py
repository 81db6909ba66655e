"""Frozen fault plans: the declarative half of the fault subsystem.

A :class:`FaultPlan` describes *which* faults a run is subjected to --
per-delivery message drop probability, payload corruption probability,
crash-stop schedules, round-wide stalls, and bandwidth throttling.  The
plan itself contains **no randomness**: every probabilistic decision is
derived later, statelessly, from ``(schedule seed, round, sender,
receiver)`` by :mod:`repro.faults.inject`, so the same plan under the
same policy seed produces the exact same fault schedule on both
execution lanes, in worker processes, and across resumed sweeps.

Spec grammar (the value of ``ExecutionPolicy.faults`` and the CLI's
``--faults``)::

    drop:P | corrupt:P | crash:ID@R+ID@R | stall:R+R | throttle:BITS | seed:S

Fields are separated by ``|`` (commas belong to the policy spec
grammar), keys and values by ``:``, list elements by ``+``, and a crash
entry's node/round by ``@``.  Examples::

    drop:0.05
    drop:0.1|corrupt:0.01|crash:3@2+7@5
    stall:4|throttle:8

``FaultPlan.from_spec`` parses and validates; :meth:`FaultPlan.spec`
renders the canonical form (sorted schedules, normalized floats) that
:class:`~repro.runtime.policy.ExecutionPolicy` stores, so two
differently-written but equivalent specs hash identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

__all__ = ["FaultPlan", "FaultSpecError"]


class FaultSpecError(ValueError):
    """An invalid fault-spec string or an invalid plan field."""


def _fmt_float(p: float) -> str:
    """Canonical rendering of a probability (no trailing zeros)."""
    s = repr(float(p))
    return s


@dataclass(frozen=True)
class FaultPlan:
    """A validated, immutable description of the faults to inject.

    Fields
    ------
    drop:
        Probability in ``[0, 1]`` that any one delivered message is lost
        in transit (send is billed; delivery never happens).
    corrupt:
        Probability in ``[0, 1]`` that a delivered message arrives with
        its payload zeroed (stuck-at-zero corruption; declared size and
        billing are unchanged).
    crash:
        ``((node_id, round), ...)`` crash-stop schedule: each node stops
        executing at the start of the given round -- it sends nothing
        from then on and its decision freezes at its pre-crash value.
        Entries naming identifiers absent from the run's graph are
        ignored, so one plan can drive a whole ``n``-sweep.
    stall:
        Rounds (by send-round index) in which the network stalls: every
        message sent in such a round is billed but never delivered.
    throttle:
        Adversarial bandwidth throttle in bits: any message whose
        declared size exceeds this is dropped at delivery (billed at its
        declared size).  ``None`` disables throttling.
    seed:
        Optional schedule seed.  ``None`` (the default) derives the
        schedule from the run's master seed, which is what keeps the
        plan reproducible under a policy; set it only to decouple the
        fault schedule from the algorithm's randomness.
    """

    drop: float = 0.0
    corrupt: float = 0.0
    crash: Tuple[Tuple[int, int], ...] = ()
    stall: Tuple[int, ...] = ()
    throttle: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop", "corrupt"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise FaultSpecError(f"{name}: expected a probability, got {p!r}")
            if not 0.0 <= float(p) <= 1.0:
                raise FaultSpecError(f"{name}: probability {p} outside [0, 1]")
            object.__setattr__(self, name, float(p))
        crash = tuple(sorted((int(u), int(r)) for u, r in self.crash))
        seen = set()
        for u, r in crash:
            if r < 0:
                raise FaultSpecError(f"crash: negative round in {u}@{r}")
            if u in seen:
                raise FaultSpecError(f"crash: node {u} scheduled twice")
            seen.add(u)
        object.__setattr__(self, "crash", crash)
        stall = tuple(sorted(int(r) for r in set(self.stall)))
        if stall and stall[0] < 0:
            raise FaultSpecError(f"stall: negative round {stall[0]}")
        object.__setattr__(self, "stall", stall)
        if self.throttle is not None:
            if not isinstance(self.throttle, int) or isinstance(self.throttle, bool):
                raise FaultSpecError(f"throttle: expected bits, got {self.throttle!r}")
            if self.throttle < 0:
                raise FaultSpecError(f"throttle: negative bit budget {self.throttle}")
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise FaultSpecError(f"seed: expected an int, got {self.seed!r}")

    # -- predicates ----------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.drop == 0.0
            and self.corrupt == 0.0
            and not self.crash
            and not self.stall
            and self.throttle is None
        )

    @property
    def probabilistic(self) -> bool:
        """True when the schedule needs a seed (drop or corruption)."""
        return self.drop > 0.0 or self.corrupt > 0.0

    # -- canonical spec ------------------------------------------------
    def spec(self) -> str:
        """Canonical spec string; ``FaultPlan.from_spec(p.spec()) == p``."""
        parts = []
        if self.drop:
            parts.append(f"drop:{_fmt_float(self.drop)}")
        if self.corrupt:
            parts.append(f"corrupt:{_fmt_float(self.corrupt)}")
        if self.crash:
            parts.append("crash:" + "+".join(f"{u}@{r}" for u, r in self.crash))
        if self.stall:
            parts.append("stall:" + "+".join(str(r) for r in self.stall))
        if self.throttle is not None:
            parts.append(f"throttle:{self.throttle}")
        if self.seed is not None:
            parts.append(f"seed:{self.seed}")
        return "|".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "drop": self.drop,
            "corrupt": self.corrupt,
            "crash": [list(e) for e in self.crash],
            "stall": list(self.stall),
            "throttle": self.throttle,
            "seed": self.seed,
        }

    def merged(self, **overrides: Any) -> "FaultPlan":
        return replace(self, **overrides)

    # -- parsing -------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the ``key:value|key:value`` fault grammar (see module
        docstring); raises :class:`FaultSpecError` on anything bogus."""
        fields: Dict[str, Any] = {}
        for part in spec.split("|"):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition(":")
            key = key.strip()
            raw = raw.strip()
            if not sep or not key or not raw:
                raise FaultSpecError(
                    f"bad fault spec fragment {part!r}; expected key:value"
                )
            if key in fields:
                raise FaultSpecError(f"duplicate fault field {key!r}")
            if key in ("drop", "corrupt"):
                try:
                    fields[key] = float(raw)
                except ValueError:
                    raise FaultSpecError(
                        f"{key}: expected a probability, got {raw!r}"
                    ) from None
            elif key == "crash":
                entries = []
                for item in raw.split("+"):
                    node, at, rnd = item.partition("@")
                    if not at:
                        raise FaultSpecError(
                            f"crash: expected id@round, got {item!r}"
                        )
                    try:
                        entries.append((int(node), int(rnd)))
                    except ValueError:
                        raise FaultSpecError(
                            f"crash: expected id@round ints, got {item!r}"
                        ) from None
                fields[key] = tuple(entries)
            elif key == "stall":
                try:
                    fields[key] = tuple(int(item) for item in raw.split("+"))
                except ValueError:
                    raise FaultSpecError(
                        f"stall: expected +-separated rounds, got {raw!r}"
                    ) from None
            elif key in ("throttle", "seed"):
                try:
                    fields[key] = int(raw)
                except ValueError:
                    raise FaultSpecError(
                        f"{key}: expected an int, got {raw!r}"
                    ) from None
            else:
                raise FaultSpecError(
                    f"unknown fault field {key!r}; known: "
                    "drop, corrupt, crash, stall, throttle, seed"
                )
        return cls(**fields)

"""Execution policies: one validated bundle for every engine knob.

An :class:`ExecutionPolicy` is the contract between callers and the
engine stack.  Instead of threading ``lane=`` / ``jobs=`` / ``metrics=``
/ ``sanitize=`` through every detector signature, a caller builds one
policy (directly, from a dict, or from a CLI ``key=value,key=value``
spec) and hands it to a :class:`~repro.runtime.session.RunSession`.
The policy is the one way to set a run's knobs: nothing in the package
reads them from the environment, so a record's policy and hash are the
whole configuration of the run that wrote it.

Validation happens at construction, not at the bottom of a run: illegal
values *and* illegal combinations raise :class:`PolicyError` immediately.
The combinations rejected here are the ones the engine cannot honor:

* ``metrics="lite"`` + ``sanitize=True`` -- the sanitizer's replay
  comparison audits the full traffic digest; the lite fast path elides
  exactly the per-message observation it needs.
* ``jobs > 1`` + ``sanitize=True`` -- a sanitized policy amplifies
  inline, where every seed of every amplified detector is audited (the
  chunk spec carries ``sanitize``).  Worker chunks would carry it too;
  the rule keeps sanitized runs on the one path the audit is tested on.
* ``model="local"`` + a finite ``bandwidth`` -- the LOCAL model *is*
  the unbounded-bandwidth engine; a ``B`` here is a contradiction.
* ``model="local"`` + ``faults`` -- the LOCAL model abstracts the
  network away entirely (free unbounded messaging); injecting link
  faults into it has no defined semantics.

Policies are frozen and hashable; :meth:`ExecutionPolicy.policy_hash`
is a stable content hash used to stamp benchmark snapshots and run
records so perf trajectories stay attributable across commits.  A
``faults=None`` policy hashes exactly as it did before the field
existed, so historical benchmark snapshots stay comparable -- the same
elision applies to every later optional field (the adaptive
amplification and load-governor knobs): a policy that leaves them unset
keeps its historical hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "LANES",
    "MODELS",
    "ExecutionPolicy",
    "PolicyError",
    "seeds_for_confidence",
]

#: Execution lanes the engine implements (see docs/engine_performance.md).
LANES = ("object", "vectorized")

#: Model variants a session can dispatch to.
MODELS = ("congest", "broadcast", "local", "clique")

_METRIC_MODES = ("full", "lite")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class PolicyError(ValueError):
    """An invalid policy field or an illegal combination of fields."""


def _parse_bool(field: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise PolicyError(f"{field}: expected a boolean, got {raw!r}")


def _parse_int(field: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise PolicyError(f"{field}: expected an integer, got {raw!r}") from None


def _parse_float(field: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise PolicyError(f"{field}: expected a number, got {raw!r}") from None


def seeds_for_confidence(confidence: float, success_probability: float) -> int:
    """Seeds needed so that ``confidence`` of the mass is covered.

    One amplification iteration succeeds (finds the witness when one
    exists) with probability ``p``; after ``t`` independent all-accept
    iterations the residual chance of a missed witness is ``(1-p)^t``.
    This returns the smallest ``t`` with ``(1-p)^t <= 1 - confidence``
    -- the sequential test's accept threshold.
    """
    if not 0.0 < confidence < 1.0:
        raise PolicyError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    if not 0.0 < success_probability <= 1.0:
        raise PolicyError(
            "success_probability must be in (0, 1], "
            f"got {success_probability!r}"
        )
    if success_probability == 1.0:
        return 1
    t = math.log(1.0 - confidence) / math.log(1.0 - success_probability)
    return max(1, math.ceil(t - 1e-12))


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every engine knob, validated once, carried everywhere.

    Fields
    ------
    lane:
        ``"object"`` (reference semantics) or ``"vectorized"`` (batched
        numpy kernels, bit-identical where a port exists).
    jobs:
        Worker processes for amplified detectors; ``1`` runs inline.
        Every color-coding detector (even cycle, linear cycle, tree,
        deterministic family) has one amplification path,
        :meth:`~repro.runtime.session.RunSession.amplify`, so ``jobs``
        changes wall-clock only: the report and the record (one
        ``amplified`` event per detector call) are the same at any
        ``jobs``.
    metrics:
        ``"full"`` (exact per-edge ledger) or ``"lite"`` (aggregate
        counters only; same decisions and totals).
    sanitize:
        Arm the runtime model-soundness sanitizer (alias guard + replay)
        on every run, amplified seeds included.
    bandwidth:
        Per-edge per-round bit budget ``B``; ``None`` lets each detector
        pick its documented default (and means "unbounded" for LOCAL).
    model:
        Model variant every network is built as -- a session's
        :meth:`~RunSession.network` and every amplified seed alike:
        ``congest`` / ``broadcast`` / ``local`` / ``clique``.
    seed:
        Master seed for runs that don't pass one explicitly.
    cache:
        Whether construction caching (:mod:`repro.graphs.cache`) may be
        used; a session with ``cache=False`` clears the construction
        cache when it closes, so no frozen graphs outlive it.
    faults:
        Fault-injection spec (``"drop:0.05|crash:3@2"``, see
        :mod:`repro.faults.plan` for the grammar) or ``None`` for a
        reliable network.  Stored in canonical form so equivalent specs
        hash identically; the schedule itself is derived from the run's
        seed, never from ambient randomness.
    amplify_confidence:
        Target confidence for adaptive amplification, in ``(0, 1)``.
        When set, ``run_amplified`` stops spawning seed chunks once
        enough all-accept seeds have run that the residual miss
        probability drops below ``1 - confidence`` (a pure function of
        the ordered seed outcomes, so independent of ``jobs`` and chunk
        boundaries).  ``None`` runs every requested seed.
    amplify_batch:
        Seeds per adaptive batch (>= 1).  Smaller batches re-check the
        stopping rule more often at the cost of fan-out efficiency;
        ``None`` uses ``jobs * chunks_per_job``.
    amplify_max_seeds:
        Hard cap on seeds run by one amplification (>= 1), applied
        before the confidence target.  ``None`` leaves the caller's
        ``iterations`` as the only cap.
    governor_budget:
        Peak-hold load-governor budget in cost units (rounds x bits per
        seed run).  When set, concurrent chunk submission is throttled
        to ``budget // peak_cost`` slots; ``None`` disables the
        governor.
    governor_decay:
        Decay factor for the governor's peak-hold estimator, in
        ``(0, 1]``; requires ``governor_budget``.  ``None`` uses the
        governor's default.
    """

    lane: str = "object"
    jobs: int = 1
    metrics: str = "full"
    sanitize: bool = False
    bandwidth: Optional[int] = None
    model: str = "congest"
    seed: int = 0
    cache: bool = True
    faults: Optional[str] = None
    amplify_confidence: Optional[float] = None
    amplify_batch: Optional[int] = None
    amplify_max_seeds: Optional[int] = None
    governor_budget: Optional[int] = None
    governor_decay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lane not in LANES:
            raise PolicyError(f"lane must be one of {LANES}, got {self.lane!r}")
        if self.metrics not in _METRIC_MODES:
            raise PolicyError(
                f"metrics must be one of {_METRIC_MODES}, got {self.metrics!r}"
            )
        if self.model not in MODELS:
            raise PolicyError(f"model must be one of {MODELS}, got {self.model!r}")
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise PolicyError(f"jobs must be an int, got {self.jobs!r}")
        if self.jobs < 1:
            raise PolicyError(f"jobs must be >= 1, got {self.jobs}")
        if self.bandwidth is not None:
            if not isinstance(self.bandwidth, int) or isinstance(self.bandwidth, bool):
                raise PolicyError(f"bandwidth must be an int, got {self.bandwidth!r}")
            if self.bandwidth < 1:
                raise PolicyError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise PolicyError(f"seed must be an int, got {self.seed!r}")
        if self.faults is not None:
            if not isinstance(self.faults, str):
                raise PolicyError(
                    f"faults must be a spec string or None, got {self.faults!r}"
                )
            from ..faults.plan import FaultPlan, FaultSpecError

            try:
                plan = FaultPlan.from_spec(self.faults)
            except FaultSpecError as exc:
                raise PolicyError(f"faults: {exc}") from None
            # Canonicalize (and collapse a no-op plan to None) so that
            # equivalent specs produce equal policies and equal hashes.
            object.__setattr__(
                self, "faults", plan.spec() if not plan.is_null else None
            )
        if self.amplify_confidence is not None:
            if isinstance(self.amplify_confidence, bool) or not isinstance(
                self.amplify_confidence, (int, float)
            ):
                raise PolicyError(
                    f"amplify_confidence must be a number, "
                    f"got {self.amplify_confidence!r}"
                )
            if not 0.0 < self.amplify_confidence < 1.0:
                raise PolicyError(
                    "amplify_confidence must be in (0, 1), "
                    f"got {self.amplify_confidence}"
                )
            object.__setattr__(
                self, "amplify_confidence", float(self.amplify_confidence)
            )
        for name in ("amplify_batch", "amplify_max_seeds", "governor_budget"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise PolicyError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise PolicyError(f"{name} must be >= 1, got {value}")
        if self.governor_decay is not None:
            if isinstance(self.governor_decay, bool) or not isinstance(
                self.governor_decay, (int, float)
            ):
                raise PolicyError(
                    f"governor_decay must be a number, got {self.governor_decay!r}"
                )
            if not 0.0 < self.governor_decay <= 1.0:
                raise PolicyError(
                    f"governor_decay must be in (0, 1], got {self.governor_decay}"
                )
            object.__setattr__(self, "governor_decay", float(self.governor_decay))
            if self.governor_budget is None:
                raise PolicyError(
                    "governor_decay tunes the peak-hold estimator; it needs "
                    "governor_budget to enable the governor"
                )
        # Illegal combinations (see the module docstring for why).
        if self.sanitize and self.metrics == "lite":
            raise PolicyError(
                "sanitize=True needs metrics='full': the replay comparison "
                "audits per-message traffic the lite fast path never records"
            )
        if self.sanitize and self.jobs > 1:
            raise PolicyError(
                "sanitize=True needs jobs=1: sanitized amplification runs "
                "inline, where every seed is audited"
            )
        if self.model == "local" and self.bandwidth is not None:
            raise PolicyError(
                "model='local' is the unbounded-bandwidth engine; "
                f"bandwidth={self.bandwidth} contradicts it"
            )
        if self.model == "local" and self.faults is not None:
            raise PolicyError(
                "model='local' abstracts the network away; injecting link "
                "faults into it has no defined semantics"
            )

    # -- derivation ----------------------------------------------------
    def merged(self, **overrides: Any) -> "ExecutionPolicy":
        """A new policy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot (JSON-serializable; round-trips via
        :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    def policy_hash(self) -> str:
        """Stable content hash of the policy (12 hex chars).

        Two processes building the same policy get the same hash, so
        benchmark snapshots and run records produced under identical
        policies are directly comparable.  Optional fields that are
        ``None`` (``faults`` and the adaptive/governor knobs) are elided
        from the hashed blob: a policy that leaves them unset keeps the
        hash it had before the field existed.
        """
        fields = self.as_dict()
        for name in (
            "faults",
            "amplify_confidence",
            "amplify_batch",
            "amplify_max_seeds",
            "governor_budget",
            "governor_decay",
        ):
            if fields.get(name) is None:
                fields.pop(name, None)
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=6).hexdigest()

    def spec(self) -> str:
        """The canonical ``--policy`` spec string for this policy.

        Lists exactly the fields that differ from the default policy, in
        field-declaration order, so ``ExecutionPolicy.from_spec(p.spec())
        == p`` and two equal policies render identical specs.  The empty
        string is the default policy.  This is what ``repro policy hash``
        prints so operators can read a cache key's policy component back
        as a spec they can pass to ``--policy``.
        """
        default = type(self)()
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            else:
                rendered = str(value)
            parts.append(f"{f.name}={rendered}")
        return ",".join(parts)

    def fault_plan(self) -> Optional["FaultPlan"]:
        """The parsed :class:`~repro.faults.plan.FaultPlan`, or ``None``
        for a reliable network."""
        if self.faults is None:
            return None
        from ..faults.plan import FaultPlan

        return FaultPlan.from_spec(self.faults)

    # -- loaders -------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        """Build a policy from a mapping; unknown keys are an error."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise PolicyError(
                f"unknown policy field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(fields))}"
            )
        return cls(**dict(data))

    @classmethod
    def from_spec(
        cls, spec: str, base: Optional["ExecutionPolicy"] = None
    ) -> "ExecutionPolicy":
        """Build a policy from a CLI spec like ``"lane=vectorized,jobs=4"``.

        Keys are policy field names; later keys win; an empty spec
        returns ``base`` unchanged.  This is the grammar behind the CLI's
        ``--policy`` flag.
        """
        policy = base or cls()
        overrides: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or not key:
                raise PolicyError(
                    f"bad policy spec fragment {part!r}; expected key=value"
                )
            if key not in {f.name for f in dataclasses.fields(cls)}:
                raise PolicyError(
                    f"unknown policy field {key!r} in spec; known: "
                    + ", ".join(sorted(f.name for f in dataclasses.fields(cls)))
                )
            overrides[key] = cls._parse_field(key, raw.strip())
        return policy.merged(**overrides)

    @staticmethod
    def _parse_field(field: str, raw: str) -> Any:
        """Parse one string value into the field's type."""
        if field in ("lane", "metrics", "model"):
            return raw
        if field in ("jobs", "seed"):
            return _parse_int(field, raw)
        if field == "bandwidth":
            return None if raw.lower() in ("", "none", "local") else _parse_int(
                field, raw
            )
        if field in ("sanitize", "cache"):
            return _parse_bool(field, raw)
        if field == "faults":
            return None if raw.lower() in ("", "none") else raw
        if field in ("amplify_batch", "amplify_max_seeds", "governor_budget"):
            return None if raw.lower() in ("", "none") else _parse_int(field, raw)
        if field in ("amplify_confidence", "governor_decay"):
            return None if raw.lower() in ("", "none") else _parse_float(
                field, raw
            )
        raise PolicyError(f"unknown policy field {field!r}")

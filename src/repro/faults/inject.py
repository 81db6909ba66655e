"""Stateless fault decisions, bit-identical across execution lanes.

The injector turns a :class:`~repro.faults.plan.FaultPlan` into concrete
per-delivery decisions without ever holding generator state: each
decision is a pure function of ``(schedule seed, stream, round, sender
id, receiver id)`` through a SplitMix64 finalizer, computed once as
Python integer arithmetic (object lane) and once as ``uint64`` numpy
arithmetic (vectorized lane).  Both implementations wrap modulo
``2**64`` and therefore agree bit-for-bit, which is what lets the two
lanes -- and the sanitizer's replay pass, and amplification workers in
other processes -- see the *same* fault schedule.

No ``default_rng`` / ``random.Random`` may appear in this package:
fault schedules count as randomness under lint rule L3, and a schedule
drawn from an unseeded generator would silently break replay.  The
runtime counterpart of that rule lives in
:meth:`FaultInjector.__init__`: a probabilistic plan whose seed cannot
be resolved raises :class:`~repro.congest.sanitizer.SanitizerViolation`
tagged ``L3``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..congest.message import Message
from ..congest.sanitizer import SanitizerViolation
from .plan import FaultPlan

__all__ = ["FaultInjector", "zero_payload"]

_MASK = (1 << 64) - 1
_TWO64 = 1 << 64

# Distinct odd 64-bit stream constants: one per decision dimension, so
# the drop coin and the corruption coin of the same delivery are
# independent, as are deliveries across (round, sender, receiver).
_K_ROUND = 0x9E3779B97F4A7C15
_K_SRC = 0xC2B2AE3D27D4EB4F
_K_DST = 0x165667B19E3779F9
_K_STREAM = 0x27D4EB2F165667C5

_STREAM_DROP = 1
_STREAM_CORRUPT = 2


def _mix64(x: int) -> int:
    """SplitMix64 finalizer over Python ints (mod ``2**64``)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """The same finalizer over ``uint64`` arrays (wrapping multiply)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _threshold(p: float) -> int:
    """Acceptance threshold on the mixed 64-bit value for probability ``p``."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return _TWO64
    return int(p * float(_TWO64))


def zero_payload(value: Any) -> Any:
    """Type-preserving stuck-at-zero corruption of an object-lane payload.

    Mirrors what zeroing the packed payload row means in the vectorized
    lane: ints become 0, strings become NUL runs of the same length
    (ASCII bytes zeroed), byte strings become zero bytes, and containers
    are zeroed element-wise with their shape kept.  Unknown types pass
    through unchanged -- corruption must never *grow* information.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return 0
    if isinstance(value, float):
        return 0.0
    if isinstance(value, str):
        return "\x00" * len(value)
    if isinstance(value, (bytes, bytearray)):
        return b"\x00" * len(value)
    if isinstance(value, tuple):
        return tuple(zero_payload(v) for v in value)
    if isinstance(value, list):
        return [zero_payload(v) for v in value]
    if isinstance(value, np.ndarray):
        return np.zeros_like(value)
    return value


class FaultInjector:
    """Executable form of a :class:`FaultPlan` for one run.

    Construction resolves the schedule seed (plan seed, else the run's
    master seed) and precomputes thresholds and schedules; after that
    every method is a pure function, so sharing one injector across the
    sanitizer's two replay passes -- or pickling the plan to worker
    processes and rebuilding the injector there -- cannot change any
    decision.
    """

    __slots__ = (
        "plan",
        "crash_round_of",
        "throttle",
        "_seed_mix",
        "_seed_mix_np",
        "_stall",
        "_drop_thr",
        "_corrupt_thr",
    )

    def __init__(self, plan: FaultPlan, master_seed: Optional[int]) -> None:
        schedule_seed = plan.seed if plan.seed is not None else master_seed
        if plan.probabilistic and schedule_seed is None:
            raise SanitizerViolation(
                "L3",
                "fault plan with drop/corrupt probabilities has no seed: "
                "neither the plan nor the run supplies one, so the fault "
                "schedule would be unseeded randomness (set plan seed:S "
                "or run with a master seed)",
            )
        self.plan = plan
        self.crash_round_of: Dict[int, int] = dict(plan.crash)
        self.throttle = plan.throttle
        self._seed_mix = _mix64((schedule_seed or 0) & _MASK)
        self._seed_mix_np = np.uint64(self._seed_mix)
        self._stall = frozenset(plan.stall)
        self._drop_thr = _threshold(plan.drop)
        self._corrupt_thr = _threshold(plan.corrupt)

    # -- shared predicates ---------------------------------------------
    @property
    def affects_delivery(self) -> bool:
        """Whether any delivery-side fault (drop/corrupt/stall/throttle)
        is configured -- crash-only plans skip the delivery path."""
        return bool(
            self._drop_thr or self._corrupt_thr or self._stall
            or self.throttle is not None
        )

    # -- object lane ---------------------------------------------------
    def _decide(self, stream: int, r: int, u: int, v: int, thr: int) -> bool:
        if thr >= _TWO64:
            return True
        key = (
            self._seed_mix
            ^ ((r * _K_ROUND + u * _K_SRC + v * _K_DST + stream * _K_STREAM) & _MASK)
        )
        return _mix64(key) < thr

    def delivery(self, r: int, u: int, v: int, size_bits: int) -> Tuple[bool, bool]:
        """Fate of one message sent ``u -> v`` in round ``r``.

        Returns ``(delivered, corrupted)``.  The caller has already
        billed the send; a ``False`` first element means the inbox entry
        is simply never created.
        """
        if r in self._stall:
            return False, False
        if self.throttle is not None and size_bits > self.throttle:
            return False, False
        if self._drop_thr and self._decide(_STREAM_DROP, r, u, v, self._drop_thr):
            return False, False
        corrupted = bool(self._corrupt_thr) and self._decide(
            _STREAM_CORRUPT, r, u, v, self._corrupt_thr
        )
        return True, corrupted

    def corrupted_message(self, msg: Message) -> Message:
        """The stuck-at-zero corrupted form of ``msg`` (size and kind kept:
        corruption garbles bits on the wire, it does not resize frames)."""
        return Message(
            payload=zero_payload(msg.payload),
            size_bits=msg.size_bits,
            kind=msg.kind,
        )

    # -- vectorized lane -----------------------------------------------
    def delivery_mask(
        self,
        r: int,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        sizes: Union[int, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`delivery`: ``(keep, corrupt)`` bool masks
        over the round's sent messages, bit-identical to the per-message
        object-lane decisions for the same ``(r, u, v)`` triples."""
        count = src_ids.shape[0]
        keep = np.ones(count, dtype=bool)
        corrupt = np.zeros(count, dtype=bool)
        if r in self._stall:
            keep[:] = False
            return keep, corrupt
        if self.throttle is not None:
            if isinstance(sizes, np.ndarray):
                keep &= sizes <= self.throttle
            elif int(sizes) > self.throttle:
                keep[:] = False
        if self._drop_thr or self._corrupt_thr:
            with np.errstate(over="ignore"):
                base = (
                    np.uint64(r * _K_ROUND & _MASK)
                    + src_ids.astype(np.uint64) * np.uint64(_K_SRC)
                    + dst_ids.astype(np.uint64) * np.uint64(_K_DST)
                )
            if self._drop_thr:
                if self._drop_thr >= _TWO64:
                    keep[:] = False
                else:
                    with np.errstate(over="ignore"):
                        key = self._seed_mix_np ^ (
                            base + np.uint64(_STREAM_DROP * _K_STREAM & _MASK)
                        )
                    keep &= _mix64_np(key) >= np.uint64(self._drop_thr)
            if self._corrupt_thr:
                if self._corrupt_thr >= _TWO64:
                    corrupt = keep.copy()
                else:
                    with np.errstate(over="ignore"):
                        key = self._seed_mix_np ^ (
                            base + np.uint64(_STREAM_CORRUPT * _K_STREAM & _MASK)
                        )
                    corrupt = (_mix64_np(key) < np.uint64(self._corrupt_thr)) & keep
        return keep, corrupt

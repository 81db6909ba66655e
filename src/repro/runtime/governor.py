"""Peak-hold load governor: throttle fan-out by observed run cost.

Amplified detectors fan seed chunks out to a worker pool; on a large
graph each seed run can be expensive (many rounds, many bits), and
submitting ``jobs`` full-size chunks at once commits the machine to a
burst of ``jobs x chunk x peak_cost`` work before the stopping rule is
re-checked.  The governor bounds that burst: it keeps a *peak-hold*
estimate of per-run cost -- a decaying maximum of ``rounds x
total_bits`` observed per seed -- and allows only ``budget // peak``
concurrent submission slots.

The estimator is the classic peak-hold detector: each observation
either becomes the new peak or decays the held peak by a constant
factor, so a transient cost spike throttles immediately and the
throttle relaxes geometrically once runs get cheap again.

Crucially the governor only shapes *scheduling* (how many chunks are in
flight, how large a batch is), never *semantics*: the stopping rule and
the first-rejecting-seed merge are pure functions of the ordered seed
outcomes, so a governed run returns a bit-identical outcome to an
ungoverned one.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import durable

__all__ = ["GovernorStateStore", "PeakHoldGovernor"]

#: Default decay applied to the held peak per observation.
DEFAULT_DECAY = 0.9


class PeakHoldGovernor:
    """Decaying-max cost estimator with a concurrency budget.

    Parameters
    ----------
    budget:
        Cost budget (rounds x bits units) the governor divides among
        concurrent submission slots.  Must be >= 1.
    decay:
        Per-observation decay of the held peak, in ``(0, 1]``.  ``1.0``
        holds the all-time maximum forever.
    """

    def __init__(self, budget: int, decay: Optional[float] = None) -> None:
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise ValueError(f"budget must be an int >= 1, got {budget!r}")
        decay = DEFAULT_DECAY if decay is None else float(decay)
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay!r}")
        self.budget = budget
        self.decay = decay
        self.peak = 0.0
        self.observed = 0
        # One governor is shared by every concurrent request of a serving
        # session; the peak/counter update is a read-modify-write, so it
        # serializes here rather than racing across engine threads.
        self._lock = threading.Lock()

    def observe(self, cost: float) -> None:
        """Fold one seed run's cost into the peak-hold estimate."""
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost!r}")
        with self._lock:
            self.peak = max(float(cost), self.peak * self.decay)
            self.observed += 1

    def allowed(self, requested: int) -> int:
        """Concurrency slots granted out of ``requested``.

        Before any observation (peak unknown) the request is granted in
        full; afterwards it is clamped to ``budget // peak``, never
        below one slot (the governor throttles, it does not starve).
        """
        if requested < 1:
            return 0
        with self._lock:
            peak = self.peak
        if peak <= 0.0:
            return requested
        slots = int(self.budget // peak)
        return max(1, min(requested, slots))

    def restore(self, peak: float, observed: int) -> None:
        """Adopt a persisted estimate (see :class:`GovernorStateStore`).

        A restored governor starts throttled at the carried peak instead
        of granting the first batch unthrottled -- the point of
        persistence: a restarted server inherits the previous process's
        cost estimate.  The estimate then evolves normally (new
        observations decay or replace it).
        """
        peak = float(peak)
        observed = int(observed)
        if peak < 0 or observed < 0:
            raise ValueError("persisted governor state must be non-negative")
        with self._lock:
            self.peak = peak
            self.observed = observed

    def snapshot(self) -> Dict[str, Any]:
        """State for a ``governor`` note event."""
        with self._lock:
            return {
                "budget": self.budget,
                "decay": self.decay,
                "peak": self.peak,
                "observed": self.observed,
            }


class GovernorStateStore:
    """JSON sidecar persisting peak-hold estimates across processes.

    One file holds one entry per *policy hash*: runs under different
    policies (different bandwidth, lane, fault plan...) have unrelated
    cost profiles, so their estimates never mix.  Saves are atomic
    (:mod:`repro.runtime.durable`): readers and crashes see either the
    old snapshot or the new one.

    Owned by the detection server (``repro serve --governor-state``,
    keyed by the base policy's hash): the server restores its shared
    governor's estimate at start and saves it at stop, so a restarted
    server begins throttled instead of re-learning the peak from
    scratch.  Sessions never touch the sidecar.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def _read_all(self) -> Dict[str, Any]:
        try:
            data = json.loads(self.path.read_text())
        except (FileNotFoundError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def load(self, policy_hash: str) -> Optional[Dict[str, Any]]:
        """The persisted entry for ``policy_hash``, or ``None``."""
        entry = self._read_all().get(policy_hash)
        if not isinstance(entry, dict) or "peak" not in entry:
            return None
        return entry

    def save(self, policy_hash: str, governor: PeakHoldGovernor) -> Path:
        """Merge ``governor``'s estimate under ``policy_hash``; atomic."""
        data = self._read_all()
        data[policy_hash] = {
            "peak": governor.peak,
            "observed": governor.observed,
            "budget": governor.budget,
            "decay": governor.decay,
            "saved_unix": int(time.time()),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return durable.atomic_write(self.path, json.dumps(data, indent=2, sort_keys=True) + "\n")

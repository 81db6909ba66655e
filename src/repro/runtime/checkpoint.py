"""Resumable sweeps: a cell-level checkpoint journal over run records.

Experiment sweeps (``repro experiment e1 ... e9``) iterate a deterministic
grid of *cells* -- one (label, seed, n) triple per engine run under one
policy.  A :class:`SweepCheckpoint` makes that loop resumable after a kill
or crash:

* every completed cell appends its :class:`~repro.runtime.record.TraceEvent`
  (stamped with the cell key in ``extra["cell"]``) to the journal, so
  checkpoint I/O is linear in cells and the file is always a loadable
  prefix of the sweep (see :mod:`repro.runtime.durable`); only
  :meth:`finish` writes the footer;
* resuming loads the journal, verifies the **policy hash** matches (a
  resumed sweep under a different policy would silently mix
  incomparable cells -- that's an error, not a merge), and answers
  :meth:`done` from the journal so completed cells are skipped;
* because the sweep grid and the engine are deterministic, the record a
  resumed sweep finishes is event-for-event identical to an uninterrupted
  one -- ``diff_records(killed_then_resumed, straight_through)`` reports
  no divergence (wall-clock stamps excepted; the diff ignores them).

The cell key is ``(label, seed, n)`` under the journal's policy hash.
``n`` is the instance-size axis of the sweep; experiments sweeping some
other axis fold it into ``label``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from . import durable
from .policy import ExecutionPolicy
from .record import RunRecord, TraceEvent

__all__ = ["CheckpointError", "SweepCheckpoint", "cell_key"]

Cell = Tuple[str, int, int]


class CheckpointError(ValueError):
    """A journal that cannot be resumed (wrong policy, bad file)."""


def cell_key(label: str, seed: int, n: int) -> Cell:
    """Canonical cell key for one sweep point."""
    return (str(label), int(seed), int(n))


class SweepCheckpoint:
    """Checkpoint/resume wrapper around one sweep's :class:`RunRecord`.

    Build with :meth:`fresh` (start a new journal) or :meth:`resume`
    (continue one from disk).  The experiment loop then reads::

        done = ckpt.done(cell)
        if done is None:
            event = ... run the cell ...
            ckpt.complete(cell, event)
        else:
            event = done          # replayed from the journal

    and calls :meth:`finish` once the grid is exhausted.
    """

    def __init__(self, record: RunRecord, path: "str | Path") -> None:
        self.record = record
        self.path = Path(path)
        self._done: Dict[Cell, TraceEvent] = {}
        #: Events already on disk (the append cursor); ``None`` until
        #: the journal file exists.
        self._flushed: Optional[int] = None
        #: Journal bytes written by this checkpoint's flushes.
        self.bytes_flushed = 0
        for event in record.events:
            cell = event.extra.get("cell") if event.extra else None
            if cell is not None:
                self._done[cell_key(*cell)] = event

    # -- constructors --------------------------------------------------
    @classmethod
    def fresh(cls, policy: ExecutionPolicy, path: "str | Path") -> "SweepCheckpoint":
        """Start a new journal for a sweep under ``policy``."""
        return cls(RunRecord.start(policy), path)

    @classmethod
    def resume(
        cls, path: "str | Path", policy: ExecutionPolicy
    ) -> "SweepCheckpoint":
        """Resume the journal at ``path`` for a sweep under ``policy``.

        The journal's policy hash must equal ``policy``'s: cells computed
        under a different policy are not interchangeable, and resuming
        across policies would corrupt the sweep silently.

        On an unfinished journal, trailing events without a cell stamp
        are the intact half of a torn flush batch; they are dropped so
        their cell re-runs.  The file is cut back to the last kept event,
        dropping any torn tail or premature footer with it.
        """
        try:
            # Keep every terminated line: from_lines rejects a corrupt one.
            lines, clean, dropped = durable.read_clean_prefix(path, bytes)
            record = RunRecord.from_lines(lines, path)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot resume {path}: {exc}") from None
        if record.policy_hash != policy.policy_hash():
            raise CheckpointError(
                f"cannot resume {path}: journal policy hash "
                f"{record.policy_hash} != current {policy.policy_hash()} "
                "(the sweep would mix cells from incomparable policies)"
            )
        if record.finished_unix is None:
            while record.events and not (record.events[-1].extra or {}).get("cell"):
                record.events.pop()
        # A journal loaded mid-sweep is unfinished regardless of what a
        # premature footer said.
        record.finished_unix = None
        # The writer's layout: header, events, footer.
        cut = sum(len(line) + 1 for line in lines[: 1 + len(record.events)])
        if dropped or cut < clean:
            durable.repair_to(path, cut)
        ckpt = cls(record, path)
        ckpt._flushed = len(record.events)
        return ckpt

    # -- the cell protocol ---------------------------------------------
    def done(self, cell: Cell) -> Optional[TraceEvent]:
        """The journaled event for ``cell``, or ``None`` if still to run."""
        return self._done.get(cell_key(*cell))

    def complete(self, cell: Cell, event: TraceEvent) -> TraceEvent:
        """Record ``cell`` as completed by ``event`` and flush the journal.

        The cell key is stamped into ``event.extra["cell"]`` so a later
        :meth:`resume` can index it.
        """
        key = cell_key(*cell)
        event.extra = {**(event.extra or {}), "cell": list(key)}
        self._done[key] = event
        # A session sharing this record has usually appended the event
        # already; only add it if it is not the current tail.
        if not self.record.events or self.record.events[-1] is not event:
            self.record.add_event(event)
        self._flush()
        return event

    # -- journal I/O ---------------------------------------------------
    def _flush(self) -> None:
        """Journal the not-yet-flushed events: the first flush creates the
        file whole, every later one appends."""
        events = self.record.events
        if self._flushed is None:
            lines = [self.record.header_line(), *map(self.record.event_line, events)]
            durable.atomic_write(self.path, "\n".join(lines) + "\n")
        elif self._flushed < len(events):
            lines = [self.record.event_line(e) for e in events[self._flushed:]]
            durable.append_line(self.path, "\n".join(lines))
        else:
            return
        self.bytes_flushed += sum(len(line) + 1 for line in lines)
        self._flushed = len(events)

    def finish(self) -> Path:
        """Finalize and write the completed journal (a whole rewrite that
        stamps the footer)."""
        out = self.record.write(self.path)
        self._flushed = len(self.record.events)
        return out

    @property
    def completed(self) -> int:
        """Number of journaled cells."""
        return len(self._done)

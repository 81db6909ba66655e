"""The synchronous round schedule, shared by both execution lanes.

Every model the engine simulates (CONGEST, its broadcast restriction,
LOCAL, the congested clique) runs on one round schedule.  This module is
its single statement and its single implementation: :func:`run_schedule`
drives a *lane* -- the object lane of :mod:`repro.congest.network` or the
vectorized lane of :mod:`repro.congest.vectorized` -- through a fixed
handful of calls per round, and owns every rule below.  The lanes own only
what a round *does* (callbacks or batched kernels, validation, billing,
delivery); neither contains a round loop.

The schedule contract
---------------------
Rounds are numbered from 0.  Before round ``r`` runs:

1. **Crash-stop activation.**  A node with a crash scheduled at a round
   ``<= r`` is force-halted: from then on it executes nothing and sends
   nothing, and its decision freezes at the value it had when that round
   began.  Schedule entries naming nodes absent from the graph are
   ignored.  A crashed node never reaches ``finish``: its frozen decision
   (and halt flag) is restored after every executed round and again after
   ``finish``, over whatever the algorithm computed from its dead state.

2. **Termination.**  The run ends when (a) ``max_rounds`` rounds have
   passed, (b) every node has halted, (c) ``stop_on_reject`` is set and
   some node has rejected, or (d) a round carried no traffic **and** the
   algorithm's optional quiescence hook (``is_quiescent(node)`` /
   ``all_quiescent(run, state)``) affirms that every non-halted node is
   idle.  An algorithm without the hook is never assumed quiescent:
   schedule-driven algorithms (peeling phases, round deadlines) have
   silent rounds mid-schedule and must run to completion or halt.

3. **The probe rollback.**  ``ExecutionResult.rounds`` bills every
   executed round *except* the terminal all-silent round that confirms
   quiescence in case (d): nothing was sent in it and nothing was
   pending, so it is a probe, not a communication round.  For
   message-driven algorithms that fall silent only when done,
   ``ExecutionResult.rounds == CommMetrics.rounds`` exactly.

4. **The wake skip.**  An algorithm may declare a ``wake_round`` hook
   (``wake_round(node, r)`` in the object lane, ``wake_round(run, state,
   r)`` in the vectorized lane): the earliest round ``>= r`` in which a
   node could send, change its state or decision, or halt, assuming it
   receives nothing.  After a round that sent nothing and did not end the
   run, every inbox is empty, so the schedule jumps to the earliest wake
   round over the non-halted nodes (capped at ``max_rounds``).  The
   skipped rounds are billed exactly as executed silent rounds:
   ``rounds``, the metrics ledger and every live context's final
   ``round`` are what running them would have produced.  Skipped rounds
   never consult the quiescence hook, so an algorithm with both hooks
   must make the probe a function of node state, not of ``node.round``.
   An algorithm without the hook runs every round.

5. **Skip off under observers and faults.**  Under an observer (the
   sanitizer) every round runs and the hook's promises are handed to the
   observer to audit instead of being trusted.  Under a fault plan the
   hook is not consulted at all: faults act on scheduled rounds.

After the loop the lane runs ``finish``, crashed nodes are restored (1),
and the global decision follows Definition 1: REJECT iff some node
rejected, otherwise ACCEPT.

Lanes and observers
-------------------
A lane exposes ``wake`` (the ``wake_round`` hook or ``None``), ``comm``,
``contexts`` and these calls, none of them per node: ``crash(ids)``
(force-halt; return the current decisions) and ``pin(frozen)`` (set
``id -> Decision`` and the halt flag); ``all_halted()`` and
``any_reject()``; ``earliest_wake(r)`` (the earliest wake round and the
promise an observer audits) and ``skip_to(r)``; ``step(r)`` (execute,
bill and deliver round ``r``; return whether anything was sent);
``quiescent()`` (``False`` without a hook); ``finish(rounds)`` and
``decisions()``.  An observer (the sanitizer's digests) receives
``after_init(lane)``, ``wake_promise(r, lane, promise)``,
``after_round(r, lane)`` and ``after_finish(lane)`` from the driver;
per-message traffic reaches it from inside the lane.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .algorithm import Decision

__all__ = ["run_schedule"]


def _crash_events(lane: Any, injector: Optional[Any]) -> List[Tuple[int, List[int]]]:
    """The crash schedule restricted to ``lane``'s nodes, as ``(round,
    ids)`` groups in *descending* round order (popped from the end)."""
    if injector is None or not injector.crash_round_of:
        return []
    nodes = lane.decisions()
    groups: Dict[int, List[int]] = {}
    for u, at in injector.crash_round_of.items():
        if u in nodes:
            groups.setdefault(at, []).append(u)
    return sorted(groups.items(), reverse=True)


def run_schedule(
    lane: Any,
    max_rounds: int,
    stop_on_reject: bool,
    observer: Optional[Any] = None,
    injector: Optional[Any] = None,
):
    """Drive ``lane`` through the round schedule (see the module doc) and
    return the run's :class:`~repro.congest.network.ExecutionResult`."""
    from .network import ExecutionResult  # local import: network imports us

    crashes = _crash_events(lane, injector)
    frozen: Dict[int, Decision] = {}
    wake = lane.wake is not None and injector is None
    if observer is not None:
        observer.after_init(lane)

    rounds = 0
    silent = False
    r = 0
    while r < max_rounds:
        while crashes and crashes[-1][0] <= r:
            ids = crashes.pop()[1]
            frozen.update(zip(ids, lane.crash(ids)))
        if lane.all_halted():
            break
        if stop_on_reject and lane.any_reject():
            break
        if silent and wake:
            # Round r - 1 sent nothing, so every inbox is empty.
            nxt, promise = lane.earliest_wake(r)
            if observer is not None:
                observer.wake_promise(r, lane, promise)
            elif nxt > r:
                # Rounds r .. nxt-1 are provably silent and change no
                # state: bill them as executed.
                r = rounds = min(nxt, max_rounds)
                lane.skip_to(r)
                if r >= max_rounds:
                    break
        silent = not lane.step(r)
        if frozen:
            lane.pin(frozen)
        rounds = r + 1
        if observer is not None:
            observer.after_round(r, lane)
        if silent and lane.quiescent():
            # The terminal silent round was only a probe: not billable.
            rounds = r
            break
        r += 1

    lane.finish(rounds)
    if frozen:
        lane.pin(frozen)
    if observer is not None:
        observer.after_finish(lane)
    return ExecutionResult(
        decision=Decision.REJECT if lane.any_reject() else Decision.ACCEPT,
        rounds=rounds,
        metrics=lane.comm,
        node_decisions=lane.decisions(),
        contexts=lane.contexts,
    )

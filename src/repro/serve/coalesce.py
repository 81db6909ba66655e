"""The batch coalescer: compatible requests share one amplification batch.

A duplicate-heavy burst -- many clients asking about the same graph under
the same policy and seed block -- would naively run the same seeds many
times over.  The coalescer collapses that: the first request of a
*group* (same :func:`~repro.serve.protocol.group_key`: construction
fingerprint + pattern + policy hash + seed + bandwidth) becomes the
**leader** and actually executes; requests arriving while the leader is
pending become **followers** and await the leader's result instead of
executing.

Correctness rests on two properties of the runtime:

* every amplified run draws its per-iteration seeds as ``seed + t``, so
  two group members run *the same seed sequence*;
* the stopping rule and the first-rejecting-seed merge are pure
  functions of the ordered seed outcomes
  (:func:`repro.congest.parallel.prefix_outcome`), so a follower with a
  budget ``<=`` the leader's derives its exact answer -- same decision,
  same kept iterations, same stop reason, bit-identical record event --
  from the leader's ordered outcomes without running anything.

A follower may therefore attach iff the pattern is amplified and its
``iterations`` does not exceed the leader's; a larger budget (or a
single-run pattern with a different cache key) starts its own leader.
Single-run patterns coalesce only as exact duplicates (their cache key
equals their group key plus a constant), which still collapses identical
concurrent one-shot requests into one engine run.

The coalescer is event-loop-native (asyncio futures, no locks): all
mutation happens on the server's loop; only the leader's *execution*
leaves the loop, and its completion is marshalled back before
:meth:`resolve` runs.

**Leader death and re-election.**  A leader can die without an answer:
its client disconnects (the handler task is cancelled), or its engine
submission lands on a killed worker.  Failing the whole group would
punish followers for the leader's bad luck, so a recoverable leader
death resolves the group with :class:`LeaderDied` instead of a result.
Followers waking on ``LeaderDied`` *re-elect*: each re-enters the
join-or-lead path, and the first one back becomes the new leader for a
fresh group with the same key.  Because every group member would run
the same seed sequence (``seed + t``) and the stopping rule is a pure
function of the ordered outcomes, the re-elected leader's batch is
bit-identical to the one the dead leader would have produced -- the
promotion is observable only in the server's counters, never in the
response bits (``TestLeaderPromotion`` in ``tests/serve/`` pins this).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

__all__ = ["BatchCoalescer", "CoalesceGroup", "LeaderDied"]


class LeaderDied(Exception):
    """A group's leader died recoverably; followers should re-elect.

    Wraps the underlying cause (cancellation, injected worker death,
    broken pool).  This is control flow, not a client-visible error: a
    follower catching it loops back into join-or-lead instead of
    answering anything.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"group leader died: {cause!r}")
        self.cause = cause


@dataclass
class CoalesceGroup:
    """One pending group: the leader's budget, future, and follower count."""

    key: Hashable
    cap: int  # the leader's iteration budget; followers need <= this
    amplified: bool
    future: "asyncio.Future[Any]"
    followers: int = 0


class BatchCoalescer:
    """Tracks pending groups; attaches followers; resolves leaders."""

    def __init__(self) -> None:
        self._groups: Dict[Hashable, CoalesceGroup] = {}
        self.groups_started = 0
        self.followers_merged = 0
        self.followers_left = 0
        self.largest_group = 0

    def lead(self, key: Hashable, cap: int, amplified: bool) -> CoalesceGroup:
        """Register a new leader for ``key`` (replacing any resolved one).

        The group stays joinable until :meth:`resolve`; the caller must
        guarantee exactly one live leader per key (the server does, by
        running this on the event loop before scheduling execution).
        """
        group = CoalesceGroup(
            key=key,
            cap=cap,
            amplified=amplified,
            future=asyncio.get_running_loop().create_future(),
        )
        self._groups[key] = group
        self.groups_started += 1
        return group

    def join(self, key: Hashable, iterations: int) -> Optional[CoalesceGroup]:
        """Attach to ``key``'s pending group if compatible, else ``None``.

        Compatible means: a leader is pending, and either the pattern is
        amplified with ``iterations <= cap`` (prefix-derivable) or the
        request is a single-run exact duplicate (``iterations`` is
        canonically 1 on both sides).
        """
        group = self._groups.get(key)
        if group is None or group.future.done():
            return None
        if iterations > group.cap:
            return None
        group.followers += 1
        self.followers_merged += 1
        self.largest_group = max(self.largest_group, group.followers + 1)
        return group

    def leave(self, group: CoalesceGroup) -> None:
        """Unregister one follower from a still-pending group.

        Called when a follower stops waiting before the leader resolves:
        its client disconnected (writer closed) or its deadline expired.
        The leader keeps executing -- the work is already in flight and
        other followers may still want it -- but the departed follower
        must not be counted, or a dropped connection would leave the
        group's accounting (and a future promotion vote) wedged on a
        waiter that no longer exists.
        """
        if group.followers > 0 and not group.future.done():
            group.followers -= 1
            self.followers_left += 1

    def resolve(self, group: CoalesceGroup, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        """Complete a group: wake every follower, retire the key.

        With ``error`` the followers see the leader's exception (they
        asked for the same work; its failure is their failure).
        """
        if self._groups.get(group.key) is group:
            del self._groups[group.key]
        if group.future.done():
            return
        if error is not None:
            group.future.set_exception(error)
            # Touch the exception so an unjoined group (leader errored
            # with zero followers) never trips the never-retrieved warning.
            group.future.exception()
        else:
            group.future.set_result(result)

    def pending(self) -> int:
        return len(self._groups)

    def snapshot(self) -> Dict[str, Any]:
        """Counters for the stats endpoint.

        ``coalescing_factor`` is requests-served-per-execution over the
        coalesced population: ``(leaders + followers) / leaders``.
        """
        leaders = max(1, self.groups_started)
        return {
            "groups_started": self.groups_started,
            "followers_merged": self.followers_merged,
            "followers_left": self.followers_left,
            "largest_group": self.largest_group,
            "pending": len(self._groups),
            "coalescing_factor": (self.groups_started + self.followers_merged)
            / leaders,
        }

"""Run sessions: policy-driven execution with owned lifecycles.

A :class:`RunSession` is the one object between callers and the engine.
It takes an :class:`~repro.runtime.policy.ExecutionPolicy` and

* builds the right network for the policy's **model variant**
  (:meth:`network`: CONGEST / broadcast / LOCAL / congested clique);
* applies the policy's **metrics mode**, **sanitizer** and fault plan on
  every :meth:`run`, and its **lane** when a detector asks
  (:meth:`lane_class`);
* is the **one amplification path** (:meth:`amplify`): every
  color-coding detector runs its seeds through one call, which hands the
  whole policy to :func:`~repro.congest.parallel.run_amplified`, so the
  outcome is the same at any ``jobs``;
* optionally keeps a :class:`~repro.runtime.record.RunRecord`
  (:attr:`record`, written via :meth:`save_record`): one ``run`` event
  per :meth:`run`, one ``amplified`` event per :meth:`amplify` at any
  ``jobs``;
* owns **pool lifecycle**: an explicitly-constructed session is a
  context manager whose exit shuts the amplification worker pools down
  (`shutdown_pools`), so no ``ProcessPoolExecutor`` survives it; and
  **cache scope**: a ``cache=False`` policy clears the construction
  cache on close.

Sessions created implicitly for a detector called without one
(:func:`use_session` with ``session=None``) set ``owns_pools=False``:
they must not tear down the persistent pools between two detector calls,
or the pool-reuse performance contract (and its tests) would break.
Explicit sessions -- the CLI, experiment drivers, tests -- own their
pools and clean up.

The session is one client of an
:class:`~repro.runtime.engine.ExecutionEngine`: :meth:`run` and
:meth:`amplify` delegate to the engine's blocking primitives and keep
only the client-side bookkeeping (trace events, degradation / governor
notes, lifecycle).  The asyncio server (:mod:`repro.serve`) is the other
client, driving the same engine through its submit/await surface.

Every knob of a run comes from the session's policy; the constructor
takes only what is not a knob (the record, pool ownership, a shared
governor, the engine).  The record's ``degradation`` and ``governor``
note events are the one account of the pool ladder's steps and the
governor's throttles (see ``docs/robustness.md``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Type

import networkx as nx

from ..congest.network import CongestNetwork, ExecutionResult
from ..congest.parallel import AmplifiedOutcome, build_network
from .engine import ExecutionEngine, default_engine
from .governor import PeakHoldGovernor
from .policy import ExecutionPolicy
from .record import (
    RunRecord,
    event_from_amplified,
    event_from_result,
)

__all__ = ["RunSession", "use_session"]

_UNSET = object()


class RunSession:
    """Policy-driven execution scope (see the module docstring).

    Parameters
    ----------
    policy:
        The execution policy; defaults to ``ExecutionPolicy()``.
    record:
        ``True`` to open a :class:`RunRecord` (one trace event per run),
        or an existing record to append to.
    owns_pools:
        Whether closing this session shuts down the persistent
        amplification pools.  Explicit sessions default to ``True``;
        the implicit sessions built by :func:`use_session` pass
        ``False`` so back-to-back detector calls keep reusing pools.
    governor:
        An existing :class:`~repro.runtime.governor.PeakHoldGovernor` to
        share (e.g. one governor across the per-cell sessions of a
        sweep, so the peak-hold estimate carries over); ``None`` builds
        one from the policy's ``governor_budget`` / ``governor_decay``
        if set, else runs ungoverned.  A session never persists its
        governor: the server's ``--governor-state`` sidecar is the one
        owner of a saved estimate.
    engine:
        The :class:`~repro.runtime.engine.ExecutionEngine` to execute
        through; ``None`` (the default) uses the process-wide shared
        engine.  The server injects its own so every request rides one
        submit/await surface.  Sessions never shut an engine's threads
        down -- engines outlive their clients by design.
    """

    def __init__(
        self,
        policy: Optional[ExecutionPolicy] = None,
        *,
        record: "bool | RunRecord" = False,
        owns_pools: bool = True,
        governor: Optional[PeakHoldGovernor] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.owns_pools = owns_pools
        self.engine = engine if engine is not None else default_engine()
        self.record: Optional[RunRecord]
        if record is True:
            self.record = RunRecord.start(self.policy)
        elif isinstance(record, RunRecord):
            self.record = record
        else:
            self.record = None
        self.governor: Optional[PeakHoldGovernor]
        if governor is not None:
            self.governor = governor
        elif self.policy.governor_budget is not None:
            self.governor = PeakHoldGovernor(
                self.policy.governor_budget, self.policy.governor_decay
            )
        else:
            self.governor = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "RunSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Finalize the record and release owned resources (idempotent).

        Owned-pool sessions shut down every persistent amplification
        pool; a ``cache=False`` policy additionally clears the
        construction cache so no frozen graphs outlive the session.
        """
        if self._closed:
            return
        self._closed = True
        if self.record is not None:
            self.record.finalize()
        if self.owns_pools:
            self.engine.release_pools()
        if not self.policy.cache:
            from ..graphs.cache import clear_construction_cache

            clear_construction_cache()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- model dispatch ------------------------------------------------
    def network(
        self,
        graph: nx.Graph,
        bandwidth: Any = _UNSET,
        **kwargs: Any,
    ) -> CongestNetwork:
        """Build the policy's model variant over ``graph``.

        ``bandwidth`` defaults to the policy's; extra kwargs (assignment,
        namespace_size, inputs, ...) pass through to the network class.
        The dispatch is :func:`~repro.congest.parallel.build_network`,
        the same one every amplified chunk builds through.
        """
        bw = self.policy.bandwidth if bandwidth is _UNSET else bandwidth
        return build_network(self.policy.model, graph, bw, **kwargs)

    def resolve_bandwidth(
        self, explicit: Optional[int], default: Optional[int]
    ) -> Optional[int]:
        """A detector's ``B``: the caller's ``explicit`` value, else the
        policy's ``bandwidth``, else the detector's own ``default``."""
        if explicit is not None:
            return explicit
        if self.policy.bandwidth is not None:
            return self.policy.bandwidth
        return default

    def lane_class(self, object_cls: Type, vectorized_cls: Type) -> Type:
        """The algorithm class for the policy's execution lane.

        Detectors with a vectorized port call this instead of branching
        on a ``lane`` kwarg; the engine dispatches instances of the
        returned class to the matching lane automatically.
        """
        return vectorized_cls if self.policy.lane == "vectorized" else object_cls

    # -- execution -----------------------------------------------------
    def run(
        self,
        net: CongestNetwork,
        algorithm: Any,
        max_rounds: int,
        seed: Any = _UNSET,
        stop_on_reject: bool = False,
        label: Optional[str] = None,
    ) -> ExecutionResult:
        """Run ``algorithm`` on ``net`` under the session's policy.

        Metrics mode, the sanitizer, and the fault plan come from the
        policy; ``seed`` defaults to the policy's.  When the session
        keeps a record, one ``run`` trace event (decision, rounds, bit
        totals, per-round bits) is appended.  A kernel's failure
        propagates to the caller.
        """
        run_seed = self.policy.seed if seed is _UNSET else seed
        t0 = time.perf_counter() if self.record is not None else 0.0
        result = self.engine.execute_run(
            self.policy,
            net,
            algorithm,
            max_rounds=max_rounds,
            seed=run_seed,
            stop_on_reject=stop_on_reject,
            governor=self.governor,
        )
        if self.record is not None:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            self.record.add_event(
                event_from_result(
                    label or getattr(algorithm, "name", type(algorithm).__name__),
                    run_seed,
                    result,
                    wall_ms=wall_ms,
                )
            )
        return result

    def amplify(
        self,
        graph: nx.Graph,
        algo_factory: Callable[[int], Any],
        iterations: int,
        *,
        bandwidth: Any = _UNSET,
        max_rounds: int,
        seed: Any = _UNSET,
        stop_on_detect: bool = True,
        network_kwargs: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
        success_probability: Optional[float] = None,
    ) -> AmplifiedOutcome:
        """Amplified fan-out of ``algo_factory`` under the whole policy.

        The one way a color-coding detector runs its seeds: exactly
        :func:`repro.congest.parallel.run_amplified` with the policy's
        ``jobs``, ``metrics``, ``model``, ``sanitize`` and fault plan, so
        the merged outcome is bit-identical to the sequential loop at any
        ``jobs``, on the policy's model, with every seed audited when the
        sanitizer is on.  When the session keeps a record, one
        ``amplified`` trace event is appended, whatever ``jobs`` is.
        Pool-ladder steps taken (jobs > 1) land in the record as
        ``degradation`` note events.

        The policy's adaptive knobs (``amplify_confidence`` /
        ``amplify_batch`` / ``amplify_max_seeds``) arm the sequential
        test; detectors pass ``success_probability`` (their iteration's
        documented success rate) so the confidence target translates to
        an accept threshold.  The session's governor, if any, throttles
        chunk submission; each throttle decision lands in the record as a
        ``governor`` note event.
        """
        run_seed = self.policy.seed if seed is _UNSET else seed
        bw = self.policy.bandwidth if bandwidth is _UNSET else bandwidth
        t0 = time.perf_counter() if self.record is not None else 0.0

        def _degraded(step: Dict[str, Any]) -> None:
            self.note("degradation", **step)

        def _governed(step: Dict[str, Any]) -> None:
            self.note("governor", **step)

        outcome = self.engine.execute_amplify(
            self.policy,
            graph,
            algo_factory,
            iterations,
            bandwidth=bw,
            max_rounds=max_rounds,
            seed=run_seed,
            stop_on_detect=stop_on_detect,
            network_kwargs=network_kwargs,
            success_probability=success_probability,
            governor=self.governor,
            on_degrade=_degraded,
            on_govern=_governed,
        )
        if self.record is not None:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            self.record.add_event(
                event_from_amplified(
                    label or "amplified", run_seed, outcome, wall_ms=wall_ms
                )
            )
        return outcome

    # -- artifacts and caches ------------------------------------------
    def note(self, label: str, **extra: Any) -> None:
        """Append a free-form annotation to the record (no-op without one)."""
        if self.record is not None:
            self.record.note(label, **extra)

    def save_record(self, path: str) -> str:
        """Write the session's :class:`RunRecord` as JSONL and return the
        path; raises if the session was opened without ``record``."""
        if self.record is None:
            raise ValueError(
                "session has no record; construct it with record=True"
            )
        return str(self.record.write(path))

    def cache_stats(self) -> Dict[str, Any]:
        """Construction-cache counters (see :mod:`repro.graphs.cache`)."""
        from ..graphs.cache import cache_stats

        return cache_stats()


def use_session(session: Optional[RunSession]) -> RunSession:
    """Resolve a detector's ``session=`` argument.

    An explicit session is returned unchanged.  Without one, build an
    implicit session on the default policy.  Implicit sessions never own
    the persistent pools: two back-to-back detector calls without a
    session must keep reusing the same workers.
    """
    if session is not None:
        return session
    return RunSession(owns_pools=False)

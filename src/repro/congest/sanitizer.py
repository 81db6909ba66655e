"""Runtime model-soundness sanitizer (``CongestNetwork.run(sanitize=True)``).

The static pass in :mod:`repro.lint` proves what the AST can show; this
module is the dynamic backstop for what it cannot.  Two properties are
checked while an algorithm actually runs:

**No cross-node state aliasing (rule L2).**  The engine drives every node
with one shared ``Algorithm`` instance, so the only legal per-node storage
is ``NodeContext.state``.  :class:`AliasGuard` snapshots the instance
before the run and re-checks it after ``init``, after every round, and
after ``finish``: a callback that creates or rebinds an instance
attribute, mutates a shared mutable attribute (class- or instance-level),
or plants the *same mutable object* into two nodes' ``state`` dicts has
built a covert channel, and the guard raises
:class:`SanitizerViolation` with ``rule_id == "L2"`` at the first check
point that sees it.

**No hidden nondeterminism (rule L3).**  A run is replayed with the same
seed and every message (round, sender, receiver, kind, size, payload) plus
the final decisions are folded into a running digest.  If the replay's
digest diverges, the algorithm consulted entropy outside the engine's seed
tree (global ``random``, wall clock, id-dependent hashing of unordered
sets, ...) and a :class:`SanitizerViolation` with ``rule_id == "L3"``
reports the first divergent round.

**No unordered wire formats (rule L7).**  A message payload that is (or
contains, one container level deep) a ``set``/``frozenset`` has a
hash-dependent serialization and receiver-side iteration order, so two
runs of the "same" algorithm can disagree across processes and Python
builds.  :meth:`TrafficDigest.on_message` raises
``SanitizerViolation("L7", ...)`` the moment such a payload hits the
wire -- the dynamic twin of the static determinism pass.

**No mutable state across the pool boundary (rule L8).**
:func:`check_pool_crossing` rejects non-``frozen`` dataclass instances
(shallowly, one container level deep) before they are pickled into a
worker: a worker mutating its copy diverges silently from the parent.
``run_amplified`` calls it on every factory it ships.

**Wake promises are kept (rule L3).**  An algorithm's optional
``wake_round`` hook lets the engine skip rounds it promises are idle, so a
hook that lies changes results only in fast runs -- exactly where nobody
looks.  Sanitized runs never skip; instead the first pass records every
promise the engine would have acted on (the ``wake_promise`` hook of
:mod:`repro.congest.schedule`: per node in :class:`TrafficDigest`, for
the whole network in :class:`VecTrafficDigest`) and raises
``SanitizerViolation("L3", ...)`` if a node promised idle for a round
sends in it or changes its decision, halt flag or state digest.  A
message delivered to a node voids its promise (the hook assumes an empty
inbox).

Scope, honestly stated: aliasing detection tracks *mutable* objects
(dict / list / set / deque / bytearray / ndarray) one container level deep
-- sharing immutable values is not a channel; and replay detection sees
nondeterminism only once it reaches a message or a decision, which is
exactly when it can corrupt a result.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from itertools import zip_longest
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from .algorithm import NodeContext
from .message import Message

__all__ = [
    "SanitizerViolation",
    "AliasGuard",
    "TrafficDigest",
    "VecTrafficDigest",
    "check_pool_crossing",
    "verify_replay",
]

#: Types whose sharing across nodes constitutes a writable covert channel.
_MUTABLE_TYPES: Tuple[type, ...] = (dict, list, set, deque, bytearray, np.ndarray)


class SanitizerViolation(RuntimeError):
    """An algorithm broke the CONGEST contract at runtime.

    ``rule_id`` names the catalog rule the violation falls under (``L2``
    for shared state / aliasing, ``L3`` for nondeterminism) so tests and
    tooling can match runtime findings against the static pass.
    """

    def __init__(self, rule_id: str, message: str):
        super().__init__(f"[{rule_id}] {message}")
        self.rule_id = rule_id
        self.detail = message


def _mutable_objects(value: Any, depth: int = 2) -> Iterator[Any]:
    """Yield mutable objects reachable from ``value`` (containers one
    level deep -- the practical hiding spots without a full object walk).

    A numpy array whose ``writeable`` flag is off is *not* mutable and is
    not yielded: nothing can be written through it, so sharing it across
    nodes is not a channel.  The vectorized lane relies on this -- the
    engine's edge index arrays are flagged read-only precisely so they
    can be shared by every node and every run.
    """
    if isinstance(value, _MUTABLE_TYPES):
        if not (isinstance(value, np.ndarray) and not value.flags.writeable):
            yield value
    if depth <= 0:
        return
    if isinstance(value, dict):
        for v in value.values():
            yield from _mutable_objects(v, depth - 1)
    elif isinstance(value, (list, tuple, set, frozenset, deque)):
        for v in value:
            yield from _mutable_objects(v, depth - 1)


def _unordered_parts(value: Any, depth: int = 2) -> Iterator[Any]:
    """Yield set/frozenset objects reachable from ``value`` (containers
    one level deep -- the same practical scope as :func:`_mutable_objects`)."""
    if isinstance(value, (set, frozenset)):
        yield value
    if depth <= 0:
        return
    if isinstance(value, dict):
        for v in value.values():
            yield from _unordered_parts(v, depth - 1)
    elif isinstance(value, (list, tuple, deque)):
        for v in value:
            yield from _unordered_parts(v, depth - 1)


def _state_digest(state: Dict[str, Any]) -> str:
    """Digest of a node's (or a vectorized run's) state dict for the
    wake-promise audit.  Arrays hash by content (their ``repr`` elides
    large arrays); everything else by ``repr``, which is stable for an
    unmutated object."""
    h = hashlib.blake2b(digest_size=16)
    for key, value in state.items():
        h.update(f"{key!r}=".encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


def _broken_promise(who: str, r: int, until: int, what: str) -> SanitizerViolation:
    return SanitizerViolation(
        "L3",
        f"{who} {what} in round {r}, but wake_round promised it idle "
        f"until round {until}; a fast run skips that round, so the "
        "hook changes results -- return an earlier wake round",
    )


def check_pool_crossing(obj: Any, what: str = "object") -> None:
    """Raise ``SanitizerViolation("L8", ...)`` if ``obj`` is -- or
    shallowly contains -- an instance of a non-``frozen`` dataclass.

    Called on everything :func:`repro.congest.parallel.run_amplified`
    ships to a worker.  A mutable dataclass crossing the pool boundary is
    the runtime shape of lint rule L8: each worker gets a pickled copy,
    mutations diverge per process, and nothing is merged back.
    """
    candidates: List[Tuple[Any, str]] = [(obj, what)]
    if isinstance(obj, dict):
        candidates += [(v, f"{what}[{k!r}]") for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        candidates += [(v, f"{what}[{i}]") for i, v in enumerate(obj)]
    for value, label in candidates:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            if not value.__dataclass_params__.frozen:  # type: ignore[attr-defined]
                raise SanitizerViolation(
                    "L8",
                    f"{label} is an instance of non-frozen dataclass "
                    f"{type(value).__name__} crossing the process-pool "
                    "boundary; each worker mutates its own pickled copy "
                    "and the parent never sees the writes -- declare the "
                    "dataclass frozen=True or pass plain immutable data",
                )


class AliasGuard:
    """Snapshot of the shared algorithm instance + aliasing detector."""

    def __init__(self, algorithm: Any):
        self.algorithm = algorithm
        self._attr_ids: Dict[str, int] = {
            k: id(v) for k, v in vars(algorithm).items()
        }
        self._mutable_reprs: Dict[str, str] = {
            k: repr(v) for k, v in self._shared_attrs()
        }

    def _shared_attrs(self) -> List[Tuple[str, Any]]:
        """Mutable attributes every node can reach through ``self``:
        instance attributes first, then class-level ones up the MRO."""
        seen: Dict[str, Any] = dict(vars(self.algorithm))
        for klass in type(self.algorithm).__mro__:
            for k, v in vars(klass).items():
                if k.startswith("__"):
                    continue
                seen.setdefault(k, v)
        return [(k, v) for k, v in seen.items() if isinstance(v, _MUTABLE_TYPES)]

    def check(self, contexts: Mapping[int, NodeContext], where: str) -> None:
        """Raise ``SanitizerViolation("L2", ...)`` on the first breach."""
        current = {k: id(v) for k, v in vars(self.algorithm).items()}
        for k, ident in current.items():
            if k not in self._attr_ids:
                raise SanitizerViolation(
                    "L2",
                    f"callback created instance attribute '{k}' (detected "
                    f"after {where}); the algorithm instance is shared by "
                    "every node -- per-node state belongs in node.state",
                )
            if ident != self._attr_ids[k]:
                raise SanitizerViolation(
                    "L2",
                    f"callback rebound instance attribute '{k}' (detected "
                    f"after {where}); the algorithm instance is shared by "
                    "every node",
                )
        for k, v in self._shared_attrs():
            baseline = self._mutable_reprs.get(k)
            if baseline is not None and repr(v) != baseline:
                raise SanitizerViolation(
                    "L2",
                    f"shared mutable attribute '{k}' mutated during the run "
                    f"(detected after {where}); nodes are using the "
                    "algorithm instance as a blackboard",
                )
        owners: Dict[int, int] = {}
        owner_obj: Dict[int, Any] = {}
        for u, ctx in contexts.items():
            for obj in _mutable_objects(ctx.state):
                ident = id(obj)
                prev = owners.get(ident)
                if prev is None:
                    owners[ident] = u
                    owner_obj[ident] = obj
                elif prev != u:
                    raise SanitizerViolation(
                        "L2",
                        f"nodes {prev} and {u} hold the *same* mutable "
                        f"{type(obj).__name__} in their state (detected "
                        f"after {where}); shared objects are a covert "
                        "cross-node channel",
                    )


class _Digest:
    """What both lanes' digests share: the running hash, the per-round
    snapshots :func:`verify_replay` compares, and the ``after_init`` /
    ``after_finish`` schedule hooks (see :mod:`repro.congest.schedule`).
    With a ``guard`` the digest also drives :class:`AliasGuard` checks at
    every hook (first pass); without one it only digests (replay pass)."""

    def __init__(self, guard: Optional[AliasGuard] = None):
        self.guard = guard
        self._h = hashlib.blake2b(digest_size=16)
        #: running digest snapshot at the end of each round, in order.
        self.round_digests: List[str] = []
        self.final_digest: Optional[str] = None

    def after_init(self, lane: Any) -> None:
        if self.guard is not None:
            self.guard.check(lane.contexts, "init")

    def after_finish(self, lane: Any) -> None:
        contexts = lane.contexts
        for u in sorted(contexts):
            self._h.update(f"D|{u}|{contexts[u].decision}".encode("utf-8"))
        self.final_digest = self._h.hexdigest()
        if self.guard is not None:
            self.guard.check(contexts, "finish")


class TrafficDigest(_Digest):
    """Observer for the object lane: folds every message and the final
    decisions into the digest and audits per-node wake promises."""

    def __init__(self, guard: Optional[AliasGuard] = None):
        super().__init__(guard)
        #: node -> (promised wake round, (decision, halted, state digest)).
        self._promises: Dict[int, Tuple[int, Tuple[Any, bool, str]]] = {}
        #: promised nodes that were sent a message this round.
        self._voided: Set[int] = set()

    def wake_promise(self, r: int, lane: Any, wakes: Dict[int, int]) -> None:
        """Record the nodes ``wake_round`` calls idle from round ``r`` on
        (first pass only).  A node already holding an unexpired promise
        keeps its snapshot: it must not have changed since."""
        if self.guard is None:
            return
        contexts = lane.contexts
        for u, w in wakes.items():
            if w <= r:
                continue
            held = self._promises.get(u)
            if held is not None and held[0] > r:
                if w > held[0]:
                    self._promises[u] = (w, held[1])
                continue
            ctx = contexts[u]
            self._promises[u] = (
                w, (ctx.decision, ctx._halted, _state_digest(ctx.state))
            )

    def on_message(self, r: int, u: int, v: int, msg: Message) -> None:
        if self._promises:
            held = self._promises.get(u)
            if held is not None and held[0] > r:
                raise _broken_promise(f"node {u}", r, held[0], "sent a message")
            if v in self._promises:
                self._voided.add(v)
        for part in _unordered_parts(msg.payload):
            raise SanitizerViolation(
                "L7",
                f"message {u}->{v} at round {r} carries an unordered "
                f"{type(part).__name__} in its payload; its serialization "
                "and receiver-side iteration order are hash-dependent, so "
                "the wire format is not deterministic -- send a sorted "
                "tuple instead",
            )
        rec = f"{r}|{u}|{v}|{msg.kind}|{msg.size_bits}|{msg.payload!r}"
        self._h.update(rec.encode("utf-8", "backslashreplace"))

    def after_round(self, r: int, lane: Any) -> None:
        self.round_digests.append(self._h.hexdigest())
        if self._promises:
            self._audit_promises(r, lane.contexts)
        if self.guard is not None:
            self.guard.check(lane.contexts, f"round {r}")

    def _audit_promises(self, r: int, contexts: Dict[int, NodeContext]) -> None:
        for u, (until, (decision, halted, digest)) in list(self._promises.items()):
            ctx = contexts[u]
            if ctx.decision is not decision:
                raise _broken_promise(f"node {u}", r, until, "changed its decision")
            if ctx._halted != halted:
                raise _broken_promise(f"node {u}", r, until, "changed its halt flag")
            if _state_digest(ctx.state) != digest:
                raise _broken_promise(f"node {u}", r, until, "changed its state")
            if until <= r + 1 or u in self._voided:
                del self._promises[u]
        self._voided.clear()


class VecTrafficDigest(_Digest):
    """Observer for the vectorized lane (``execute_vectorized``).

    Same contract as :class:`TrafficDigest` -- ``round_digests`` /
    ``final_digest`` feed :func:`verify_replay` unchanged -- but the
    digest is computed from the *packed* representation: each round folds
    the outbox edge indices, the declared sizes, the raw payload bytes,
    and the engine's per-node decision/halted arrays.  Any hidden
    nondeterminism in a kernel (global RNG, iteration over an unordered
    container) perturbs one of those arrays and diverges the replay.

    With a ``guard`` it also drives :class:`AliasGuard` after init and
    after every round (instance-attribute and shared-mutable-attribute
    checks; the per-node state aliasing check runs on the synthesized
    final contexts).
    """

    def __init__(self, guard: Optional[AliasGuard] = None):
        super().__init__(guard)
        #: (promised wake round, run state, (decision, halted, state digest))
        self._promise: Optional[Tuple[int, Any, Tuple[bytes, bytes, str]]] = None

    def wake_promise(self, r: int, lane: Any, until: int) -> None:
        """Record that ``wake_round`` calls the whole network idle from
        round ``r`` until ``until`` (first pass only)."""
        if self.guard is None or until <= r:
            return
        run, state = lane.run, lane.state
        held = self._promise
        if held is not None and held[0] > r:
            self._promise = (max(until, held[0]), held[1], held[2])
            return
        self._promise = (
            until,
            state,
            (run.decision.tobytes(), run.halted.tobytes(), _state_digest(state)),
        )

    def vec_round(self, r: int, edges: Any, sizes: Any, payload: Any) -> None:
        if self._promise is not None and len(edges):
            raise _broken_promise("the network", r, self._promise[0], "sent messages")
        self._h.update(f"R|{r}|".encode())
        self._h.update(np.ascontiguousarray(edges).tobytes())
        if isinstance(sizes, np.ndarray):
            self._h.update(np.ascontiguousarray(sizes).tobytes())
        else:
            self._h.update(f"s{sizes}".encode())
        if payload is not None:
            self._h.update(np.ascontiguousarray(payload).tobytes())

    def after_round(self, r: int, lane: Any) -> None:
        run = lane.run
        if self._promise is not None:
            until, state, (decision, halted, digest) = self._promise
            if run.decision.tobytes() != decision:
                raise _broken_promise("the network", r, until, "changed a decision")
            if run.halted.tobytes() != halted:
                raise _broken_promise("the network", r, until, "changed a halt flag")
            if _state_digest(state) != digest:
                raise _broken_promise("the network", r, until, "changed its state")
            if until <= r + 1:
                self._promise = None
        self._h.update(run.decision.tobytes())
        self._h.update(run.halted.tobytes())
        self.round_digests.append(self._h.hexdigest())
        if self.guard is not None:
            self.guard.check(lane.contexts, f"round {r}")


def verify_replay(first: _Digest, replay: _Digest) -> None:
    """Raise ``SanitizerViolation("L3", ...)`` if the replay diverged."""
    if first.final_digest == replay.final_digest:
        return
    for r, (a, b) in enumerate(
        zip_longest(first.round_digests, replay.round_digests)
    ):
        if a != b:
            raise SanitizerViolation(
                "L3",
                f"same-seed replay diverged at round {r}: the algorithm "
                "used randomness outside node.rng (or other ambient "
                "state), so its executions are not replayable",
            )
    raise SanitizerViolation(
        "L3",
        "same-seed replay produced identical traffic but different final "
        "decisions; the finish phase is nondeterministic",
    )

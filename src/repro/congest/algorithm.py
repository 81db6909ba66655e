"""The per-node algorithm API for the distributed-model simulators.

An :class:`Algorithm` is a *description* of what every node runs; per-node
state lives in the :class:`NodeContext` the engine hands to each callback.
This enforces the locality discipline of the CONGEST/LOCAL models: a node can
see only

* its own identifier,
* the identifiers of its neighbors (standard ``KT1`` knowledge; algorithms
  that want the weaker port-numbering model simply ignore ``node.neighbors``),
* global *parameters* every node is assumed to know (``n``, bandwidth ``B``,
  and any algorithm constants),
* its private input (if any), and
* the messages it received this round.

Nothing in the API exposes the global graph.

The decision semantics follow Definition 1 of the paper: an execution
*rejects* (reports "H is present") if **some** node rejects, and *accepts*
("H-free") if **all** nodes accept.
"""

from __future__ import annotations

import abc
import enum
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .message import Message

__all__ = ["Decision", "NodeContext", "Algorithm", "WAKE_NEVER"]

#: ``wake_round`` value for "nothing happens here again unless a message
#: arrives"; the engine caps every wake round at ``max_rounds``.
WAKE_NEVER: int = sys.maxsize


class Decision(enum.Enum):
    """A node's output in a detection algorithm."""

    UNDECIDED = "undecided"
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass
class NodeContext:
    """Everything one node is allowed to know, plus its mutable state.

    Attributes
    ----------
    id:
        The node's identifier (from the run's namespace).
    neighbors:
        Tuple of neighbor identifiers, sorted ascending.  In the LOCAL /
        CONGEST models with ``KT1`` initial knowledge this is known at round
        zero.
    n:
        Number of nodes in the network, if the model grants that knowledge
        (``None`` otherwise).
    namespace_size:
        Size of the identifier namespace the run draws IDs from.
    bandwidth:
        Per-edge per-round bit budget ``B`` (``None`` means unbounded, i.e.
        the LOCAL model).
    input:
        Private input to this node (problem-specific; ``None`` for pure
        graph problems).
    rng:
        Private randomness.  Deterministic algorithms must not touch it.
    state:
        Scratch dictionary for the algorithm's per-node state machine.
    round:
        The current round number, starting at 0 for the first communication
        round.  Maintained by the engine.
    """

    id: int
    neighbors: Tuple[int, ...]
    n: Optional[int]
    namespace_size: int
    bandwidth: Optional[int]
    input: Any = None
    rng: Optional[np.random.Generator] = None
    state: Dict[str, Any] = field(default_factory=dict)
    round: int = 0
    decision: Decision = Decision.UNDECIDED
    _halted: bool = field(default=False, repr=False)

    # -- decision helpers -------------------------------------------------
    def accept(self) -> None:
        """Decide ACCEPT (graph looks H-free from this node's perspective)."""
        self.decision = Decision.ACCEPT

    def reject(self) -> None:
        """Decide REJECT (this node has witnessed a copy of H)."""
        self.decision = Decision.REJECT

    def halt(self) -> None:
        """Stop participating: no more ``round`` callbacks for this node."""
        self._halted = True

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class Algorithm(abc.ABC):
    """A distributed algorithm, instantiated once and shared by all nodes.

    Subclasses implement :meth:`init` and :meth:`round`.  They must keep all
    per-node state in ``node.state``; the algorithm object itself should be
    treated as read-only configuration (so one instance can drive many
    simulations and many nodes).

    Two optional engine hooks let the round loop do less work without
    changing any outcome; :mod:`repro.congest.schedule` states when the
    engine consults them and what it does with the answer:

    * ``is_quiescent(node) -> bool`` affirms that a node is idle for good.
    * ``wake_round(node, r) -> int`` returns the earliest round ``>= r``
      in which ``node`` could send, change its ``state`` or decision, or
      halt, *assuming it receives nothing*.  Returning ``r`` is always
      safe; return :data:`WAKE_NEVER` for a node that would do nothing
      for the rest of the run.  The hook must not mutate ``node``.
      Leave it ``None`` (the default) and every round runs.
    """

    #: Human-readable name used in benchmark tables.
    name: str = "algorithm"
    #: Optional ``wake_round(node, r) -> int`` hook (see the class doc).
    wake_round: Optional[Callable[[NodeContext, int], int]] = None

    def init(self, node: NodeContext) -> None:
        """Called once per node before round 0.  Default: no-op."""

    @abc.abstractmethod
    def round(
        self,
        node: NodeContext,
        inbox: Mapping[int, Message],
    ) -> Mapping[int, Message]:
        """Execute one synchronous round at ``node``.

        Parameters
        ----------
        node:
            The node's context (state, id, neighbors, ...).
        inbox:
            Messages received this round, keyed by sender id.  Empty in
            round 0.

        Returns
        -------
        Mapping from neighbor id to the message to send on that edge.  At
        most one message per neighbor per round; each must satisfy the
        bandwidth bound.  Use :func:`broadcast` for the common send-to-all
        pattern.
        """

    def finish(self, node: NodeContext) -> None:
        """Called once per node after the last round.

        Nodes still :data:`Decision.UNDECIDED` after ``finish`` are treated
        as accepting (the conventional default for detection algorithms,
        where silence means "nothing found here").
        """


def broadcast(node: NodeContext, message: Message) -> Dict[int, Message]:
    """Outbox that sends ``message`` to every neighbor of ``node``."""
    return {v: message for v in node.neighbors}


def silent() -> Dict[int, Message]:
    """An empty outbox (send nothing this round)."""
    return {}

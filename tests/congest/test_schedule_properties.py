"""Both lanes follow the one round schedule, rule for rule.

A scripted algorithm pair -- one object-lane :class:`Algorithm`, one
:class:`VectorizedAlgorithm` -- makes every node send, reject and halt at
drawn rounds, and optionally declares an honest ``wake_round`` hook and a
quiescence hook.  Run under drawn crash schedules, delivery faults,
``stop_on_reject``, ``max_rounds`` cuts (including cuts that land inside a
wake skip) and both metric modes, the two lanes must agree on billed
rounds, every node's decision and final state, the totals and the full
per-edge ledger.  Both must also match :func:`_reference`, a direct
round-by-round reading of the schedule contract with no engine, and
without faults an object run that ignores the wake hook must agree too,
so the skip is pinned against every round actually running.  These rules
live in one driver, :mod:`repro.congest.schedule`; the real detectors
exercise them only indirectly.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.congest import (
    VEC_ACCEPT,
    VEC_REJECT,
    VEC_UNDECIDED,
    WAKE_NEVER,
    Algorithm,
    CongestNetwork,
    Decision,
    Message,
    VecOutbox,
    VectorizedAlgorithm,
    broadcast,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan

#: Scripted events happen in rounds 0 .. HORIZON - 1.
HORIZON = 12
BANDWIDTH = 8


def _events(send, reject_at, halt_at):
    out = set(send)
    out.update(e for e in (reject_at, halt_at) if e is not None)
    return out


class ScriptedNodes(Algorithm):
    """Node ``u`` follows ``script[u] = (send rounds, reject round, halt
    round, message bits)`` and counts the messages it hears."""

    name = "scripted"

    def __init__(self, script, wake: bool, quiescence: bool):
        self.script = script
        self.events = {u: frozenset(_events(*s[:3])) for u, s in script.items()}
        if wake:
            self.wake_round = self._wake
        if quiescence:
            self.is_quiescent = self._idle

    def init(self, node):
        node.state["heard"] = 0

    def round(self, node, inbox):
        send, reject_at, halt_at, size = self.script[node.id]
        r = node.round
        node.state["heard"] += len(inbox)
        if r == reject_at:
            node.reject()
        out = broadcast(node, Message.of_record(node.id, size)) if r in send else {}
        if r == halt_at:
            node.halt()
        return out

    def finish(self, node):
        if node.decision is Decision.UNDECIDED:
            node.accept()

    def _wake(self, node, r):
        return min((e for e in self.events[node.id] if e >= r), default=WAKE_NEVER)

    def _idle(self, node):
        return not any(e > node.round for e in self.events[node.id])


class VecScriptedNodes(VectorizedAlgorithm):
    """The batched twin of :class:`ScriptedNodes`.  It tracks its own
    halts and ignores crashes, so crashed nodes keep sending and
    rejecting in the kernel: the engine must mask and pin them."""

    name = "vec-scripted"

    def __init__(self, script, wake: bool, quiescence: bool):
        self.script = script
        self.quiescence = quiescence
        if wake:
            self.wake_round = self._wake

    def init_state(self, run):
        ids = run.grid.ids.tolist()
        send = np.zeros((run.n, HORIZON), dtype=bool)
        event = np.zeros((run.n, HORIZON), dtype=bool)
        reject_at = np.full(run.n, -1, dtype=np.int64)
        halt_at = np.full(run.n, -1, dtype=np.int64)
        size = np.zeros(run.n, dtype=np.int64)
        for p, u in enumerate(ids):
            s, rej, halt, bits = self.script[u]
            send[p, sorted(s)] = True
            event[p, sorted(_events(s, rej, halt))] = True
            reject_at[p] = -1 if rej is None else rej
            halt_at[p] = -1 if halt is None else halt
            size[p] = bits
        return {
            "send": send, "event": event, "reject_at": reject_at,
            "halt_at": halt_at, "size": size,
            "heard": np.zeros(run.n, dtype=np.int64), "last": np.full(1, -1),
            "done": np.zeros(run.n, dtype=bool),
        }

    def step_all(self, run, r, state, inbox):
        grid = run.grid
        heard_by = inbox.recv[~run.halted[inbox.recv]]
        np.add.at(state["heard"], heard_by, 1)
        live = ~state["done"]
        run.decision[live & (state["reject_at"] == r)] = VEC_REJECT
        sending = live & state["send"][:, r] if r < HORIZON else np.zeros_like(live)
        edges = grid.out_edges(np.nonzero(sending)[0])
        halting = live & (state["halt_at"] == r)
        state["done"] |= halting
        run.halted[halting] = True
        state["last"][0] = r
        if edges.shape[0] == 0:
            return None
        senders = grid.src[edges]
        return VecOutbox(
            edges=edges,
            payload=grid.ids[senders],
            size_bits=state["size"][senders],
        )

    def finish_all(self, run, state):
        run.decision[run.decision == VEC_UNDECIDED] = VEC_ACCEPT

    def all_quiescent(self, run, state):
        if not self.quiescence:
            return False
        later = state["event"][:, int(state["last"][0]) + 1:].any(axis=1)
        return not bool((later & ~run.halted).any())

    def node_state(self, run, state, pos):
        return {"heard": int(state["heard"][pos])}

    def _wake(self, run, state, r):
        pending = state["event"][~run.halted, r:]
        _, cols = np.nonzero(pending)
        return r + int(cols.min()) if cols.size else WAKE_NEVER


# -- strategies --------------------------------------------------------------

rounds = st.integers(0, HORIZON - 1)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 9))
    graph = nx.gnp_random_graph(
        n, draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**16))
    )
    script = {
        u: (
            # Sparse sends leave silent spans for the wake skip to jump.
            frozenset(draw(st.sets(rounds, max_size=3))),
            draw(st.none() | rounds),
            draw(st.none() | rounds),
            draw(st.integers(1, BANDWIDTH)),
        )
        for u in range(n)
    }
    # Node n (absent from the graph) may be scheduled too: ignored.
    crash = {u: draw(rounds) for u in draw(st.sets(st.integers(0, n), max_size=3))}
    faults = ["crash:" + "+".join(f"{u}@{r}" for u, r in sorted(crash.items()))]
    if draw(st.booleans()):
        faults.append(f"drop:{draw(st.sampled_from([0.2, 0.5]))}")
    return {
        "graph": graph,
        "script": script,
        "wake": draw(st.booleans()),
        "quiescence": draw(st.booleans()),
        "faults": "|".join(f for f in faults if f != "crash:") or None,
        "stop_on_reject": draw(st.booleans()),
        "max_rounds": draw(st.integers(1, HORIZON + 3)),
        "metrics": draw(st.sampled_from(["full", "lite"])),
        "seed": draw(st.integers(0, 100)),
    }


def _observed(res):
    m = res.metrics
    out = {
        "decision": res.decision,
        "rounds": res.rounds,
        "node_decisions": res.node_decisions,
        "heard": {u: res.contexts[u].state["heard"] for u in res.node_decisions},
        "totals": (
            m.rounds, m.total_bits, m.total_messages, m.max_message_bits,
            dict(m.round_bits.items()),
        ),
    }
    if m.mode == "full":
        out["ledger"] = (
            dict(m.edge_bits), dict(m.node_bits), dict(m.node_messages)
        )
    return out


def _run(net, algo, sc):
    return net.run(
        algo,
        max_rounds=sc["max_rounds"],
        seed=sc["seed"],
        stop_on_reject=sc["stop_on_reject"],
        metrics=sc["metrics"],
        faults=sc["faults"],
    )


def _reference(sc):
    """What the schedule contract (``repro.congest.schedule``) says a run
    of :class:`ScriptedNodes` observes, computed round by round with no
    engine: every round runs, so the wake hook plays no part."""
    graph, script = sc["graph"], sc["script"]
    nodes = sorted(graph.nodes())
    injector = None
    if sc["faults"] is not None:
        injector = FaultInjector(FaultPlan.from_spec(sc["faults"]), sc["seed"])
    crash = dict(injector.plan.crash) if injector is not None else {}
    decision = {u: Decision.UNDECIDED for u in nodes}
    halted = {u: False for u in nodes}
    heard = {u: 0 for u in nodes}
    pending = {u: 0 for u in nodes}
    frozen = {}
    edge_bits, node_bits, node_messages, round_bits = {}, {}, {}, {}
    rounds = 0
    for r in range(sc["max_rounds"]):
        for u in nodes:
            if u in crash and crash[u] <= r and u not in frozen:
                frozen[u] = decision[u]
                halted[u] = True
        if all(halted.values()):
            break
        if sc["stop_on_reject"] and Decision.REJECT in decision.values():
            break
        delivered, pending = pending, {u: 0 for u in nodes}
        sent = False
        for u in nodes:
            if halted[u]:
                continue
            send, reject_at, halt_at, size = script[u]
            heard[u] += delivered[u]
            if r == reject_at:
                decision[u] = Decision.REJECT
            for v in sorted(graph[u]) if r in send else ():
                sent = True
                edge_bits[(u, v)] = edge_bits.get((u, v), 0) + size
                node_bits[u] = node_bits.get(u, 0) + size
                node_messages[u] = node_messages.get(u, 0) + 1
                round_bits[r] = round_bits.get(r, 0) + size
                if injector is None or injector.delivery(r, u, v, size)[0]:
                    pending[v] += 1
            if r == halt_at:
                halted[u] = True
        rounds = r + 1
        if not sent and sc["quiescence"] and all(
            halted[u] or max(_events(*script[u][:3]), default=-1) <= r
            for u in nodes
        ):
            rounds = r  # the probe round is not billed
            break
    for u in nodes:
        if decision[u] is Decision.UNDECIDED:
            decision[u] = Decision.ACCEPT
    decision.update(frozen)
    out = {
        "decision": (
            Decision.REJECT if Decision.REJECT in decision.values() else Decision.ACCEPT
        ),
        "rounds": rounds,
        "node_decisions": decision,
        "heard": heard,
        "totals": (
            max(round_bits, default=-1) + 1, sum(round_bits.values()),
            sum(node_messages.values()),
            max((script[u][3] for u in node_messages), default=0), round_bits,
        ),
    }
    if sc["metrics"] == "full":
        out["ledger"] = (edge_bits, node_bits, node_messages)
    return out


def _path_scenario(max_rounds, quiescence):
    """Node 0 sends in rounds 0 and 9 and node 2 halts in round 11 on a
    3-path: rounds 1 .. 8 are silent, so a wake run skips from 1 to 9."""
    return {
        "graph": nx.path_graph(3),
        "script": {
            0: (frozenset({0, 9}), None, None, 5),
            1: (frozenset(), 10, None, 3),
            2: (frozenset(), None, 11, 3),
        },
        "wake": True,
        "quiescence": quiescence,
        "faults": None,
        "stop_on_reject": False,
        "max_rounds": max_rounds,
        "metrics": "full",
        "seed": 0,
    }


class TestLanesShareTheSchedule:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sc=scenarios())
    # A max_rounds cut inside the wake skip (rounds 1 .. 8 are skipped).
    @example(sc=_path_scenario(max_rounds=5, quiescence=False))
    @example(sc=_path_scenario(max_rounds=HORIZON + 3, quiescence=True))
    def test_object_and_vectorized_runs_agree(self, sc):
        net = CongestNetwork(sc["graph"], bandwidth=BANDWIDTH)
        args = (sc["script"], sc["wake"], sc["quiescence"])
        obj = _observed(_run(net, ScriptedNodes(*args), sc))
        vec = _observed(_run(net, VecScriptedNodes(*args), sc))
        assert obj == vec
        assert obj == _reference(sc)
        if sc["faults"] is None:
            every_round = ScriptedNodes(sc["script"], False, sc["quiescence"])
            assert _observed(_run(net, every_round, sc)) == obj

    def test_the_skip_happens(self):
        calls = []

        class Counting(ScriptedNodes):
            def round(self, node, inbox):
                calls.append(node.round)
                return super().round(node, inbox)

        sc = _path_scenario(max_rounds=HORIZON + 3, quiescence=True)
        net = CongestNetwork(sc["graph"], bandwidth=BANDWIDTH)
        res = _run(net, Counting(sc["script"], True, True), sc)
        assert sorted(set(calls)) == [0, 1, 9, 10, 11]
        # Round 11 (node 2 halts) is silent and every node is then idle:
        # the quiescence probe, executed but not billed.
        assert res.rounds == 11
        assert res.node_decisions == {
            0: Decision.ACCEPT, 1: Decision.REJECT, 2: Decision.ACCEPT,
        }

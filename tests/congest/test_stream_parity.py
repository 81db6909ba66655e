"""Per-node randomness: both lanes give each node the eager recipe's stream.

The reference is the recipe the object lane used to build up front:
node ``p`` (ascending identifiers) owns ``default_rng(master.integers(0,
2**63))``, drawn in order from ``master = default_rng(seed)``.  Both lanes
now derive those streams lazily (:mod:`repro.congest.randomness`), serve a
first ``integers(0, high)`` from one array computed without a generator
(in runs of at least ``_MIRROR_MIN_STREAMS`` nodes), and build a node's
generator only on any other use.  Here random per-node
call scripts -- a first bounded draw (including a bound whose draws mostly
take the Lemire rejection path), then ``random()``, ``choice``, sized
``integers`` -- run interleaved across the nodes of random graphs, some
nodes never touching their stream, and every output must equal the
reference's, in both lanes, with and without the sanitizer.

``scripts/verify.sh`` runs this file by name in its numpy drift guard.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import CongestNetwork
from repro.congest.algorithm import Algorithm
from repro.congest.randomness import _MIRROR_MIN_STREAMS, first_integers
from repro.congest.vectorized import VectorizedAlgorithm

#: First-draw bounds: the trivial bound, small ones, one whose Lemire
#: draws mostly reject (3 in 4), and the full 32-bit range.
FIRST_HIGHS = (1, 2, 5, 2**32 - 2**30, 2**32)

Op = Tuple[Any, ...]


def _apply(rng: Any, op: Op) -> Any:
    kind = op[0]
    if kind == "first":
        return rng.integers(0, op[1])
    if kind == "short":
        return rng.integers(op[1])
    if kind == "random":
        return rng.random()
    if kind == "choice":
        return rng.choice(op[1])
    return rng.integers(0, op[1], size=op[2])


def _norm(value: Any) -> Tuple[str, Any]:
    """A value with its type: an array's dtype and contents, a scalar's
    type name and value."""
    if isinstance(value, np.ndarray):
        return (f"ndarray[{value.dtype}]", value.tolist())
    return (type(value).__name__, value.item() if hasattr(value, "item") else value)


def _reference(seed: int, scripts: List[Tuple[int, Tuple[Op, ...]]]) -> List[list]:
    """Every node's outputs and final generator state under the eager
    recipe."""
    master = np.random.default_rng(seed)
    out = []
    for _, ops in scripts:
        rng = np.random.default_rng(master.integers(0, 2**63))
        out.append(([_norm(_apply(rng, op)) for op in ops], rng.bit_generator.state))
    return out


class _Scripted(Algorithm):
    """Object lane: node ``p`` runs its ``i``-th op in round ``delay + i``
    and halts after its last."""

    name = "scripted-draws"

    def __init__(self, scripts: Tuple[Tuple[int, Tuple[Op, ...]], ...]):
        self.scripts = scripts

    def init(self, node) -> None:
        node.state["out"] = []

    def round(self, node, inbox) -> Dict[int, Any]:
        delay, ops = self.scripts[node.id]
        i = node.round - delay
        if 0 <= i < len(ops):
            node.state["out"].append(_norm(_apply(node.rng, ops[i])))
        if i >= len(ops) - 1:
            node.halt()
        return {}


class _VecScripted(VectorizedAlgorithm):
    """Vectorized lane: an optional lane-wide first draw
    (:func:`first_integers`) at init, then the same per-position scripts
    on ``run.rngs[p]``."""

    name = "scripted-draws-vec"
    message_dtype = np.dtype(np.int64)

    def __init__(self, lane_first, scripts):
        self.lane_first = lane_first
        self.scripts = scripts

    def init_state(self, run) -> Dict[str, Any]:
        out: List[list] = [[] for _ in range(run.n)]
        if self.lane_first is not None:
            for p, value in enumerate(first_integers(run.rngs, self.lane_first)):
                out[p].append(_norm(value))
        return {"out": out}

    def step_all(self, run, r, state, inbox):
        for p, (delay, ops) in enumerate(self.scripts):
            if run.halted[p]:
                continue
            i = r - delay
            if 0 <= i < len(ops):
                state["out"][p].append(_norm(_apply(run.rngs[p], ops[i])))
            if i >= len(ops) - 1:
                run.halted[p] = True
        return None

    def node_state(self, run, state, pos) -> Dict[str, Any]:
        return {"out": list(state["out"][pos])}


_first = st.sampled_from(FIRST_HIGHS).flatmap(
    lambda h: st.sampled_from([("first", h), ("short", h)])
)
_tail = st.one_of(
    _first,
    st.just(("random",)),
    st.integers(1, 9).map(lambda k: ("choice", k)),
    st.tuples(st.just("sized"), st.sampled_from([2, 7, 2**40]), st.integers(0, 3)),
)
_script = st.tuples(
    st.integers(0, 2),
    st.one_of(
        st.just(()),  # a node that never touches its stream
        st.tuples(_first).flatmap(
            lambda head: st.lists(_tail, max_size=3).map(lambda t: head + tuple(t))
        ),
        st.lists(_tail, min_size=1, max_size=3).map(tuple),
    ),
)


@st.composite
def _cases(draw):
    # Both sides of _MIRROR_MIN_STREAMS: small runs draw from real
    # generators, larger ones from the mirror.
    n = draw(st.integers(1, 2 * _MIRROR_MIN_STREAMS))
    graph = nx.gnp_random_graph(n, draw(st.sampled_from([0.0, 0.3, 0.7])),
                                seed=draw(st.integers(0, 10**6)))
    scripts = tuple(draw(st.lists(_script, min_size=n, max_size=n)))
    return graph, draw(st.integers(0, 2**63 - 1)), scripts


def _rounds(scripts) -> int:
    return max(delay + len(ops) for delay, ops in scripts) + 1


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestStreamParity:
    @_SETTINGS
    @given(case=_cases(), sanitize=st.booleans())
    def test_object_lane_matches_the_eager_recipe(self, case, sanitize):
        graph, seed, scripts = case
        net = CongestNetwork(graph, bandwidth=8)
        res = net.run(_Scripted(scripts), max_rounds=_rounds(scripts), seed=seed,
                      sanitize=sanitize)
        want = _reference(seed, scripts)
        for p, u in enumerate(sorted(res.contexts)):
            ctx = res.contexts[u]
            outs, state = want[p]
            assert ctx.state["out"] == outs, (p, scripts[p])
            # The stream continues exactly where the eager generator's does.
            assert ctx.rng.bit_generator.state == state, (p, scripts[p])

    @_SETTINGS
    @given(case=_cases(), sanitize=st.booleans(),
           lane_first=st.one_of(st.none(), st.sampled_from(FIRST_HIGHS)))
    def test_vectorized_lane_matches_the_eager_recipe(self, case, sanitize,
                                                      lane_first):
        graph, seed, scripts = case
        net = CongestNetwork(graph, bandwidth=8)
        res = net.run(_VecScripted(lane_first, scripts),
                      max_rounds=_rounds(scripts), seed=seed, sanitize=sanitize)
        head = () if lane_first is None else (("first", lane_first),)
        want = _reference(seed, [(d, head + ops) for d, ops in scripts])
        for p, u in enumerate(sorted(res.contexts)):
            ctx = res.contexts[u]
            outs, state = want[p]
            assert ctx.state["out"] == outs, (p, scripts[p])
            if outs:
                assert ctx.rng.bit_generator.state == state, (p, scripts[p])
            else:
                assert ctx.rng is None

    def test_unseeded_runs_have_no_rng(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=8)
        res = net.run(_Scripted(((0, ()),) * 4), max_rounds=2, seed=None)
        assert all(ctx.rng is None for ctx in res.contexts.values())

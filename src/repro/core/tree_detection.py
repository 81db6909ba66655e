"""Constant-round tree detection (the [12] upper bound quoted in Section 1).

Even et al. give a deterministic O(1)-round CONGEST algorithm detecting any
fixed tree ``T``.  We implement the classic color-coding variant (which the
deterministic algorithm derandomizes): color every node iid with one of
``t = |V(T)|`` colors, then run bottom-up dynamic programming over a rooted
copy of ``T`` --

    node ``v`` can host subtree ``T_u`` using color set ``S`` iff
    ``c(v) ∈ S`` and the children ``u_1..u_d`` of ``u`` can be hosted at
    distinct neighbors using disjoint color sets partitioning ``S \\ {c(v)}``.

Because colors on a properly-colored copy are all distinct, color-disjoint
children guarantee vertex-disjoint embeddings -- that is the color-coding
trick making the DP sound for *subgraph* (injective) containment.

Messages carry DP tables of size at most ``t * 2^t`` bits -- a constant for
fixed ``T``, so the round complexity is ``depth(T) + 1 = O(1)`` and per-
round bandwidth is constant, as [12] promises.  A present copy is found
with probability ``>= t^{-t}`` per coloring; amplification is constant
repetitions for fixed ``T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import networkx as nx

from ..congest.algorithm import Algorithm, Decision, NodeContext, broadcast
from ..congest.message import Message
from ..graphs.properties import girth
from .color_coding import AmplifiedReport

__all__ = [
    "RootedTree",
    "TreeDetectionIteration",
    "detect_tree",
    "tree_success_probability",
]


@dataclass(frozen=True)
class RootedTree:
    """A fixed pattern tree, rooted and preprocessed for the DP.

    ``children[u]`` lists u's children; ``order`` is a post-order (children
    before parents); ``size[u]`` the subtree size.
    """

    root: int
    children: Tuple[Tuple[int, ...], ...]
    order: Tuple[int, ...]
    size: Tuple[int, ...]
    depth: int
    t: int  # |V(T)|

    @staticmethod
    def from_graph(tree: nx.Graph, root=None) -> "RootedTree":
        n = tree.number_of_nodes()
        if n < 1:
            raise ValueError("empty tree")
        if tree.number_of_edges() != n - 1 or (girth(tree) is not None):
            raise ValueError("pattern must be a tree")
        nodes = sorted(tree.nodes(), key=repr)
        index = {v: i for i, v in enumerate(nodes)}
        if root is None:
            root = nodes[0]
        r = index[root]
        children: List[List[int]] = [[] for _ in range(n)]
        parent = {r: None}
        stack = [r]
        order: List[int] = []
        depth_of = {r: 0}
        while stack:
            u = stack.pop()
            order.append(u)
            for wv in tree.neighbors(nodes[u]):
                w = index[wv]
                if w not in parent:
                    parent[w] = u
                    depth_of[w] = depth_of[u] + 1
                    children[u].append(w)
                    stack.append(w)
        if len(order) != n:
            raise ValueError("pattern tree must be connected")
        order.reverse()  # post-order: children first
        size = [1] * n
        for u in order:
            for c in children[u]:
                size[u] += size[c]
        return RootedTree(
            root=r,
            children=tuple(tuple(c) for c in children),
            order=tuple(order),
            size=tuple(size),
            depth=max(depth_of.values()),
            t=n,
        )


class TreeDetectionIteration(Algorithm):
    """One coloring iteration of color-coded tree detection."""

    name = "tree-detection"

    def __init__(self, pattern: RootedTree, color_map: Optional[Mapping[int, int]] = None):
        self.pattern = pattern
        self.color_map = dict(color_map) if color_map is not None else None

    def init(self, node: NodeContext) -> None:
        t = self.pattern.t
        st = node.state
        if self.color_map is not None:
            st["color"] = self.color_map.get(node.id, 0)
        else:
            if node.rng is None:
                raise ValueError("random coloring needs randomness")
            st["color"] = int(node.rng.integers(0, t))
        # feasible[u] = set of color sets S such that v can host subtree u
        # using exactly colors S (computed level by level).
        st["feasible"]: Dict[int, Set[FrozenSet[int]]] = {}
        # Tables received from each neighbor in the previous round.
        st["nbr_feasible"]: Dict[int, Dict[int, Set[FrozenSet[int]]]] = {}

    def is_quiescent(self, node: NodeContext) -> bool:
        return node._halted

    def _recompute(self, node: NodeContext) -> None:
        """DP update: with current neighbor tables, which subtrees fit here?"""
        st = node.state
        pat = self.pattern
        c = st["color"]
        for u in pat.order:  # children before parents
            kids = pat.children[u]
            feas: Set[FrozenSet[int]] = set()
            if not kids:
                feas.add(frozenset([c]))
            else:
                # For each child, collect the union of feasible sets over
                # *all* neighbors.  Disjointness of the color sets forces
                # the chosen neighbors (and whole embeddings) to be vertex-
                # disjoint, so reusing a neighbor for two children is
                # automatically excluded... except via the SAME color set;
                # distinct disjoint sets can still come from one neighbor,
                # but then the two embedded subtrees are vertex-disjoint
                # and rooted at the same vertex -- impossible since that
                # vertex would need two colors.  Hence soundness.
                child_families: List[Set[FrozenSet[int]]] = []
                for child in kids:
                    fam: Set[FrozenSet[int]] = set()
                    for tbl in st["nbr_feasible"].values():
                        fam |= tbl.get(child, set())
                    child_families.append(fam)
                if all(child_families):
                    # Enumerate achievable unions: all sets S with c in S,
                    # |S| = size[u], children partition S - {c}.
                    universe = set()
                    for fam in child_families:
                        for s in fam:
                            universe |= s
                    # Candidate unions: build recursively.
                    built: Set[FrozenSet[int]] = set()

                    def rec(i: int, acc: FrozenSet[int]) -> None:
                        if i == len(child_families):
                            built.add(acc)
                            return
                        for s in child_families[i]:
                            if not (s & acc):
                                rec(i + 1, acc | s)

                    rec(0, frozenset())
                    for union in built:
                        if c not in union:
                            feas.add(union | {c})
            st["feasible"][u] = feas

    def round(self, node: NodeContext, inbox: Mapping[int, Message]):
        st = node.state
        pat = self.pattern
        for sender, msg in inbox.items():
            st["nbr_feasible"][sender] = {
                u: set(map(frozenset, fam)) for u, fam in msg.payload
            }
        self._recompute(node)
        if st["feasible"].get(pat.root):
            node.reject()
        if node.round > pat.depth:
            if node.decision is Decision.UNDECIDED:
                node.accept()
            node.halt()
            return {}
        # Broadcast the DP table; size <= t * 2^t * t bits = O(1) for fixed T.
        payload = tuple(
            (u, tuple(map(tuple, fam))) for u, fam in st["feasible"].items() if fam
        )
        size = sum(
            (len(s) + 1) * max(1, math.ceil(math.log2(pat.t + 1)))
            for _, fam in payload
            for s in fam
        ) + pat.t
        return broadcast(node, Message.of_record(payload, size, kind="dp"))


def tree_success_probability(t: int) -> float:
    """Probability that one uniform ``t``-coloring makes a fixed copy of a
    ``t``-vertex tree colorful: at least ``t^{-t}``."""
    if t < 1:
        raise ValueError("a tree has >= 1 vertex")
    return float(t) ** -t


@dataclass(frozen=True)
class _TreeFactory:
    """Picklable per-iteration algorithm factory for amplification."""

    pattern: RootedTree
    color_map: Optional[Tuple[Tuple[int, int], ...]]

    def __call__(self, iteration: int) -> TreeDetectionIteration:
        cmap = dict(self.color_map) if self.color_map is not None else None
        return TreeDetectionIteration(self.pattern, color_map=cmap)


def detect_tree(
    graph: nx.Graph,
    pattern_tree: nx.Graph,
    iterations: int,
    seed: int = 0,
    bandwidth: Optional[int] = None,
    color_map: Optional[Mapping[int, int]] = None,
    stop_on_detect: bool = True,
    session: Optional["RunSession"] = None,
) -> AmplifiedReport:
    """Amplified tree detection; rounds per iteration = depth(T) + 2 = O(1).

    The seeds run through one ``session.amplify`` call, like the cycle
    detectors: ``jobs``, the adaptive ``amplify_*`` knobs, ``model``,
    ``sanitize`` and faults all apply, and the report is identical at
    any ``jobs``.  ``bandwidth`` falls back to the session policy's,
    then to unbounded: the DP tables are O(1) in n.
    """
    from ..runtime.session import use_session

    ses = use_session(session)
    pat = RootedTree.from_graph(pattern_tree)
    rounds_per = pat.depth + 2
    # A fixed color_map is deterministic, so one iteration suffices.
    amp = ses.amplify(
        graph,
        _TreeFactory(
            pat,
            tuple(sorted(color_map.items())) if color_map is not None else None,
        ),
        iterations,
        seed=seed,
        bandwidth=ses.resolve_bandwidth(bandwidth, None),
        max_rounds=rounds_per + 1,
        stop_on_detect=stop_on_detect,
        label="tree-dp",
        success_probability=(
            1.0 if color_map is not None else tree_success_probability(pat.t)
        ),
    )
    return AmplifiedReport.from_outcome(amp, rounds_per)

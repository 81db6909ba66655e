"""The serving wire protocol: requests, graph specs, and key anatomy.

One request is one JSON object on one line (JSONL over TCP); one
response is one or more JSON lines, each echoing the request ``id``.
See ``docs/serving.md`` for the full wire grammar.  This module is the
pure part of the protocol: parsing and canonicalization with no I/O, so
every rule about what makes two requests "the same" -- the heart of the
result cache and the batch coalescer -- is unit-testable without a
socket.

Key anatomy (what the serving layer keys on):

``construction_fingerprint(spec)``
    Content hash of the *graph*: for generated families, the canonical
    spec tuple; for uploaded edge lists, the sorted edge set.  Two
    uploads of the same edges in different order fingerprint identically.
``cache_key(req, policy_hash)``
    (fingerprint, pattern, policy hash, seed, iterations, bandwidth) --
    everything that determines the response bits.  Hits replay the
    recorded response verbatim.
``group_key(req, policy_hash)``
    The cache key minus ``iterations``: requests that differ only in
    their amplification budget are *coalescable* -- the stopping rule is
    a pure function of the ordered seed outcomes, so a shorter request's
    answer is derivable from a longer one's (see
    :mod:`repro.serve.coalesce`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import networkx as nx
import numpy as np

from ..graphs import generators
from ..runtime.policy import ExecutionPolicy, PolicyError

__all__ = [
    "DetectRequest",
    "ProtocolError",
    "build_graph",
    "cache_key",
    "construction_fingerprint",
    "group_key",
    "parse_pattern",
    "parse_request",
]

#: Default amplification budget when an amplified request omits
#: ``iterations`` (matches the CLI detectors' small-default idiom).
DEFAULT_ITERATIONS = 8

#: Graph spec kinds the server builds; ``edges`` is the upload path.
GRAPH_KINDS = ("gnp", "cycle", "path", "grid", "clique", "edges")


class ProtocolError(ValueError):
    """A malformed or unsupported request (answered with an error line)."""


@dataclass(frozen=True)
class DetectRequest:
    """One parsed, canonicalized detection request.

    ``graph_spec`` is a canonical nested tuple (hashable, deterministic)
    -- for uploads the edge list is sorted, so equal graphs produce equal
    specs regardless of upload order.  ``pattern_kind`` / ``pattern_arg``
    classify the target subgraph (``("even-cycle", 2)`` is C4);
    ``amplified`` says whether execution is a seed fan-out (coalescable)
    or a single deterministic run.
    """

    req_id: str
    graph_spec: Tuple[Any, ...]
    pattern: str
    pattern_kind: str
    pattern_arg: int
    amplified: bool
    seed: int
    iterations: int
    bandwidth: Optional[int]
    policy_spec: str
    #: Optional per-request deadline in milliseconds.  Deliberately NOT
    #: part of :func:`cache_key` / :func:`group_key`: the deadline bounds
    #: *waiting*, it never changes the answer bits, so requests differing
    #: only in patience still share cache entries and coalescing groups.
    deadline_ms: Optional[int] = None

    def policy(self, base: Optional[ExecutionPolicy] = None) -> ExecutionPolicy:
        """Resolve the request's policy over the server's base policy."""
        try:
            return ExecutionPolicy.from_spec(self.policy_spec, base=base)
        except PolicyError as exc:  # pragma: no cover - caught at parse
            raise ProtocolError(f"policy: {exc}") from None


def parse_pattern(raw: str) -> Tuple[str, str, int, bool]:
    """Classify a pattern string into (canonical, kind, arg, amplified).

    The one pattern grammar, shared by the server and ``repro detect``:
    ``triangle``; ``k<s>`` for cliques (s >= 3); ``c<2k>`` for even
    cycles (the Theorem 1.1 sublinear detector, arg ``k``);
    ``odd-c<len>`` for odd cycles (the linear color-BFS baseline);
    ``path<t>`` for the ``t``-vertex path (the color-coded tree DP, kind
    ``tree``).  Triangles and cliques run one deterministic engine
    round-trip; cycles and trees amplify over seeds.
    """
    raw = raw.strip().lower()
    if raw == "triangle":
        return "triangle", "triangle", 3, False
    for prefix, kind in (("odd-c", "odd-cycle"), ("path", "tree"),
                         ("k", "clique"), ("c", "even-cycle")):
        if raw.startswith(prefix):
            try:
                arg = int(raw[len(prefix):])
            except ValueError:
                raise ProtocolError(f"bad pattern {raw!r}") from None
            break
    else:
        raise ProtocolError(
            f"unknown pattern {raw!r}; expected triangle, k<s>, c<even>, "
            "odd-c<odd> or path<t>"
        )
    if kind == "odd-cycle" and (arg < 3 or arg % 2 == 0):
        raise ProtocolError(f"odd-c pattern needs an odd length >= 3, got {arg}")
    if kind == "tree" and arg < 1:
        raise ProtocolError(f"path pattern needs t >= 1 vertices, got {arg}")
    if kind == "clique":
        if arg < 3:
            raise ProtocolError(f"clique pattern needs s >= 3, got {arg}")
        return raw, kind, arg, False
    if kind == "even-cycle":
        if arg < 4 or arg % 2 != 0:
            raise ProtocolError(
                f"c pattern is the even-cycle detector (length >= 4, even); "
                f"got {arg}; use odd-c{arg} for odd cycles"
            )
        arg //= 2
    return raw, kind, arg, True


def _canonical_graph_spec(obj: Any) -> Tuple[Any, ...]:
    """Canonicalize a request's ``graph`` object into a spec tuple."""
    if not isinstance(obj, dict):
        raise ProtocolError("graph must be an object with a 'kind' field")
    kind = obj.get("kind")
    if kind not in GRAPH_KINDS:
        raise ProtocolError(
            f"graph kind must be one of {GRAPH_KINDS}, got {kind!r}"
        )
    if kind == "gnp":
        n, p, seed = obj.get("n"), obj.get("p"), obj.get("seed", 0)
        if not isinstance(n, int) or n < 1:
            raise ProtocolError(f"gnp needs an int n >= 1, got {n!r}")
        if not isinstance(p, (int, float)) or not 0.0 <= float(p) <= 1.0:
            raise ProtocolError(f"gnp needs p in [0, 1], got {p!r}")
        if not isinstance(seed, int):
            raise ProtocolError(f"gnp seed must be an int, got {seed!r}")
        return ("gnp", n, float(p), seed)
    if kind in ("cycle", "path", "clique"):
        k = obj.get("k" if kind != "clique" else "s")
        if not isinstance(k, int) or k < (3 if kind != "path" else 1):
            raise ProtocolError(f"{kind} needs a positive int size, got {k!r}")
        return (kind, k)
    if kind == "grid":
        rows, cols = obj.get("rows"), obj.get("cols")
        if not isinstance(rows, int) or not isinstance(cols, int) \
                or rows < 1 or cols < 1:
            raise ProtocolError(
                f"grid needs int rows/cols >= 1, got {rows!r} x {cols!r}"
            )
        return ("grid", rows, cols)
    # Uploaded edge list: canonicalize each edge (ordered endpoints) and
    # sort the whole set, so upload order never splits the cache.
    edges = obj.get("edges")
    if not isinstance(edges, list) or not edges:
        raise ProtocolError("edges upload needs a non-empty edge list")
    canon = []
    for e in edges:
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or not all(isinstance(v, int) for v in e)):
            raise ProtocolError(f"bad edge {e!r}; expected [u, v] ints")
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ProtocolError(f"self-loop edge {e!r} not allowed")
        canon.append((u, v) if u < v else (v, u))
    return ("edges", tuple(sorted(set(canon))))


def build_graph(spec: Tuple[Any, ...]) -> nx.Graph:
    """Materialize a canonical graph spec (deterministic per spec)."""
    kind = spec[0]
    if kind == "gnp":
        _, n, p, seed = spec
        return generators.erdos_renyi(n, p, rng=np.random.default_rng(seed))
    if kind == "cycle":
        return generators.cycle(spec[1])
    if kind == "path":
        return generators.path(spec[1])
    if kind == "clique":
        return generators.clique(spec[1])
    if kind == "grid":
        return generators.grid(spec[1], spec[2])
    if kind == "edges":
        g = nx.Graph()
        g.add_edges_from(spec[1])
        return g
    raise ProtocolError(f"unknown graph spec kind {kind!r}")


def construction_fingerprint(spec: Tuple[Any, ...]) -> str:
    """Stable 16-hex content hash of a canonical graph spec.

    Generated families hash their parameters (construction is
    deterministic per spec); uploads hash the sorted edge set.  This is
    the graph component of every cache and coalescing key.
    """
    blob = json.dumps(spec, sort_keys=True, default=list).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def cache_key(req: DetectRequest, policy_hash: str) -> Tuple[Any, ...]:
    """The result-cache key: everything that determines the answer bits."""
    return (
        construction_fingerprint(req.graph_spec),
        req.pattern,
        policy_hash,
        req.seed,
        req.iterations,
        req.bandwidth,
    )


def group_key(req: DetectRequest, policy_hash: str) -> Tuple[Any, ...]:
    """The coalescing-group key: the cache key minus ``iterations``.

    Amplified requests in one group run the same seeds in the same order
    (seed block ``seed + t``), so they can share one batch; the budget
    (``iterations``) only decides how far the shared prefix extends.
    """
    return (
        construction_fingerprint(req.graph_spec),
        req.pattern,
        policy_hash,
        req.seed,
        req.bandwidth,
    )


def parse_request(obj: Any) -> DetectRequest:
    """Validate one decoded request object into a :class:`DetectRequest`.

    Raises :class:`ProtocolError` with an operator-readable message on
    anything malformed; the server turns that into an error line rather
    than dropping the connection.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    req_id = obj.get("id")
    if req_id is None:
        raise ProtocolError("request needs an 'id' field")
    pattern_raw = obj.get("pattern")
    if not isinstance(pattern_raw, str):
        raise ProtocolError("request needs a string 'pattern' field")
    pattern, kind, arg, amplified = parse_pattern(pattern_raw)
    spec = _canonical_graph_spec(obj.get("graph"))
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise ProtocolError(f"seed must be an int, got {seed!r}")
    iterations = obj.get("iterations", DEFAULT_ITERATIONS if amplified else 1)
    if not isinstance(iterations, int) or iterations < 1:
        raise ProtocolError(f"iterations must be an int >= 1, got {iterations!r}")
    if not amplified:
        # Single-run patterns ignore amplification; canonicalize so the
        # cache never splits on a meaningless field.
        iterations = 1
    bandwidth = obj.get("bandwidth")
    if bandwidth is not None and (
        not isinstance(bandwidth, int) or bandwidth < 1
    ):
        raise ProtocolError(f"bandwidth must be an int >= 1, got {bandwidth!r}")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None and (
        not isinstance(deadline_ms, int) or deadline_ms < 1
    ):
        raise ProtocolError(
            f"deadline_ms must be an int >= 1, got {deadline_ms!r}"
        )
    policy_spec = obj.get("policy", "")
    if not isinstance(policy_spec, str):
        raise ProtocolError(f"policy must be a spec string, got {policy_spec!r}")
    try:
        ExecutionPolicy.from_spec(policy_spec)
    except PolicyError as exc:
        raise ProtocolError(f"policy: {exc}") from None
    return DetectRequest(
        req_id=str(req_id),
        graph_spec=spec,
        pattern=pattern,
        pattern_kind=kind,
        pattern_arg=arg,
        amplified=amplified,
        seed=seed,
        iterations=iterations,
        bandwidth=bandwidth,
        policy_spec=policy_spec,
        deadline_ms=deadline_ms,
    )

"""Per-run fixed costs that must not come back.

A served request builds its network from a fresh gnp graph with
canonical identifiers and runs it once or a few times, so set-up the
run never reads is pure waste:

* the relabelled ``CongestNetwork.graph`` copy -- every run reads the
  adjacency built straight from the input graph instead;
* one ``np.random.Generator`` per node -- the triangle and clique
  detectors never touch their nodes' randomness, and a colour-coding
  node's one draw comes from a lane-wide array.

Builds are counted with monkeypatched constructors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import CongestNetwork
from repro.congest.randomness import _first_draw_matches_numpy
from repro.core.clique_detection import detect_clique
from repro.core.triangle import detect_triangle_congest
from repro.runtime import ExecutionPolicy, RunSession
from repro.serve.executor import execute_request
from repro.serve.protocol import build_graph, parse_request


@pytest.fixture
def networks(monkeypatch):
    """Every ``CongestNetwork`` (subclasses included) built in the test."""
    built = []
    init = CongestNetwork.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CongestNetwork, "__init__", recording)
    return built


@pytest.fixture
def generators(monkeypatch):
    """The arguments of every ``np.random.default_rng`` call in the test."""
    _first_draw_matches_numpy()  # the once-per-process mirror check
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


PATTERNS = ["c4", "odd-c5", "triangle", "k4", "path3"]


@pytest.mark.parametrize("policy", ["", "lane=vectorized"],
                         ids=["object", "vectorized"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_a_served_run_never_builds_the_relabelled_graph(pattern, policy, networks):
    # A graph seed per case that no other test uses, so no network cached
    # by an earlier run stands in for the one this request builds.
    seed = 9100 + 2 * PATTERNS.index(pattern) + bool(policy)
    req = parse_request({
        "id": "r", "pattern": pattern, "seed": seed, "iterations": 3,
        "graph": {"kind": "gnp", "n": 30, "p": 0.2, "seed": seed},
        "policy": policy,
    })
    execute_request(req, req.policy(base=ExecutionPolicy()))
    assert networks
    assert all("graph" not in net.__dict__ for net in networks)


@pytest.mark.parametrize("policy", ["", "lane=vectorized"],
                         ids=["object", "vectorized"])
@pytest.mark.parametrize("detector", [
    lambda g, ses: detect_triangle_congest(g, seed=3, session=ses),
    lambda g, ses: detect_clique(g, 4, seed=3, session=ses),
], ids=["triangle", "k4"])
def test_triangle_and_clique_runs_build_no_generator(detector, policy, generators):
    g = build_graph(("gnp", 30, 0.3, 9174))
    made_by_graph = len(generators)
    spec = ExecutionPolicy.from_spec(policy) if policy else ExecutionPolicy()
    with RunSession(spec, owns_pools=False) as ses:
        res = detector(g, ses)
    assert res.rounds > 0
    assert generators[made_by_graph:] == []

"""A served record equals the standalone detector's record.

``repro.serve.executor`` keeps its own copies of each detector's
factory, round budget, bandwidth default and success probability.  The
other serve tests compare served answers with ``execute_request``
itself, so they cannot see those copies drift.  Here every pattern
class, under each lane and metrics mode, is served over a real socket
and compared with a recorded session that calls the detector directly
with the request's seed, iterations and bandwidth.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.congest.message import int_width
from repro.core import detect_cycle_linear, detect_even_cycle
from repro.core.clique_detection import detect_clique
from repro.core.triangle import detect_triangle_congest
from repro.runtime import ExecutionPolicy, RunSession, diff_records
from repro.serve.protocol import build_graph, parse_request
from tests.serve.test_server import GRAPH, Client, _with_server, record_from_rows


def _direct(req, graph, ses):
    """Call the standalone detector the request's pattern names."""
    n = graph.number_of_nodes()
    if req.pattern_kind == "even-cycle":
        detect_even_cycle(graph, req.pattern_arg, req.iterations, seed=req.seed,
                          bandwidth=req.bandwidth, session=ses)
    elif req.pattern_kind == "odd-cycle":
        detect_cycle_linear(graph, req.pattern_arg, req.iterations, seed=req.seed,
                            bandwidth=req.bandwidth, session=ses)
    elif req.pattern_kind == "triangle":
        detect_triangle_congest(graph, req.bandwidth or int_width(n),
                                seed=req.seed, session=ses)
    else:
        detect_clique(graph, req.pattern_arg, req.bandwidth or 8,
                      seed=req.seed, session=ses)


@pytest.mark.parametrize("policy", ["", "metrics=lite", "lane=vectorized"],
                         ids=["default", "lite", "vectorized"])
@pytest.mark.parametrize("pattern", ["c4", "c6", "odd-c5", "triangle", "k4"])
def test_served_record_equals_the_direct_detector_run(pattern, policy):
    # One request at the detector's own bandwidth default, one explicit.
    reqobjs = [
        {"id": f"{pattern}-{i}", "pattern": pattern, "graph": GRAPH,
         "seed": 3 + i, "iterations": 6, "policy": policy, **extra}
        for i, extra in enumerate([{}, {"bandwidth": 64}])
    ]

    async def scenario(srv):
        client = await Client.connect(srv.bound_port)
        got = {}
        for obj in reqobjs:
            await client.send(obj)
            got.update(await client.collect(1))
        await client.close()
        return got

    got = asyncio.run(_with_server(scenario))
    for obj in reqobjs:
        bucket = got[obj["id"]]
        assert bucket["terminal"]["type"] == "result", bucket["terminal"]
        served = record_from_rows(bucket["records"])
        req = parse_request(obj)
        with RunSession(req.policy(base=ExecutionPolicy()), record=True,
                        owns_pools=False) as ses:
            _direct(req, build_graph(req.graph_spec), ses)
        diff = diff_records(served, ses.record)
        assert diff["num_events"][0] == diff["num_events"][1] > 0, diff
        assert diff["first_divergence"] is None, diff

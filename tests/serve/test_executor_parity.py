"""A served record equals the standalone detector's and ``repro detect``'s.

``repro.serve.executor`` calls the detectors and keeps no copy of their
parameters: bandwidth defaults, round budgets, success probabilities and
labels live in the detectors alone, and ``repro detect`` calls the same
detectors.  Here every pattern class, under each lane and metrics mode,
is served over a real socket and compared with two other entry points:
a recorded session calling the detector directly with the request's
seed, iterations and bandwidth (and no defaults of its own), and
``repro detect --record`` on the same graph (graph seed = request seed).
A bandwidth too small for the pattern must fail the same way at all
three.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.congest import BandwidthExceeded
from repro.core import detect_cycle_linear, detect_even_cycle, detect_tree
from repro.core.clique_detection import detect_clique
from repro.core.triangle import detect_triangle_congest
from repro.graphs import generators
from repro.runtime import ExecutionPolicy, RunRecord, RunSession, diff_records
from repro.serve.protocol import build_graph, parse_request
from tests.serve.test_server import Client, _with_server, record_from_rows


def _direct(req, graph, ses):
    """Call the standalone detector the request's pattern names."""
    kind, arg = req.pattern_kind, req.pattern_arg
    kw = {"seed": req.seed, "bandwidth": req.bandwidth, "session": ses}
    if kind == "even-cycle":
        detect_even_cycle(graph, arg, req.iterations, **kw)
    elif kind == "odd-cycle":
        detect_cycle_linear(graph, arg, req.iterations, **kw)
    elif kind == "tree":
        detect_tree(graph, generators.path(arg), req.iterations, **kw)
    elif kind == "triangle":
        detect_triangle_congest(graph, **kw)
    else:
        detect_clique(graph, arg, **kw)


def _detect_argv(obj):
    """``repro detect`` arguments for the request ``obj``."""
    g = obj["graph"]
    assert g["seed"] == obj["seed"]  # --seed sets the graph's and the run's
    argv = ["detect", "--pattern", obj["pattern"], "--graph", "gnp",
            "--n", str(g["n"]), "--p", str(g["p"]), "--seed", str(obj["seed"]),
            "--iterations", str(obj["iterations"])]
    if obj["policy"]:
        argv += ["--policy", obj["policy"]]
    if "bandwidth" in obj:
        argv += ["--bandwidth", str(obj["bandwidth"])]
    return argv


def _cli(obj, path, capsys):
    """``repro detect --record`` for the request ``obj``."""
    assert main(_detect_argv(obj) + ["--record", str(path)]) == 0
    capsys.readouterr()
    return RunRecord.load(path)


def _cli_failure(obj, capsys):
    """``repro detect`` for a request its detector refuses: exit 2 with a
    one-line message, returned without its newline."""
    assert main(_detect_argv(obj)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err.rstrip("\n")


def _assert_same_events(a, b):
    diff = diff_records(a, b)
    assert diff["num_events"][0] == diff["num_events"][1] > 0, diff
    assert diff["first_divergence"] is None, diff


@pytest.mark.parametrize("policy", ["", "metrics=lite", "lane=vectorized"],
                         ids=["default", "lite", "vectorized"])
@pytest.mark.parametrize("pattern",
                         ["c4", "c6", "odd-c5", "triangle", "k4", "path3"])
def test_served_record_equals_the_direct_detector_run(pattern, policy, tmp_path,
                                                      capsys):
    # One request at the detector's own bandwidth default, two explicit:
    # 1 bit is too small for every pattern but k4.
    reqobjs = [
        {"id": f"{pattern}-{i}", "pattern": pattern,
         "graph": {"kind": "gnp", "n": 24, "p": 0.15, "seed": 3 + i},
         "seed": 3 + i, "iterations": 6, "policy": policy, **extra}
        for i, extra in enumerate([{}, {"bandwidth": 64}, {"bandwidth": 1}])
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
        terminal = bucket["terminal"]
        req = parse_request(obj)
        path = tmp_path / f"{obj['id']}.jsonl"
        try:
            with RunSession(req.policy(base=ExecutionPolicy()), record=True,
                            owns_pools=False) as ses:
                _direct(req, build_graph(req.graph_spec), ses)
        except (BandwidthExceeded, ValueError) as exc:
            assert terminal["type"] == "error", terminal
            assert terminal["message"].startswith(type(exc).__name__), terminal
            assert _cli_failure(obj, capsys) == f"repro: {type(exc).__name__}: {exc}"
            continue
        assert terminal["type"] == "result", terminal
        served = record_from_rows(bucket["records"])
        _assert_same_events(served, ses.record)
        _assert_same_events(served, _cli(obj, path, capsys))

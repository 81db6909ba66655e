"""One order of precedence for a detector's bandwidth ``B``.

Each detector resolves its own ``B``: the explicit argument (a served
request's ``bandwidth`` field, ``repro detect --bandwidth``) first, then
the session policy's ``bandwidth``, then the detector's documented
default.  A run under ``ExecutionPolicy(bandwidth=b)`` must therefore be
the run with an explicit ``bandwidth=b``: the same recorded events when
``b`` suffices, the same exception when it does not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import BandwidthExceeded
from repro.core import (
    detect_clique,
    detect_cycle_linear,
    detect_even_cycle,
    detect_triangle_congest,
)
from repro.graphs import generators as gen
from repro.runtime import ExecutionPolicy, RunSession, diff_records

GRAPH = gen.erdos_renyi(24, 0.2, np.random.default_rng(3))

DETECTORS = {
    "c4": lambda ses, **kw: detect_even_cycle(GRAPH, 2, 6, seed=3, session=ses, **kw),
    "odd-c5": lambda ses, **kw: detect_cycle_linear(
        GRAPH, 5, 6, seed=3, session=ses, **kw),
    "triangle": lambda ses, **kw: detect_triangle_congest(
        GRAPH, seed=3, session=ses, **kw),
    "k4": lambda ses, **kw: detect_clique(GRAPH, 4, seed=3, session=ses, **kw),
}

#: What an explicit ``bandwidth=b`` does: ``None`` runs, else it raises.
#: The smallest ids on n = 24 take 5 bits; a cycle token is an id plus
#: a 3-bit hop count.
RAISES = {
    ("c4", 1): BandwidthExceeded, ("c4", 7): BandwidthExceeded,
    ("odd-c5", 1): BandwidthExceeded, ("odd-c5", 7): BandwidthExceeded,
    ("triangle", 1): ValueError,
}


def _record(pattern, policy_b, explicit_b):
    with RunSession(ExecutionPolicy(bandwidth=policy_b), record=True,
                    owns_pools=False) as ses:
        DETECTORS[pattern](ses, bandwidth=explicit_b)
    return ses.record


@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("pattern", list(DETECTORS))
def test_policy_bandwidth_is_the_explicit_bandwidth(pattern, b):
    exc = RAISES.get((pattern, b))
    if exc is not None:
        for policy_b, explicit_b in ((None, b), (b, None)):
            with pytest.raises(exc):
                _record(pattern, policy_b, explicit_b)
        return
    diff = diff_records(_record(pattern, b, None), _record(pattern, None, b))
    assert diff["num_events"] == [1, 1], diff
    assert diff["first_divergence"] is None, diff


@pytest.mark.parametrize("pattern", list(DETECTORS))
def test_explicit_bandwidth_beats_the_policy(pattern):
    diff = diff_records(_record(pattern, 1, 64), _record(pattern, None, 64))
    assert diff["first_divergence"] is None, diff

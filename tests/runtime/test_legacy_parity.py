"""The ``detect`` dispatcher with an implicit vs an explicit session.

For a fixed seed, ``detect(..., session=None)`` and the same call under an
explicit default ``RunSession()`` choose the same algorithm and reach the
same decision in the same number of rounds; an explicit recording session
sees the run's events.
"""

from __future__ import annotations

import networkx as nx

from repro.core.detection import detect
from repro.runtime import RunSession


class TestDispatcherParity:
    def test_detect_routes_with_session(self):
        g = nx.complete_graph(5)
        pattern = nx.complete_graph(3)
        implicit = detect(g, pattern, seed=1)
        with RunSession() as ses:
            via_session = detect(g, pattern, seed=1, session=ses)
        assert implicit.detected == via_session.detected
        assert implicit.algorithm == via_session.algorithm
        assert implicit.rounds == via_session.rounds

    def test_detect_session_records_events(self):
        g = nx.complete_graph(5)
        with RunSession(record=True) as ses:
            detect(g, nx.complete_graph(3), seed=1, session=ses)
            assert len(ses.record.events) >= 1

"""One amplification path for every color-coding detector.

``detect_even_cycle``, ``detect_cycle_linear``, ``detect_tree`` and
``detect_even_cycle_deterministic`` run their seeds through one
``RunSession.amplify`` call.  So ``jobs`` and the adaptive ``amplify_*``
knobs change wall-clock only: the policy's model, its sanitizer and the
run record are the same on every path.  The tests below pin each of
those on its own; the property checks the whole report and record
across ``jobs`` and the seed cap.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.congest import (
    Algorithm,
    BroadcastViolation,
    Message,
    SanitizerViolation,
    shutdown_pools,
)
from repro.congest import parallel
from repro.core import detect_cycle_linear, detect_even_cycle, detect_tree
from repro.graphs import generators as gen
from repro.runtime import ExecutionPolicy, RunRecord, RunSession, diff_records

from tests.lint.fixtures import InstanceScribbleCheat


@pytest.fixture(scope="module", autouse=True)
def _pools():
    yield
    shutdown_pools()


def _scribble(iteration: int) -> Algorithm:
    """An unsound iteration: every node writes to the shared instance."""
    return InstanceScribbleCheat()


class _Unicast(Algorithm):
    """Sends a different payload to each neighbor: legal in CONGEST,
    illegal in broadcast CONGEST."""

    name = "unicast"

    def round(self, node, inbox):
        node.halt()
        return {v: Message.of_bits("1" * (1 + i)) for i, v in enumerate(node.neighbors)}

    def finish(self, node):
        node.accept()


def _unicast(iteration: int) -> Algorithm:
    return _Unicast()


class TestThePolicyHoldsOnEverySeed:
    def test_sanitizer_audits_every_seed_with_the_adaptive_knob(self):
        g = nx.cycle_graph(6)
        for extra in ({}, {"amplify_confidence": 0.5}):
            with RunSession(ExecutionPolicy(sanitize=True, **extra),
                            owns_pools=False) as ses:
                with pytest.raises(SanitizerViolation):
                    ses.amplify(g, _scribble, 4, bandwidth=64, max_rounds=10,
                                success_probability=0.5)

    @pytest.mark.parametrize("extra", [{}, {"jobs": 2}, {"amplify_max_seeds": 2}],
                             ids=["jobs1", "jobs2", "max-seeds"])
    def test_broadcast_model_holds_on_every_seed(self, extra):
        g = nx.cycle_graph(6)
        with RunSession(ExecutionPolicy(model="broadcast", **extra),
                        owns_pools=False) as ses:
            with pytest.raises(BroadcastViolation):
                ses.amplify(g, _unicast, 4, bandwidth=16, max_rounds=4)

    def test_detectors_run_unchanged_in_broadcast_congest(self):
        g = nx.cycle_graph(8)
        for jobs in (1, 2):
            with RunSession(ExecutionPolicy(model="broadcast", jobs=jobs),
                            owns_pools=False) as ses:
                assert detect_cycle_linear(g, 8, 3, session=ses).iterations_run == 3
                assert detect_even_cycle(g, 2, 2, session=ses).iterations_run == 2


def _worker_cached_tokens(_: int) -> list:
    return sorted(parallel._NET_CACHE)


class TestWorkersBuildTheirOwnNetworks:
    """A forked pool worker serves only networks it built or attached
    itself, so a worker-side build bug cannot hide behind the parent's
    cached copy."""

    def test_a_worker_forked_after_an_inline_run_builds_its_own(self):
        g = nx.cycle_graph(9)
        shutdown_pools()
        with RunSession(ExecutionPolicy(model="broadcast"), owns_pools=False) as ses:
            with pytest.raises(BroadcastViolation):
                ses.amplify(g, _unicast, 4, bandwidth=16, max_rounds=4)
        assert parallel._NET_CACHE, "the inline run caches its network"
        # The pool forks here, while the parent's LRU holds that network.
        worker = parallel._get_pool(2).submit(_worker_cached_tokens, 0)
        assert worker.result(timeout=60) == []
        # The workers build the broadcast network from the chunk spec.
        with RunSession(ExecutionPolicy(model="broadcast", jobs=2),
                        owns_pools=False) as ses:
            with pytest.raises(BroadcastViolation):
                ses.amplify(g, _unicast, 4, bandwidth=16, max_rounds=4)


class TestTreeDetectionHonorsThePolicy:
    # A perfect matching has no path on three vertices: every seed runs.
    MATCHING = nx.Graph([(2 * i, 2 * i + 1) for i in range(6)])

    def _report(self, **fields):
        with RunSession(ExecutionPolicy(**fields), owns_pools=False) as ses:
            rep = detect_tree(self.MATCHING, gen.path(3), 40, seed=1, session=ses)
        return (rep.detected, rep.iterations_run, rep.total_rounds, rep.total_bits,
                rep.total_messages, rep.stop_reason, rep.seeds_saved)

    def test_max_seeds_caps_and_jobs_do_not_matter(self):
        capped = self._report(amplify_max_seeds=3)
        assert capped[:2] == (False, 3) and capped[-2:] == ("exhausted", 37)
        assert self._report(amplify_max_seeds=3, jobs=2) == capped

    def test_confidence_stop(self):
        # t = 3: success t^-t = 1/27, so confidence 0.5 needs 19 seeds.
        rep = self._report(amplify_confidence=0.5)
        assert rep[1] == 19 and rep[-2] == "confidence"
        assert self._report(amplify_confidence=0.5, jobs=2) == rep


def test_detect_records_are_identical_at_jobs_1_and_2(tmp_path, capsys):
    for pattern in ("c4", "odd-c5", "path3"):
        records = []
        for jobs in ("1", "2"):
            path = tmp_path / f"{pattern}-{jobs}.jsonl"
            rc = main(["detect", "--pattern", pattern, "--graph", "gnp", "--n", "24",
                       "--p", "0.2", "--seed", "3", "--iterations", "6",
                       "--jobs", jobs, "--record", str(path)])
            assert rc == 0
            records.append(RunRecord.load(path))
        capsys.readouterr()
        diff = diff_records(*records)
        assert diff["num_events"] == [1, 1], (pattern, diff)
        assert diff["first_divergence"] is None, (pattern, diff)


# -- the property ------------------------------------------------------------

_DETECTORS = {
    "even-cycle": lambda g, it, seed, stop, ses: detect_even_cycle(
        g, 2, it, seed=seed, stop_on_detect=stop, session=ses),
    "linear-cycle": lambda g, it, seed, stop, ses: detect_cycle_linear(
        g, 5, it, seed=seed, stop_on_detect=stop, session=ses),
    "tree": lambda g, it, seed, stop, ses: detect_tree(
        g, gen.path(4), it, seed=seed, stop_on_detect=stop, session=ses),
}

_FIELDS = ("detected", "iterations_run", "total_rounds", "witnesses", "total_bits",
           "total_messages", "stop_reason", "seeds_saved")


def _run(detector, graph, iterations, seed, stop, **policy):
    with RunSession(ExecutionPolicy(**policy), record=True, owns_pools=False) as ses:
        rep = _DETECTORS[detector](graph, iterations, seed, stop, ses)
    events = [(e.kind, e.label, e.seed, e.decision, e.rounds, e.total_bits,
               e.total_messages, e.round_bits, e.extra) for e in ses.record.events]
    return tuple(getattr(rep, f, None) for f in _FIELDS), events


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    detector=st.sampled_from(sorted(_DETECTORS)),
    n=st.integers(6, 12),
    p=st.sampled_from([0.2, 0.35]),
    graph_seed=st.integers(0, 10**6),
    lane=st.sampled_from(["object", "vectorized"]),
    faults=st.sampled_from([None, "drop:0.2|crash:1@2"]),
    stop=st.booleans(),
    iterations=st.integers(1, 6),
    seed=st.integers(0, 1000),
    slack=st.integers(0, 3),
)
def test_report_and_record_do_not_depend_on_jobs_or_the_seed_cap(
    detector, n, p, graph_seed, lane, faults, stop, iterations, seed, slack
):
    g = nx.gnp_random_graph(n, p, seed=graph_seed)
    base = dict(lane=lane, faults=faults)
    report, events = _run(detector, g, iterations, seed, stop, **base)
    assert [e[0] for e in events] == ["amplified"]
    assert _run(detector, g, iterations, seed, stop, jobs=2, **base) == (report, events)
    capped = _run(detector, g, iterations, seed, stop,
                  amplify_max_seeds=iterations + slack, **base)
    assert capped == (report, events)

"""Fault-injection subsystem: plan grammar, schedule determinism, fault
semantics on the object engine, and the cross-lane differential suite.

The load-bearing contract is the last part: the *same* ``FaultPlan``
under the *same* master seed must produce bit-identical executions on the
object and vectorized lanes -- decisions, round counts, bit ledgers, and
run-record traces.  The differential tests sweep fault specs across three
workloads that exercise different engine surfaces (deterministic clique
exchange, amplified color-coded cycle search, the one-round protocol).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.congest import Algorithm, Message
from repro.congest.network import CongestNetwork
from repro.faults import FaultInjector, FaultPlan, FaultSpecError, zero_payload


# ----------------------------------------------------------------------
# plan grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            drop=0.25, corrupt=0.1, crash=((3, 2), (1, 0)), stall=(4, 1),
            throttle=16, seed=99,
        )
        assert FaultPlan.from_spec(plan.spec()) == plan

    def test_canonicalization_sorts_schedules(self):
        plan = FaultPlan.from_spec("crash:9@1+2@5|stall:7+3")
        assert plan.crash == ((2, 5), (9, 1))
        assert plan.stall == (3, 7)

    def test_null_plan_has_empty_spec(self):
        assert FaultPlan().is_null
        assert FaultPlan().spec() == ""
        assert FaultPlan.from_spec("") == FaultPlan()

    @pytest.mark.parametrize("spec", [
        "drop:1.5",                 # probability out of range
        "drop:0.1|drop:0.2",        # duplicate field
        "crash:3@1+3@2",            # node crashed twice
        "crash:3",                  # missing @round
        "jam:0.5",                  # unknown field
        "drop",                     # no value
        "throttle:x",               # non-int
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)

    def test_merged_overrides_one_field(self):
        base = FaultPlan(corrupt=0.2, seed=5)
        assert base.merged(drop=0.3) == FaultPlan(drop=0.3, corrupt=0.2, seed=5)


# ----------------------------------------------------------------------
# schedule determinism
# ----------------------------------------------------------------------
class TestInjectorSchedule:
    def test_decisions_are_pure(self):
        inj = FaultInjector(FaultPlan(drop=0.3, corrupt=0.2), master_seed=11)
        for r in range(4):
            for u, v in [(0, 1), (1, 0), (2, 5)]:
                assert inj.delivery(r, u, v, 8) == inj.delivery(r, u, v, 8)

    def test_python_and_numpy_schedules_agree(self):
        # The object lane decides per message (Python ints); the
        # vectorized lane decides per edge batch (uint64 arrays).  Both
        # must be the same SplitMix64 hash bit for bit.
        inj = FaultInjector(FaultPlan(drop=0.4, corrupt=0.3), master_seed=7)
        src = np.arange(40, dtype=np.int64) % 8
        dst = (np.arange(40, dtype=np.int64) * 3) % 8
        sizes = np.full(40, 16, dtype=np.int64)
        for r in range(3):
            keep, corrupt = inj.delivery_mask(r, src, dst, sizes)
            for i in range(len(src)):
                delivered, corrupted = inj.delivery(
                    r, int(src[i]), int(dst[i]), 16
                )
                assert delivered == bool(keep[i])
                if delivered:
                    assert corrupted == bool(corrupt[i])

    def test_schedule_depends_on_seed(self):
        plan = FaultPlan(drop=0.5)
        a = FaultInjector(plan, master_seed=1)
        b = FaultInjector(plan, master_seed=2)
        picks_a = [a.delivery(0, u, u + 1, 8)[0] for u in range(64)]
        picks_b = [b.delivery(0, u, u + 1, 8)[0] for u in range(64)]
        assert picks_a != picks_b

    def test_plan_seed_decouples_from_master_seed(self):
        plan = FaultPlan(drop=0.5, seed=42)
        a = FaultInjector(plan, master_seed=1)
        b = FaultInjector(plan, master_seed=2)
        assert [a.delivery(0, u, 0, 8) for u in range(64)] == \
               [b.delivery(0, u, 0, 8) for u in range(64)]

    def test_zero_payload_is_type_preserving(self):
        assert zero_payload(7) == 0
        assert zero_payload("101") == "\x00\x00\x00"
        assert zero_payload((1, "ab", [2.5])) == (0, "\x00\x00", [0.0])


# ----------------------------------------------------------------------
# fault semantics on the object engine
# ----------------------------------------------------------------------
class _IdExchange(Algorithm):
    """Two-round probe: everyone announces its id, then records its inbox."""

    name = "id-exchange"

    def __init__(self, size_bits: int = 8):
        self.size_bits = size_bits

    def init(self, node):
        node.state["got"] = {}

    def round(self, node, inbox):
        for sender, msg in inbox.items():
            node.state["got"][sender] = msg.payload
        if node.round >= 2:
            node.halt()
            return {}
        return {
            v: Message.of_record(node.id, self.size_bits, kind="id")
            for v in node.neighbors
        }

    def finish(self, node):
        node.accept()


def _exchange(faults, size_bits=8, seed=3):
    net = CongestNetwork(nx.cycle_graph(6), bandwidth=32)
    res = net.run(_IdExchange(size_bits), max_rounds=4, seed=seed, faults=faults)
    return res, {v: dict(res.contexts[v].state["got"]) for v in res.contexts}


class TestFaultSemantics:
    def test_reliable_network_hears_everyone(self):
        _, got = _exchange(None)
        assert all(set(g) == set(nx.cycle_graph(6)[v]) for v, g in got.items())

    def test_drop_one_bills_but_never_delivers(self):
        res, got = _exchange("drop:1.0|seed:1")
        assert all(g == {} for g in got.values())
        assert res.metrics.total_bits > 0  # send-side billing stands

    def test_crash_stop_silences_the_node(self):
        # Fault rounds are 0-indexed by send round: crashing node 0 at
        # round 0 means it never sends, so neighbors 1 and 5 hear only
        # their other neighbor.
        _, got = _exchange("crash:0@0")
        assert 0 not in got[1] and 0 not in got[5]
        assert 2 in got[1] and 4 in got[5]

    def test_stall_loses_whole_rounds(self):
        # The probe announces in send rounds 0 and 1; stalling one round
        # still delivers through the other, stalling both loses all.
        _, one = _exchange("stall:0")
        assert all(set(g) == set(nx.cycle_graph(6)[v]) for v, g in one.items())
        _, both = _exchange("stall:0+1")
        assert all(g == {} for g in both.values())

    def test_throttle_drops_oversized_frames_only(self):
        _, wide = _exchange("throttle:4", size_bits=8)
        assert all(g == {} for g in wide.values())
        _, narrow = _exchange("throttle:4", size_bits=4)
        assert all(len(g) == 2 for g in narrow.values())

    def test_corruption_zeroes_payloads_in_place(self):
        _, got = _exchange("corrupt:1.0|seed:1")
        for v, g in got.items():
            assert set(g) == set(nx.cycle_graph(6)[v])  # still delivered
            assert all(payload == 0 for payload in g.values())

    def test_faults_need_a_seed_only_when_probabilistic(self):
        from repro.congest.sanitizer import SanitizerViolation

        net = CongestNetwork(nx.cycle_graph(4), bandwidth=16)
        with pytest.raises(SanitizerViolation, match=r"\[L3\]"):
            net.run(_IdExchange(), max_rounds=4, seed=None, faults="drop:0.5")
        net.run(_IdExchange(), max_rounds=4, seed=None, faults="crash:0@1")


# ----------------------------------------------------------------------
# sanitizer composition
# ----------------------------------------------------------------------
class TestSanitizerComposition:
    """Armed sanitizer + fault injection must not false-positive.

    The sanitizer replays every run to hunt hidden nondeterminism (L3)
    and audits states for aliasing (L2).  Fault schedules are pure
    functions of (seed, round, edge), so the replay sees the same drops
    and corruptions and a clean algorithm stays clean.
    """

    @pytest.mark.parametrize("spec", [
        "drop:0.3", "corrupt:0.5", "crash:0@1|stall:1|throttle:6",
        "drop:0.2|corrupt:0.2|seed:13",
    ])
    def test_sanitized_faulty_run_raises_nothing(self, spec):
        res_plain, _ = _exchange(spec)
        net = CongestNetwork(nx.cycle_graph(6), bandwidth=32)
        res_sane = net.run(
            _IdExchange(), max_rounds=4, seed=3, sanitize=True, faults=spec
        )
        assert res_sane.rejected == res_plain.rejected
        assert res_sane.rounds == res_plain.rounds
        assert res_sane.metrics.total_bits == res_plain.metrics.total_bits

    def test_sanitized_faulty_run_both_lanes_via_session(self):
        from repro.core.clique_detection import detect_clique
        from repro.runtime import ExecutionPolicy, RunSession

        g = nx.erdos_renyi_graph(12, 0.5, seed=4)
        decisions = []
        for lane in ("object", "vectorized"):
            policy = ExecutionPolicy(
                lane=lane, sanitize=True, faults="drop:0.25|corrupt:0.25",
                seed=9,
            )
            with RunSession(policy, owns_pools=False) as ses:
                res = detect_clique(g, 4, bandwidth=8, session=ses)
                decisions.append((res.rejected, res.metrics.total_bits))
        assert decisions[0] == decisions[1]


# ----------------------------------------------------------------------
# cross-lane differential suite
# ----------------------------------------------------------------------
FAULT_SPECS = [
    None,
    "drop:0.3",
    "corrupt:0.4",
    "crash:0@1+3@2",
    "stall:0+2",
    "throttle:6",
    "drop:0.2|corrupt:0.2|crash:1@2|stall:3|seed:13",
]


def _policies(spec, seed=5):
    from repro.runtime import ExecutionPolicy

    return [
        ExecutionPolicy(lane=lane, faults=spec, seed=seed)
        for lane in ("object", "vectorized")
    ]


def _run_and_record(policy, workload):
    from repro.runtime import RunSession

    with RunSession(policy, record=True, owns_pools=False) as ses:
        outcome = workload(ses)
    return outcome, ses.record


@pytest.mark.parametrize("spec", FAULT_SPECS)
class TestLaneParityUnderFaults:
    def _assert_parity(self, workload, spec):
        from repro.runtime import diff_records

        (out_obj, rec_obj), (out_vec, rec_vec) = (
            _run_and_record(p, workload) for p in _policies(spec)
        )
        assert out_obj == out_vec
        # The policy snapshots differ (lane=object vs lane=vectorized);
        # parity is about the *traces*: same events, no divergence.
        diff = diff_records(rec_obj, rec_vec)
        assert diff["num_events"][0] == diff["num_events"][1], diff
        assert diff["first_divergence"] is None, diff

    def test_clique_detection(self, spec):
        from repro.core.clique_detection import detect_clique

        g = nx.erdos_renyi_graph(14, 0.45, seed=2)

        def workload(ses):
            res = detect_clique(g, 4, bandwidth=8, session=ses)
            return (res.rejected, res.rounds, res.metrics.total_bits,
                    res.metrics.total_messages)

        self._assert_parity(workload, spec)

    def test_amplified_cycle_detection(self, spec):
        from repro.core.cycle_detection_linear import detect_cycle_linear

        g = nx.cycle_graph(12)

        def workload(ses):
            rep = detect_cycle_linear(g, 4, iterations=8, session=ses)
            return (rep.detected, rep.iterations_run, rep.total_bits)

        self._assert_parity(workload, spec)

    def test_one_cycle_iteration_round_by_round(self, spec):
        # The amplified record keeps per-seed totals only; one iteration
        # through ses.run keeps the per-round bit trace under the plan.
        from repro.core.cycle_detection_linear import _LinearCycleFactory

        g = nx.cycle_graph(12)

        def workload(ses):
            algo = _LinearCycleFactory(4, None, lane=ses.policy.lane)(0)
            res = ses.run(ses.network(g, bandwidth=7), algo, max_rounds=18,
                          label="linear-cycle-C4")
            return (res.decision, res.rounds, res.metrics.total_bits,
                    res.metrics.total_messages)

        self._assert_parity(workload, spec)

    def test_one_round_protocol(self, spec):
        from repro.core.triangle import FullAnnouncementProtocol
        from repro.graphs.template_graph import sample_input
        from repro.lowerbounds.one_round_network import run_one_round_on_network

        sample = sample_input(5, np.random.default_rng(8), id_space=10**6)

        def workload(ses):
            out = run_one_round_on_network(
                FullAnnouncementProtocol(20), sample, session=ses
            )
            return (out.correct, out.rejected, out.bandwidth_used)

        self._assert_parity(workload, spec)

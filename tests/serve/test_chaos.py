"""The chaos harness: infra fault plans, recovery semantics, and the
kill -> restart -> replay matrix.

Layers of proof:

* **unit** -- the plan grammar and the SplitMix64 injector's
  replayability;
* **scenario** -- a live server under each fault class answers the
  deterministic terminal row the recovery table in ``docs/serving.md``
  promises (deadline-exceeded, shutdown), a SIGKILLed pool worker is
  absorbed by the amplification ladder with no leader resubmission,
  followers are promoted when leaders die, and dropped connections
  never wedge a coalescing group;
* **matrix** -- the acceptance gate: a chaos run's surviving responses
  are ``diff_records``-identical to a fault-free run, and a restarted
  server serves the journalled results as warm hits;
* **availability** -- a concurrent wave under each of five plans, then a
  repeat wave: what fraction is answered, which errors appear, and that
  no answered result is corrupted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro.congest.parallel import shutdown_pools
from repro.runtime import ExecutionEngine, ExecutionPolicy, diff_records
from repro.serve import InfraFaultInjector, InfraFaultPlan, InfraFaultSpecError
from repro.serve.chaos import chaos_execute
from tests.serve.test_server import (
    GRAPH,
    Client,
    _with_server,
    direct_record,
    record_from_rows,
)


class TestPlanGrammar:
    def test_spec_round_trips_canonically(self):
        spec = "conn-drop:0.25|req-stall:0.1|cache-torn|engine-slow:30|seed:7"
        plan = InfraFaultPlan.from_spec(spec)
        assert InfraFaultPlan.from_spec(plan.spec()) == plan
        assert plan.conn_drop == 0.25 and plan.req_stall == 0.1
        assert plan.cache_torn and plan.engine_slow_ms == 30
        assert plan.seed == 7

    def test_empty_spec_is_the_null_plan(self):
        plan = InfraFaultPlan.from_spec("")
        assert plan.is_null and not plan.probabilistic
        assert plan.spec() == ""

    @pytest.mark.parametrize("bad", [
        "conn-drop:1.5",          # probability out of range
        "conn-drop:maybe",        # not a number
        "cache-torn:1",           # flag takes no value
        "worker-kill:3",          # removed field: real kills only
        "worker-kill:0@2+1@2",    # removed field: real kills only
        "worker-kill:0@3",        # removed field: real kills only
        "engine-slow:-5",         # negative delay
        "frobnicate:1",           # unknown field
        "conn-drop:0.1|conn-drop:0.2",  # duplicate field
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(InfraFaultSpecError):
            InfraFaultPlan.from_spec(bad)


class TestInjectorReplayability:
    def test_same_seed_same_schedule(self):
        plan = InfraFaultPlan(conn_drop=0.4, req_stall=0.3, seed=11)
        a = InfraFaultInjector(plan)
        b = InfraFaultInjector(InfraFaultPlan.from_spec(plan.spec()))
        for seq in range(200):
            assert a.drop_connection(seq) == b.drop_connection(seq)
            assert a.stall_request(seq) == b.stall_request(seq)

    def test_streams_are_independent_and_seed_sensitive(self):
        base = InfraFaultInjector(InfraFaultPlan(
            conn_drop=0.5, req_stall=0.5, seed=1))
        other = InfraFaultInjector(InfraFaultPlan(
            conn_drop=0.5, req_stall=0.5, seed=2))
        drops = [base.drop_connection(s) for s in range(64)]
        stalls = [base.stall_request(s) for s in range(64)]
        assert drops != stalls  # distinct stream constants
        assert drops != [other.drop_connection(s) for s in range(64)]

    def test_extreme_probabilities_are_certainties(self):
        always = InfraFaultInjector(InfraFaultPlan(conn_drop=1.0, seed=3))
        never = InfraFaultInjector(InfraFaultPlan(conn_drop=0.0, seed=3))
        assert all(always.drop_connection(s) for s in range(32))
        assert not any(never.drop_connection(s) for s in range(32))


class TestChaosExecute:
    def test_transparent_without_faults(self):
        assert chaos_execute(0.0, lambda x: x + 1, 41) == 42


async def _drain_detached(srv, want_executed, tries=200):
    """Wait for detached background work to land before loop teardown."""
    for _ in range(tries):
        if srv.stats.executed + srv.stats.errors >= want_executed:
            return
        await asyncio.sleep(0.05)


class TestDeadlines:
    REQ = {"pattern": "c4", "graph": GRAPH, "seed": 51, "iterations": 6}

    def test_slow_engine_plus_deadline_answers_deterministically(self):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "d", "deadline_ms": 80, **self.REQ})
            got = await client.collect(1)
            # The detached work lands, fills the cache, and a patient
            # retry is served from it -- the deadline bounded the wait,
            # not the work.
            await _drain_detached(srv, 1)
            await client.send({"id": "retry", **self.REQ})
            got.update(await client.collect(1))
            await client.close()
            return got, srv.stats.detached

        got, detached = asyncio.run(_with_server(
            scenario, chaos="engine-slow:500|seed:1"))
        row = got["d"]["terminal"]
        assert row["code"] == "deadline-exceeded"
        assert row["deadline_ms"] == 80
        assert row["retry_after_hint"] > 0
        assert detached == 1
        assert got["retry"]["terminal"]["cache"] == "hit"
        served = record_from_rows(got["retry"]["records"])
        baseline = direct_record({"id": "b", **self.REQ})
        assert diff_records(baseline, served)["identical"]

    def test_default_deadline_applies_to_stalled_requests(self):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "s", **self.REQ})
            got = await client.collect(1)
            await client.close()
            return got, srv.stats.stalled

        got, stalled = asyncio.run(_with_server(
            scenario, chaos="req-stall:1.0|seed:2", default_deadline_ms=80))
        assert got["s"]["terminal"]["code"] == "deadline-exceeded"
        assert stalled == 1

    def test_deadline_rows_replay_bit_identically(self):
        # Two servers, same chaos schedule, same request sequence: the
        # terminal error rows must be byte-equal -- no clocks leak in.
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "d", "deadline_ms": 60, **self.REQ})
            got = await client.collect(1)
            await client.close()
            return got["d"]["terminal"]

        rows = [
            asyncio.run(_with_server(
                scenario, chaos="req-stall:1.0|seed:5"))
            for _ in range(2)
        ]
        assert rows[0] == rows[1]


class TestStallDraining:
    def test_shutdown_drains_stalled_requests_with_retry_hints(self):
        req = {"pattern": "c4", "graph": GRAPH, "seed": 52}

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "parked", **req})  # stalls, no deadline
            await asyncio.sleep(0.15)
            assert srv.stats.stalled == 1
            await srv.stop()
            got = await client.collect(1)
            await client.close()
            return got, srv.stats.drained

        got, drained = asyncio.run(_with_server(
            scenario, chaos="req-stall:1.0|seed:3"))
        row = got["parked"]["terminal"]
        assert row["code"] == "shutdown"
        assert row["retry_after_hint"] > 0
        assert drained == 1


def _is_degradation(row):
    return row.get("kind") == "note" and row.get("label") == "degradation"


def _stripped_record(rows):
    """The served record minus the pool ladder's ``degradation`` notes."""
    return record_from_rows([r for r in rows if not _is_degradation(r)])


async def _kill_pool_workers(times, stop):
    """SIGKILL ``times`` live pool workers until ``stop`` is set.

    Each kill targets a worker that was not alive at any earlier kill,
    so the second kill lands on a pool the ladder rebuilt, not on a
    sibling of the first victim.  Returns the killed pids.
    """
    seen, killed = set(), []
    while len(killed) < times and not stop.is_set():
        live = [p.pid for p in multiprocessing.active_children()]
        fresh = [pid for pid in live if pid not in seen]
        if fresh:
            seen.update(live)
            try:
                os.kill(fresh[0], signal.SIGKILL)
                killed.append(fresh[0])
            except ProcessLookupError:
                pass  # exited on its own (a discarded pool's sibling)
        await asyncio.sleep(0.005)
    return killed


class _CountingEngine(ExecutionEngine):
    """An engine that counts :meth:`submit` calls."""

    def __init__(self):
        super().__init__()
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)


class TestRealWorkerKill:
    """A SIGKILLed pool worker is absorbed by ``run_amplified``'s ladder.

    The server submits the leader once; the pool ladder rebuilds the
    pool (or falls back to serial) and the answer is the direct run's,
    plus the ladder's ``degradation`` notes ahead of the ``amplified``
    event.  A later cache hit replays the same rows.
    """

    REQ = {"pattern": "odd-c5", "graph": {"kind": "grid", "rows": 20,
                                          "cols": 20},
           "seed": 3, "iterations": 40, "policy": "jobs=2"}

    def test_killed_worker_costs_no_resubmission_and_no_bits(self):
        engine = _CountingEngine()

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            stop = asyncio.Event()
            killer = asyncio.ensure_future(_kill_pool_workers(1, stop))
            await client.send({"id": "k", **self.REQ})
            got = await client.collect(1)
            stop.set()
            killed = await killer
            submits = engine.submits
            await client.send({"id": "hit", **self.REQ})
            got.update(await client.collect(1))
            await client.close()
            return got, killed, submits

        # A fresh pool registry: every worker that appears is the one
        # this request's jobs=2 pool starts.
        shutdown_pools()
        try:
            got, killed, submits = asyncio.run(_with_server(
                scenario, engine=engine))
        finally:
            engine.shutdown()
        assert len(killed) == 1
        assert got["k"]["terminal"]["type"] == "result"
        assert submits == 1  # the leader was never resubmitted
        rows = got["k"]["records"]
        steps = [r["extra"]["step"] for r in rows if _is_degradation(r)]
        assert steps and set(steps) <= {"pool-rebuild", "serial-fallback"}
        kinds = [r.get("kind") for r in rows[1:-1]]
        assert kinds.index("amplified") > kinds.index("note")
        baseline = direct_record({"id": "b", **self.REQ})
        assert diff_records(baseline, _stripped_record(rows))["identical"]
        # The cache replays the degraded rows verbatim.
        assert got["hit"]["terminal"]["cache"] == "hit"
        assert got["hit"]["records"] == rows


class TestConnectionChaos:
    REQ = {"pattern": "c4", "graph": GRAPH, "seed": 56, "iterations": 6}

    @staticmethod
    def _seed_dropping_only_seq0():
        for s in range(500):
            inj = InfraFaultInjector(InfraFaultPlan(conn_drop=0.5, seed=s))
            if inj.drop_connection(0) and not inj.drop_connection(1):
                return s
        raise AssertionError("no such seed in range")

    def test_dropped_response_loses_the_connection_not_the_work(self):
        seed = self._seed_dropping_only_seq0()

        async def scenario(srv):
            a = await Client.connect(srv.bound_port)
            await a.send({"id": "victim", **self.REQ})
            eof = await a.reader.readline()
            await a.close()
            await _drain_detached(srv, 1)
            b = await Client.connect(srv.bound_port)
            await b.send({"id": "again", **self.REQ})
            got = await b.collect(1)
            await b.close()
            return eof, got, srv.stats.conn_dropped

        eof, got, dropped = asyncio.run(_with_server(
            scenario, chaos=f"conn-drop:0.5|seed:{seed}"))
        assert eof == b""  # the victim saw EOF mid-stream
        assert dropped == 1
        # The severed response's work still executed and was cached.
        assert got["again"]["terminal"]["cache"] == "hit"
        served = record_from_rows(got["again"]["records"])
        baseline = direct_record({"id": "b", **self.REQ})
        assert diff_records(baseline, served)["identical"]


class TestLeaderPromotion:
    SLOW = {"pattern": "c4", "graph": GRAPH, "seed": 57, "iterations": 6}
    SHARED = {"pattern": "c4", "graph": GRAPH, "seed": 58, "iterations": 6}

    def test_dropped_leader_connection_promotes_a_follower(self):
        async def scenario(srv):
            a = await Client.connect(srv.bound_port)
            b = await Client.connect(srv.bound_port)
            await a.send({"id": "slow", **self.SLOW})  # takes the one slot
            await asyncio.sleep(0.15)
            await a.send({"id": "lead", **self.SHARED})  # queued leader
            await asyncio.sleep(0.15)
            await b.send({"id": "follow", **self.SHARED})  # follower
            await asyncio.sleep(0.15)
            await a.close()  # leader's client vanishes mid-wait
            got = await b.collect(1)
            await b.close()
            await _drain_detached(srv, 2)
            return got, srv.stats.promotions

        got, promotions = asyncio.run(_with_server(
            scenario, max_inflight=1, max_queue=8,
            chaos="engine-slow:500|seed:1"))
        assert promotions >= 1
        assert got["follow"]["terminal"]["type"] == "result"
        served = record_from_rows(got["follow"]["records"])
        baseline = direct_record({"id": "b", **self.SHARED})
        assert diff_records(baseline, served)["identical"]

    def test_dropped_follower_does_not_wedge_the_group(self):
        async def scenario(srv):
            a = await Client.connect(srv.bound_port)
            b = await Client.connect(srv.bound_port)
            await a.send({"id": "lead", **self.SHARED})
            await asyncio.sleep(0.15)
            await b.send({"id": "follow", **self.SHARED})
            await asyncio.sleep(0.15)
            await b.close()  # follower gone before the leader resolves
            got = await a.collect(1)
            await a.close()
            return got, srv.coalescer.snapshot()

        got, snap = asyncio.run(_with_server(
            scenario, chaos="engine-slow:400|seed:1"))
        assert got["lead"]["terminal"]["type"] == "result"
        assert snap["followers_left"] == 1
        assert snap["pending"] == 0


class TestKillRestartReplayMatrix:
    """The acceptance gate: chaos, restart, replay, bit-identity."""

    REQS = [
        {"id": "m0", "pattern": "c4", "graph": GRAPH, "seed": 60,
         "iterations": 6},
        {"id": "m1", "pattern": "odd-c5", "graph": GRAPH, "seed": 61,
         "iterations": 6},
        {"id": "m2", "pattern": "triangle",
         "graph": {"kind": "clique", "s": 4}},
        {"id": "m3", "pattern": "c4", "graph": GRAPH, "seed": 62,
         "iterations": 4},
        {"id": "m4", "pattern": "k4", "graph": {"kind": "clique", "s": 5}},
    ]

    async def _drive(self, srv, extra=None):
        """Send the matrix sequentially (deterministic submission order);
        ``extra`` maps a request id to fields merged into its body."""
        client = await Client.connect(srv.bound_port)
        got = {}
        for obj in self.REQS:
            await client.send({**obj, **(extra or {}).get(obj["id"], {})})
            got.update(await client.collect(1))
        await client.close()
        return got

    def test_matrix(self, tmp_path):
        journal = tmp_path / "cache.jsonl"
        baselines = {
            obj["id"]: direct_record(obj) for obj in self.REQS
        }

        # -- phase 1: chaos run.  Seed 7 stalls request 1 (m1) alone;
        # its deadline ends the stall before anything executes or fills
        # the cache.  The journal's first append (m0's fill) is torn.
        async def chaos_run(srv):
            return await self._drive(srv, {"m1": {"deadline_ms": 100}})

        got1 = asyncio.run(_with_server(
            chaos_run, cache_journal=journal,
            chaos="req-stall:0.2|cache-torn|seed:7"))
        completed1 = {
            rid for rid, b in got1.items()
            if b["terminal"]["type"] == "result"
        }
        assert completed1 == {"m0", "m2", "m3", "m4"}
        assert got1["m1"]["terminal"]["code"] == "deadline-exceeded"
        # Every completed chaos response is bit-identical to fault-free.
        for rid in completed1:
            served = record_from_rows(got1[rid]["records"])
            assert diff_records(baselines[rid], served)["identical"], rid

        # -- phase 2: restart against the same journal, no chaos.
        async def replay(srv):
            got = await self._drive(srv)
            return got, srv.cache.restored, srv.cache.stats()

        got2, restored, cstats = asyncio.run(_with_server(
            replay, cache_journal=journal))
        # m0's fill was torn, m1 never completed: both re-execute.  The
        # other three restore journal-warm.
        assert restored == 3
        sources = {rid: got2[rid]["terminal"].get("cache")
                   for rid in got2}
        assert sources["m2"] == "hit"
        assert sources["m3"] == "hit"
        assert sources["m4"] == "hit"
        assert sources["m0"] == "miss"
        assert sources["m1"] == "miss"
        # Replay answers everything, and every response -- warm or
        # re-executed -- diffs clean against the fault-free baseline.
        for obj in self.REQS:
            rid = obj["id"]
            assert got2[rid]["terminal"]["type"] == "result", rid
            served = record_from_rows(got2[rid]["records"])
            assert diff_records(baselines[rid], served)["identical"], rid

        # -- phase 3: one more restart proves the journal now carries
        # everything (phase 2 journalled the re-executions).
        got3, restored3, _ = asyncio.run(_with_server(
            replay, cache_journal=journal))
        assert restored3 == 5
        assert all(
            got3[o["id"]]["terminal"]["cache"] == "hit" for o in self.REQS
        )


async def _issue(port, obj, sem):
    """One request on its own connection: its terminal row (``None`` if
    chaos severed the connection first) and its record rows."""
    async with sem:
        client = await Client.connect(port)
        await client.send(obj)
        rows, terminal = [], None
        while line := await client.reader.readline():
            row = json.loads(line)
            if row["type"] != "record":
                terminal = row
                break
            rows.append(row["row"])
        await client.close()
        return terminal, rows


async def _settle(srv):
    """Wait until detached work has landed: no group is pending and no
    admission slot is held, so every finished execution is cached."""
    while (srv.coalescer.snapshot()["pending"]
           or srv.admission.snapshot()["running"]):
        await asyncio.sleep(0.02)


class TestAvailabilityMatrix:
    """A fault wave and a repeat wave of the same bodies under each plan.

    Chaos may cost availability and latency, never bit-identity, and no
    request may end in an unclassified ``execution`` error.  Bit-identity
    is judged with the pool ladder's ``degradation`` notes stripped.
    """

    PROFILES = [
        {"pattern": pattern, "graph": graph, "seed": seed, "iterations": 6}
        for seed, (pattern, graph) in zip(range(10), itertools.cycle([
            ("c4", GRAPH),
            ("odd-c5", {"kind": "gnp", "n": 28, "p": 0.12, "seed": 2}),
            ("triangle", {"kind": "cycle", "k": 12}),
            ("k4", {"kind": "clique", "s": 5}),
        ]))
    ]
    WAVE = 20
    PLANS = {
        "baseline": ("", {}),
        "conn_drop": ("conn-drop:0.15|seed:7", {}),
        # No chaos spec: the fault is real.  See ``KILLS``.
        "worker_kill": ("", {}),
        # Every leader holds a slot, so every profile's work starts,
        # detaches at its deadline and lands before the repeat wave.
        "slow_deadline": ("engine-slow:150|seed:7",
                          {"default_deadline_ms": 75, "max_inflight": 10}),
        "composite": (
            "conn-drop:0.1|req-stall:0.05|engine-slow:20|seed:7",
            {"default_deadline_ms": 500},
        ),
    }

    #: Plans whose profiles run at jobs=2 while a test-side coroutine
    #: SIGKILLs this many live pool workers during the fault wave.
    KILLS = {"worker_kill": 2}

    def _summary(self, outcomes):
        answered = [t for t, _ in outcomes if t is not None]
        return {
            "availability": sum(t["type"] == "result" for t in answered)
            / len(outcomes),
            "dropped": len(outcomes) - len(answered),
            "errors": Counter(
                t["code"] for t in answered if t["type"] == "error"
            ),
        }

    def _run(self, plan):
        spec, kwargs = self.PLANS[plan]
        kills = self.KILLS.get(plan, 0)
        profiles = [
            dict(p, policy="jobs=2") if kills else p for p in self.PROFILES
        ]

        def wave(prefix):
            return [
                {"id": f"{prefix}-{i}", **profiles[i % len(profiles)]}
                for i in range(self.WAVE)
            ]

        async def scenario(srv):
            sem = asyncio.Semaphore(8)
            stop = asyncio.Event()
            killer = asyncio.ensure_future(_kill_pool_workers(kills, stop))
            fault = await asyncio.gather(*(
                _issue(srv.bound_port, obj, sem) for obj in wave("f")
            ))
            stop.set()
            killed = await killer
            await _settle(srv)
            repeat = await asyncio.gather(*(
                _issue(srv.bound_port, obj, sem) for obj in wave("r")
            ))
            return fault, repeat, killed

        # A fresh pool registry: every worker that appears belongs to
        # this wave's jobs=2 pool.
        shutdown_pools()
        server_kwargs = {"max_inflight": 4, "max_queue": self.WAVE, **kwargs}
        fault, repeat, killed = asyncio.run(_with_server(
            scenario, chaos=spec or None, **server_kwargs))
        assert len(killed) == kills, plan

        # Bit-identity on the first three answered results.
        samples = [
            (terminal, rows) for terminal, rows in fault + repeat
            if terminal is not None and terminal["type"] == "result"
        ][:3]
        assert len(samples) == 3, plan
        for terminal, rows in samples:
            idx = int(terminal["id"].split("-")[1]) % len(profiles)
            baseline = direct_record({"id": "b", **profiles[idx]})
            diff = diff_records(baseline, _stripped_record(rows))
            assert diff["identical"], (plan, terminal["id"], diff)

        summaries = self._summary(fault), self._summary(repeat)
        for summary in summaries:
            assert "execution" not in summary["errors"], (plan, summary)
        degraded = sum(
            any(_is_degradation(r) for r in rows)
            for terminal, rows in fault
            if terminal is not None and terminal.get("cache") == "miss"
        )
        return summaries + (degraded,)

    def test_baseline_answers_everything(self):
        fault, repeat, _ = self._run("baseline")
        assert fault["availability"] == 1.0
        assert repeat["availability"] == 1.0

    def test_worker_kills_are_absorbed_by_retries(self):
        # The retries are the pool ladder's rebuilds, below the server.
        fault, _, degraded = self._run("worker_kill")
        assert fault["availability"] == 1.0
        assert degraded >= 2

    def test_deadlines_fire_then_repeats_hit_the_filled_cache(self):
        fault, repeat, _ = self._run("slow_deadline")
        assert fault["errors"]["deadline-exceeded"] >= 1
        assert repeat["availability"] == 1.0

    def test_conn_drop_severs_some_and_answers_the_rest(self):
        fault, _, _ = self._run("conn_drop")
        assert fault["dropped"] >= 1
        assert fault["availability"] > 0.5

    def test_composite_plan_never_corrupts_or_misclassifies(self):
        self._run("composite")


class TestGovernorStatePersistence:
    def test_peak_estimate_survives_a_restart(self, tmp_path):
        state = tmp_path / "governor.json"
        req = {"pattern": "c4", "graph": GRAPH, "seed": 63, "iterations": 4}

        async def phase1(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "warm", **req})
            await client.collect(1)
            await client.close()
            return srv.governor.snapshot()

        policy = ExecutionPolicy(governor_budget=10_000_000)
        snap1 = asyncio.run(_with_server(
            phase1, base_policy=policy, governor_state=state))
        assert snap1["observed"] >= 1

        async def phase2(srv):
            return srv.governor.snapshot()

        snap2 = asyncio.run(_with_server(
            phase2, base_policy=policy, governor_state=state))
        # The restarted server starts throttled at the carried peak.
        assert snap2["peak"] == snap1["peak"]
        assert snap2["observed"] == snap1["observed"]


class TestOverloadContext:
    def test_reject_row_carries_queue_depth_and_hint(self):
        def reqs(n):
            return [{"id": f"r{i}", "pattern": "c4", "graph": GRAPH,
                     "seed": 70 + i} for i in range(n)]

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            for obj in reqs(5):
                await client.send(obj)
            got = await client.collect(5)
            await client.close()
            return got

        got = asyncio.run(_with_server(
            scenario, max_inflight=1, max_queue=1))
        overloads = [b["terminal"] for b in got.values()
                     if b["terminal"].get("code") == "overload"]
        assert overloads
        for row in overloads:
            assert row["queue_depth"] >= 0
            assert row["running"] >= 1
            assert row["limit"] == 1
            assert row["retry_after_hint"] > 0
            assert "governor_peak" in row

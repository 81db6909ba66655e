"""Serving faults from real events: recovery semantics and the
kill -> restart -> replay matrix.

Every fault here is one the server meets in production, produced the
way production produces it -- nothing inside the server is told to
fail:

* a **slow engine** -- :class:`~tests.serve.test_server.SlowEngine`,
  injected through ``DetectionServer(engine=...)`` -- holds executions
  open, so deadlines fire (deterministic ``deadline-exceeded`` rows),
  queued requests wait behind a busy slot and a shutdown drains them;
* a **client that closes its socket** mid-request: its work detaches,
  lands and fills the cache, a dead leader's follower is promoted, and
  a dead follower never wedges its group;
* a **SIGKILLed pool worker** is absorbed by the amplification ladder
  with no leader resubmission;
* a **torn journal** -- the file cut inside its last line, which is what
  a ``SIGKILL`` during an append leaves -- restores its clean prefix.

The matrix is the acceptance gate: every surviving response is
``diff_records``-identical to a fault-free run, and a restarted server
serves the journalled results as warm hits.  The availability matrix
runs a concurrent wave under each of five fault mixes, then a repeat
wave: what fraction is answered, which errors appear, and that no
answered result is corrupted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import signal
from collections import Counter

from repro.congest.parallel import shutdown_pools
from repro.runtime import ExecutionEngine, ExecutionPolicy, diff_records
from tests.serve.test_server import (
    GRAPH,
    Client,
    _with_server,
    direct_record,
    record_from_rows,
    run_slow,
)


async def _drain_detached(srv, want_executed, tries=200):
    """Wait for detached background work to land before loop teardown."""
    for _ in range(tries):
        if srv.stats.executed + srv.stats.errors >= want_executed:
            return
        await asyncio.sleep(0.05)


async def _until(predicate, tries=200):
    """Poll the server's own state until ``predicate()`` holds."""
    for _ in range(tries):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("server never reached the awaited state")


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

        got, detached = run_slow(scenario, 0.5)
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
        # The request carries no deadline of its own; the server's
        # default bounds its stall on the slow engine.
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "s", **self.REQ})
            got = await client.collect(1)
            await client.close()
            await _drain_detached(srv, 1)
            return got, srv.stats.deadline_exceeded, srv.stats.detached

        got, exceeded, detached = run_slow(
            scenario, 0.5, default_deadline_ms=80)
        row = got["s"]["terminal"]
        assert row["code"] == "deadline-exceeded"
        assert row["deadline_ms"] == 80
        assert exceeded == 1 and detached == 1

    def test_deadline_rows_replay_bit_identically(self):
        # Two servers, same slow engine, same request sequence: the
        # terminal error rows must be byte-equal -- no clocks leak in.
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "d", "deadline_ms": 60, **self.REQ})
            got = await client.collect(1)
            await client.close()
            await _drain_detached(srv, 1)
            return got["d"]["terminal"]

        rows = [run_slow(scenario, 0.4) for _ in range(2)]
        assert rows[0]["code"] == "deadline-exceeded"
        assert rows[0] == rows[1]


class TestStallDraining:
    def test_shutdown_drains_stalled_requests_with_retry_hints(self):
        # One slot: "parked" queues behind "busy", whose execution the
        # slow engine holds open, and is still waiting at shutdown.
        busy = {"pattern": "c4", "graph": GRAPH, "seed": 52, "iterations": 6}
        parked = dict(busy, seed=53)

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "busy", **busy})
            await client.send({"id": "parked", **parked})
            await _until(lambda: srv.admission.snapshot()["queued"] == 1)
            await srv.stop()
            got = await client.collect(2)
            await client.close()
            return got, srv.stats.drained

        got, drained = run_slow(scenario, 0.5, max_inflight=1, max_queue=4)
        row = got["parked"]["terminal"]
        assert row["code"] == "shutdown"
        assert row["retry_after_hint"] > 0
        assert drained == 1
        # The running request is not drained: it finishes and answers.
        assert got["busy"]["terminal"]["type"] == "result"


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

    def test_dropped_response_loses_the_connection_not_the_work(self):
        async def scenario(srv):
            a = await Client.connect(srv.bound_port)
            await a.send({"id": "victim", **self.REQ})
            # The client vanishes while its request executes.
            await _until(lambda: srv.admission.snapshot()["running"] == 1)
            await a.close()
            await _drain_detached(srv, 1)
            b = await Client.connect(srv.bound_port)
            await b.send({"id": "again", **self.REQ})
            got = await b.collect(1)
            await b.close()
            return got, srv.stats.detached

        got, detached = run_slow(scenario, 0.3)
        # The dropped client's work detached, landed and was cached.
        assert detached == 1
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

        got, promotions = run_slow(scenario, 0.5, max_inflight=1, max_queue=8)
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

        got, snap = run_slow(scenario, 0.4)
        assert got["lead"]["terminal"]["type"] == "result"
        assert snap["followers_left"] == 1
        assert snap["pending"] == 0


def _tear_last_line(path):
    """Cut ``path`` inside its last line: the file a ``SIGKILL`` during
    an append leaves behind (a prefix of the line, no newline)."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


class TestKillRestartReplayMatrix:
    """The acceptance gate: torn journal, restart, replay, bit-identity."""

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

    async def _drive(self, srv):
        """Send the matrix sequentially (deterministic journal order)."""
        client = await Client.connect(srv.bound_port)
        got = {}
        for obj in self.REQS:
            await client.send(obj)
            got.update(await client.collect(1))
        await client.close()
        return got

    def test_matrix(self, tmp_path):
        journal = tmp_path / "cache.jsonl"
        baselines = {
            obj["id"]: direct_record(obj) for obj in self.REQS
        }

        async def replay(srv):
            got = await self._drive(srv)
            return got, srv.cache.restored, srv.cache.stats()

        # -- phase 1: a cold run journals every fill, in request order.
        got1, restored1, _ = asyncio.run(_with_server(
            replay, cache_journal=journal))
        assert restored1 == 0
        assert {got1[o["id"]]["terminal"]["cache"] for o in self.REQS} \
            == {"miss"}
        assert len(journal.read_text().splitlines()) == 5

        # -- the kill: m4's append was cut mid-line.
        _tear_last_line(journal)

        # -- phase 2: restart against the torn journal.
        got2, restored, cstats = asyncio.run(_with_server(
            replay, cache_journal=journal))
        # The clean prefix restores journal-warm; only the torn fill
        # re-executes.
        assert restored == 4
        assert cstats["journal"]["dropped_tail"] == 1
        sources = {rid: got2[rid]["terminal"].get("cache")
                   for rid in got2}
        assert sources == {"m0": "hit", "m1": "hit", "m2": "hit",
                           "m3": "hit", "m4": "miss"}
        # Replay answers everything, and every response -- warm or
        # re-executed -- diffs clean against the fault-free baseline.
        for got in (got1, got2):
            for obj in self.REQS:
                rid = obj["id"]
                assert got[rid]["terminal"]["type"] == "result", rid
                served = record_from_rows(got[rid]["records"])
                assert diff_records(baselines[rid], served)["identical"], rid

        # -- phase 3: one more restart proves the journal now carries
        # everything (phase 2 journalled the re-execution).
        got3, restored3, _ = asyncio.run(_with_server(
            replay, cache_journal=journal))
        assert restored3 == 5
        assert all(
            got3[o["id"]]["terminal"]["cache"] == "hit" for o in self.REQS
        )


class TestJournalRestart:
    """A restart leaves a journal that already holds exactly the live
    entries alone, so the load's own torn-tail repair is what keeps a
    later fill readable."""

    REQS = [
        {"id": f"j{i}", "pattern": "triangle",
         "graph": {"kind": "clique", "s": s}}
        for i, s in enumerate((3, 4, 5))
    ]

    @staticmethod
    def _phase(journal, reqs):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            got = {}
            for obj in reqs:
                await client.send(obj)
                got.update(await client.collect(1))
            await client.close()
            sources = {rid: got[rid]["terminal"]["cache"] for rid in got}
            return srv.cache.restored, srv.cache.stats()["journal"], sources

        return asyncio.run(_with_server(scenario, cache_journal=journal))

    def test_fill_after_a_torn_restart_survives_the_next_restart(self, tmp_path):
        journal = tmp_path / "cache.jsonl"
        j0, j1, j2 = self.REQS
        restored, jstats, _ = self._phase(journal, [j0, j1])
        assert (restored, jstats["compactions"]) == (0, 0)
        _tear_last_line(journal)

        # Restart on the torn file: j0 restores, j1 refills, j2 is new.
        restored, jstats, sources = self._phase(journal, [j1, j2])
        assert restored == 1
        assert jstats["dropped_tail"] == 1
        assert jstats["compactions"] == 0
        assert sources == {"j1": "miss", "j2": "miss"}

        # A clean restart: both phase-2 fills survive, nothing is rewritten.
        restored, jstats, sources = self._phase(journal, self.REQS)
        assert restored == 3
        assert (jstats["dropped_tail"], jstats["compactions"]) == (0, 0)
        assert set(sources.values()) == {"hit"}


async def _issue(port, obj, sem, drop=False):
    """One request on its own connection: its terminal row and its
    record rows.  With ``drop`` the client closes its socket right
    after sending and the terminal row is ``None``."""
    async with sem:
        client = await Client.connect(port)
        await client.send(obj)
        rows, terminal = [], None
        while not drop and (line := await client.reader.readline()):
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

    Faults may cost availability and latency, never bit-identity, and no
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
    #: Every ``DROP_EVERY``-th fault-wave client closes its socket right
    #: after sending (plans with ``drop``).
    DROP_EVERY = 7
    #: plan -> (clients drop?, engine delay in seconds, server kwargs).
    PLANS = {
        "baseline": (False, 0.0, {}),
        "conn_drop": (True, 0.0, {}),
        # The fault is a real SIGKILL.  See ``KILLS``.
        "worker_kill": (False, 0.0, {}),
        # Every leader holds a slot, so every profile's work starts,
        # detaches at its deadline and lands before the repeat wave.
        "slow_deadline": (False, 0.15,
                          {"default_deadline_ms": 75, "max_inflight": 10}),
        "composite": (True, 0.02, {"default_deadline_ms": 500}),
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
        drop, delay_s, kwargs = self.PLANS[plan]
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
                _issue(srv.bound_port, obj, sem,
                       drop=drop and i % self.DROP_EVERY == 0)
                for i, obj in enumerate(wave("f"))
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
        if delay_s:
            fault, repeat, killed = run_slow(scenario, delay_s, **server_kwargs)
        else:
            fault, repeat, killed = asyncio.run(_with_server(
                scenario, **server_kwargs))
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
        fault, repeat, _ = self._run("conn_drop")
        # Clients 0, 7 and 14 vanished; everyone else was answered.
        assert fault["dropped"] == 3
        assert fault["availability"] == 17 / 20
        assert repeat["availability"] == 1.0

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

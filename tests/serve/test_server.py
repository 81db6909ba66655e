"""End-to-end server tests over a real TCP socket, in-process.

Each scenario starts a :class:`DetectionServer` on a loopback port
inside ``asyncio.run``, speaks the JSONL protocol through
``asyncio.open_connection``, and stops the server before asserting.  The
acceptance criterion rides on :class:`TestBitIdentity`: a served
response's record -- streamed as JSONL rows, rebuilt into a
:class:`RunRecord` -- diffs clean against executing the same request
directly, for all three sources (miss, cache hit, coalesced follower).
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.runtime import (
    ExecutionEngine,
    ExecutionPolicy,
    RunRecord,
    TraceEvent,
    diff_records,
)
from repro.serve import DetectionServer, execute_request
from repro.serve.protocol import parse_request

GRAPH = {"kind": "gnp", "n": 24, "p": 0.15, "seed": 5}


def record_from_rows(rows):
    """Rebuild a RunRecord from streamed JSONL rows (the client's view)."""
    header, footer = rows[0], rows[-1]
    assert header["type"] == "header" and footer["type"] == "footer"
    return RunRecord(
        policy=header["policy"],
        policy_hash=header["policy_hash"],
        git_sha=header["git_sha"],
        platform=header["platform"],
        started_unix=header["started_unix"],
        finished_unix=footer["finished_unix"],
        events=[TraceEvent.from_dict(r) for r in rows[1:-1]],
    )


def direct_record(reqobj, base_policy=None):
    """The bit-identity baseline: the same request run directly."""
    req = parse_request(reqobj)
    result = execute_request(req, req.policy(base=base_policy or ExecutionPolicy()))
    return record_from_rows(result.rows)


class Client:
    """Minimal JSONL client: send requests, collect per-id responses."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, obj):
        self.writer.write(json.dumps(obj).encode() + b"\n")
        await self.writer.drain()

    async def collect(self, n_terminal):
        """Read until ``n_terminal`` terminal lines arrived; group by id."""
        out = {}
        seen = 0
        while seen < n_terminal:
            row = json.loads(await self.reader.readline())
            bucket = out.setdefault(row["id"], {"records": []})
            if row["type"] == "record":
                bucket["records"].append(row["row"])
            else:
                bucket["terminal"] = row
                seen += 1
        return out

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _with_server(scenario, **server_kwargs):
    srv = DetectionServer(**server_kwargs)
    await srv.start()
    try:
        return await scenario(srv)
    finally:
        await srv.stop()


def _after_sleep(delay_s, fn, /, *args, **kwargs):
    time.sleep(delay_s)
    return fn(*args, **kwargs)


class SlowEngine(ExecutionEngine):
    """A slow engine: every submitted call first sleeps ``delay_s``.

    Injected through ``DetectionServer(engine=...)``, the server's one
    test seam, it holds each execution open long enough for deadlines to
    fire, duplicates to coalesce and clients to vanish mid-run.
    """

    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_after_sleep, self.delay_s, fn, *args, **kwargs)


def run_slow(scenario, delay_s, **server_kwargs):
    """``asyncio.run`` a scenario against a server on a :class:`SlowEngine`."""
    engine = SlowEngine(delay_s)
    try:
        return asyncio.run(_with_server(scenario, engine=engine, **server_kwargs))
    finally:
        engine.shutdown()


class TestBitIdentity:
    def test_all_three_sources_diff_clean_against_direct_runs(self):
        reqobj = {"pattern": "c4", "graph": GRAPH, "seed": 2, "iterations": 12}

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            # Fire the leader and a coalescable duplicate concurrently,
            # then repeat the leader for a cache hit.
            await client.send({"id": "miss", **reqobj})
            await client.send({"id": "dup", **reqobj})
            got = await client.collect(2)
            await client.send({"id": "hit", **reqobj})
            got.update(await client.collect(1))
            await client.close()
            return got

        got = asyncio.run(_with_server(scenario))
        sources = {rid: got[rid]["terminal"]["cache"] for rid in got}
        assert sources["miss"] == "miss"
        assert sorted(sources[r] for r in ("dup", "hit")) == \
            ["coalesced", "hit"]
        baseline = direct_record({"id": "base", **reqobj})
        for rid in ("miss", "dup", "hit"):
            served = record_from_rows(got[rid]["records"])
            diff = diff_records(baseline, served)
            assert diff["identical"], (rid, diff)

    def test_shorter_follower_derives_its_own_exact_answer(self):
        long = {"pattern": "odd-c5", "graph": GRAPH, "seed": 1,
                "iterations": 20}
        short = dict(long, iterations=6)

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "long", **long})
            await client.send({"id": "short", **short})
            got = await client.collect(2)
            await client.close()
            return got

        got = asyncio.run(_with_server(scenario))
        assert got["short"]["terminal"]["cache"] == "coalesced"
        baseline = direct_record({"id": "b", **short})
        served = record_from_rows(got["short"]["records"])
        assert diff_records(baseline, served)["identical"]
        assert got["short"]["terminal"]["seeds_requested"] == 6


class TestSingleRunPatterns:
    def test_triangle_and_clique_roundtrip(self):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "t", "pattern": "triangle",
                               "graph": {"kind": "clique", "s": 4}})
            await client.send({"id": "k", "pattern": "k4",
                               "graph": {"kind": "clique", "s": 4}})
            got = await client.collect(2)
            await client.close()
            return got

        got = asyncio.run(_with_server(scenario))
        assert got["t"]["terminal"]["detected"] is True
        assert got["k"]["terminal"]["detected"] is True
        baseline = direct_record({"id": "b", "pattern": "k4",
                                  "graph": {"kind": "clique", "s": 4}})
        served = record_from_rows(got["k"]["records"])
        assert diff_records(baseline, served)["identical"]


class TestAdmission:
    def test_burst_past_queue_rejects_cleanly_and_recovers(self):
        # One slot, no queue: of N concurrent distinct requests, exactly
        # one runs at a time, so most of the burst must reject.
        def reqs(n):
            return [{"id": f"r{i}", "pattern": "c4",
                     "graph": GRAPH, "seed": 100 + i} for i in range(n)]

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            for obj in reqs(6):
                await client.send(obj)
            got = await client.collect(6)
            # After the burst drains, the server still serves.
            await client.send({"id": "after", "pattern": "c4",
                               "graph": GRAPH, "seed": 999})
            got.update(await client.collect(1))
            await client.close()
            return got, srv.stats.rejected

        got, rejected = asyncio.run(
            _with_server(scenario, max_inflight=1, max_queue=0)
        )
        codes = [got[f"r{i}"]["terminal"] for i in range(6)]
        overloads = [c for c in codes if c.get("code") == "overload"]
        served = [c for c in codes if c["type"] == "result"]
        assert overloads and served
        assert rejected == len(overloads)
        assert got["after"]["terminal"]["type"] == "result"

    def test_queued_requests_run_after_a_slot_frees(self):
        def reqs(n):
            return [{"id": f"q{i}", "pattern": "c4",
                     "graph": GRAPH, "seed": 200 + i} for i in range(n)]

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            for obj in reqs(4):
                await client.send(obj)
            got = await client.collect(4)
            await client.close()
            return got, srv.admission.snapshot()

        got, snap = asyncio.run(
            _with_server(scenario, max_inflight=1, max_queue=8)
        )
        assert all(
            got[f"q{i}"]["terminal"]["type"] == "result" for i in range(4)
        )
        assert snap["queued_total"] >= 1
        assert snap["running"] == 0 and snap["queued"] == 0


class TestDuplicateHeavyLoad:
    """A concurrent wave of duplicates, then a wave of repeats.

    A :class:`SlowEngine` holds every leader's execution open while its
    duplicates arrive, so each profile runs once and the rest of the
    wave coalesces onto it; the repeat wave is served from the cache.
    """

    PROFILES = [
        {"pattern": "c4", "graph": GRAPH, "seed": 0, "iterations": 8},
        {"pattern": "odd-c5", "graph": GRAPH, "seed": 1, "iterations": 8,
         "policy": "metrics=lite"},
        {"pattern": "c6", "graph": {"kind": "gnp", "n": 32, "p": 0.12,
                                    "seed": 2}, "seed": 2, "iterations": 8},
        {"pattern": "c4", "graph": {"kind": "cycle", "k": 12}, "seed": 3,
         "iterations": 8, "policy": "metrics=lite"},
        {"pattern": "triangle", "graph": {"kind": "clique", "s": 4}},
        {"pattern": "k4", "graph": {"kind": "clique", "s": 5},
         "policy": "metrics=lite"},
    ]
    COPIES = 6
    CONNECTIONS = 3

    def test_duplicates_coalesce_and_repeats_hit(self):
        n = len(self.PROFILES)
        wave1 = [
            {"id": f"w1-{i}", **self.PROFILES[i % n]}
            for i in range(n * self.COPIES)
        ]
        wave2 = [{"id": f"w2-{i}", **p} for i, p in enumerate(self.PROFILES)]

        async def scenario(srv):
            clients = [
                await Client.connect(srv.bound_port)
                for _ in range(self.CONNECTIONS)
            ]
            for i, obj in enumerate(wave1):
                await clients[i % self.CONNECTIONS].send(obj)
            got = {}
            for c, client in enumerate(clients):
                got.update(await client.collect(
                    len(wave1[c::self.CONNECTIONS])
                ))
            for obj in wave2:
                await clients[0].send(obj)
            got.update(await clients[0].collect(len(wave2)))
            for client in clients:
                await client.close()
            return got, srv.coalescer.snapshot(), srv.cache.stats(), \
                srv.stats.executed

        got, coalesce, cache, executed = run_slow(scenario, 0.3)
        assert len(got) == len(wave1) + len(wave2)
        failures = [b["terminal"] for b in got.values()
                    if b["terminal"]["type"] != "result"]
        assert failures == []
        assert coalesce["coalescing_factor"] >= 2, coalesce
        assert cache["hits"] > 0, cache
        assert executed <= n

        # One response of each source diffs clean against a direct run.
        sampled = {}
        for obj in wave1 + wave2:
            source = got[obj["id"]]["terminal"]["cache"]
            sampled.setdefault(source, obj)
        assert set(sampled) == {"miss", "coalesced", "hit"}
        for source, obj in sampled.items():
            served = record_from_rows(got[obj["id"]]["records"])
            baseline = direct_record({**obj, "id": "base"})
            assert diff_records(baseline, served)["identical"], source


class TestProtocolErrors:
    def test_bad_lines_answer_errors_not_disconnects(self):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            self_id = {"id": "bad1", "pattern": "nope",
                       "graph": {"kind": "cycle", "k": 5}}
            await client.send(self_id)
            got = await client.collect(1)
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            row = json.loads(await client.reader.readline())
            got["nojson"] = {"terminal": row}
            # The connection survives both errors.
            await client.send({"id": "ok", "pattern": "triangle",
                               "graph": {"kind": "clique", "s": 3}})
            got.update(await client.collect(1))
            await client.close()
            return got

        got = asyncio.run(_with_server(scenario))
        assert got["bad1"]["terminal"]["code"] == "bad-request"
        assert got["nojson"]["terminal"]["code"] == "bad-request"
        assert got["ok"]["terminal"]["type"] == "result"


class TestStatsEndpoint:
    def test_stats_row_reflects_layer_counters(self):
        reqobj = {"pattern": "c4", "graph": GRAPH, "seed": 7}

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "one", **reqobj})
            await client.collect(1)
            await client.send({"id": "two", **reqobj})
            await client.collect(1)
            await client.send({"id": "s", "op": "stats"})
            row = json.loads(await client.reader.readline())
            await client.close()
            return row

        row = asyncio.run(_with_server(scenario))
        assert row["type"] == "stats"
        assert row["server"]["executed"] == 1
        assert row["server"]["cache_hits"] == 1
        assert row["result_cache"]["hits"] == 1
        assert row["coalescer"]["groups_started"] == 1
        assert row["admission"]["admitted_total"] == 1
        assert "construction_cache" in row

    def test_governor_snapshot_present_when_budget_set(self):
        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            await client.send({"id": "s", "op": "stats"})
            row = json.loads(await client.reader.readline())
            await client.close()
            return row

        row = asyncio.run(_with_server(
            scenario, base_policy=ExecutionPolicy(governor_budget=1_000_000)
        ))
        assert "governor" in row
        assert row["admission"]["limit"] == row["admission"]["max_inflight"]

    def test_base_policy_budget_builds_one_shared_governor(self):
        # `serve --policy governor_budget=N` is the one way to govern a
        # server: admission and every request's session share the
        # governor the base policy builds.
        reqs = [{"pattern": "c4", "graph": GRAPH, "seed": s, "iterations": 3}
                for s in (11, 12)]

        async def scenario(srv):
            client = await Client.connect(srv.bound_port)
            got = {}
            for i, obj in enumerate(reqs):
                await client.send({"id": f"r{i}", **obj})
                got.update(await client.collect(1))
            await client.send({"id": "s", "op": "stats"})
            row = json.loads(await client.reader.readline())
            await client.close()
            return got, row

        policy = ExecutionPolicy(governor_budget=1_000_000)
        srv = DetectionServer(base_policy=policy)
        assert srv.governor is not None
        assert srv.admission.governor is srv.governor
        assert (srv.governor.budget, srv.governor.decay) == (1_000_000, 0.9)

        async def run():
            await srv.start()
            try:
                return await scenario(srv)
            finally:
                await srv.stop()

        got, row = asyncio.run(run())
        seeds_run = [got[f"r{i}"]["terminal"]["iterations_run"] for i in (0, 1)]
        # Both requests fed the one estimate: one observation per seed.
        assert row["governor"]["observed"] == sum(seeds_run) > 0
        assert row["governor"]["peak"] > 0
        assert row["governor"] == srv.governor.snapshot()

"""Shutdown safety: idempotent teardown and zero shm leaks under kills.

Four layers of the same guarantee:

* ``shutdown_pools`` / ``RunSession.close`` may be called any number of
  times, from any interleaving (the signal-handler regime), without
  raising or double-releasing;
* a server stopped twice releases its resources exactly once-effectively;
* a ``SIGTERM`` landing mid-request on a serving process with live
  shared-memory exports leaves **zero** surviving segments behind
  (child process asserted from the parent);
* a ``SIGKILL`` -- no handler ever runs -- still leaks nothing (the
  multiprocessing resource tracker outlives the process and unlinks its
  registered segments), and the cache journal's per-append fsync means a
  restarted server serves the pre-kill fills journal-warm.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import shared_memory
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import CongestNetwork
from repro.congest.parallel import shutdown_pools
from repro.congest.shm import export_network, shared_export_names
from repro.runtime import ExecutionPolicy, RunSession
from repro.serve import DetectionServer
from tests.serve.test_server import Client, _with_server

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestIdempotentTeardown:
    def test_shutdown_pools_twice_is_a_noop(self):
        net = CongestNetwork(nx.path_graph(6), bandwidth=4)
        export_network(net, "tok-shutdown-twice")
        assert shared_export_names()
        shutdown_pools()
        assert shared_export_names() == ()
        shutdown_pools()  # second sweep finds nothing left to do
        assert shared_export_names() == ()

    def test_double_session_close_does_not_leak_or_raise(self):
        ses = RunSession(ExecutionPolicy(jobs=2))
        net = CongestNetwork(nx.path_graph(6), bandwidth=4)
        export_network(net, "tok-double-close")
        ses.close()
        assert shared_export_names() == ()
        ses.close()  # idempotent
        assert ses.closed

    def test_server_stop_twice_is_idempotent(self):
        async def scenario():
            srv = DetectionServer()
            await srv.start()
            await srv.stop()
            await srv.stop()

        asyncio.run(scenario())


class TestSigtermLeavesNoSegments:
    CHILD = textwrap.dedent("""
        import asyncio, json

        import networkx as nx

        from repro.congest import CongestNetwork
        from repro.congest.shm import export_network, shared_export_names
        from repro.serve import DetectionServer

        async def main():
            # A live export stands in for mid-run shared-graph state.
            net = CongestNetwork(nx.path_graph(64), bandwidth=8)
            export_network(net, "tok-sigterm-regression")
            srv = DetectionServer(max_inflight=2)
            await srv.start()
            # Handlers go in BEFORE the banner: the parent is free to
            # SIGTERM the instant it reads the port.
            srv.install_signal_handlers(asyncio.get_running_loop())
            print(json.dumps({
                "port": srv.bound_port,
                "segments": list(shared_export_names()),
            }), flush=True)
            await srv.serve_forever()

        asyncio.run(main())
    """)

    def test_sigterm_mid_request_unlinks_every_segment(self):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["segments"], "child exported no segments"

            async def fire_and_kill():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", banner["port"]
                )
                writer.write(json.dumps({
                    "id": "inflight", "pattern": "odd-c5",
                    "graph": {"kind": "gnp", "n": 48, "p": 0.1, "seed": 0},
                    "iterations": 200,
                }).encode() + b"\n")
                await writer.drain()
                # Request is in flight; the kill races its execution on
                # purpose -- that is the regression scenario.
                proc.send_signal(signal.SIGTERM)
                writer.close()

            asyncio.run(fire_and_kill())
            rc = proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert rc == 0, proc.stderr.read()
        for name in banner["segments"]:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestStopKeepsTheLoopFree:
    """Releasing the pools joins their running chunks, so ``stop()`` does
    it off the event loop and a SIGTERM mid-request still exits promptly."""

    def test_pool_release_runs_off_the_loop_thread(self, monkeypatch):
        threads = []

        async def scenario():
            srv = DetectionServer()
            monkeypatch.setattr(
                srv.engine, "release_pools",
                lambda: threads.append(threading.get_ident()),
            )
            await srv.start()
            await srv.stop()
            return threading.get_ident()

        loop_thread = asyncio.run(scenario())
        assert threads and loop_thread not in threads

    CHILD = textwrap.dedent("""
        import asyncio, json

        from repro.runtime import ExecutionPolicy
        from repro.serve import DetectionServer

        async def main():
            srv = DetectionServer(base_policy=ExecutionPolicy(jobs=2))
            await srv.start()
            srv.install_signal_handlers(asyncio.get_running_loop())
            print(json.dumps({"port": srv.bound_port}), flush=True)
            await srv.serve_forever()

        asyncio.run(main())
    """)

    def test_sigterm_mid_amplified_request_exits_promptly(self):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            port = json.loads(proc.stdout.readline())["port"]

            async def fire_and_kill():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(json.dumps({
                    # Bipartite, so no C5 cuts the work short: run to
                    # the end it takes about 35 s of pool time.
                    "id": "inflight", "pattern": "odd-c5",
                    "graph": {"kind": "grid", "rows": 20, "cols": 20},
                    "iterations": 1600,
                }).encode() + b"\n")
                await writer.drain()
                # Let the pool spin up and start chunks before the kill.
                await asyncio.sleep(1.0)
                sent = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                writer.close()
                return sent

            sent = asyncio.run(fire_and_kill())
            rc = proc.wait(timeout=60)
            elapsed = time.monotonic() - sent
        finally:
            proc.kill()
            proc.wait(timeout=10)
        stderr = proc.stderr.read()
        assert rc == 0, stderr
        assert "Traceback" not in stderr, stderr
        # Chunks already handed to workers finish, the rest are
        # cancelled: the exit waits for a few chunks, not the request.
        assert elapsed < 20.0, elapsed


class TestSigkillIsRecoverable:
    """SIGKILL mid-request: no shm leak, and the journal restores.

    SIGKILL cannot be handled, so nothing in-process runs: the proof is
    that the durability story never depended on a clean exit.  Shared
    segments are registered with the multiprocessing resource tracker (a
    separate process that survives the kill and unlinks on parent
    death), and every cache fill was fsynced to the journal before it
    was answered -- so a fresh server on the same journal starts warm.
    """

    CHILD = textwrap.dedent("""
        import asyncio, json, sys

        import networkx as nx

        from repro.congest import CongestNetwork
        from repro.congest.shm import export_network, shared_export_names
        from repro.serve import DetectionServer

        async def main():
            net = CongestNetwork(nx.path_graph(64), bandwidth=8)
            export_network(net, "tok-sigkill-regression")
            srv = DetectionServer(max_inflight=2, cache_journal=sys.argv[1])
            await srv.start()
            print(json.dumps({
                "port": srv.bound_port,
                "segments": list(shared_export_names()),
            }), flush=True)
            await srv.serve_forever()

        asyncio.run(main())
    """)

    WARM = {"id": "warm", "pattern": "c4",
            "graph": {"kind": "gnp", "n": 24, "p": 0.15, "seed": 5},
            "seed": 80, "iterations": 6}

    def test_sigkill_mid_request_leaks_nothing_and_the_journal_restores(
        self, tmp_path
    ):
        journal = tmp_path / "cache.jsonl"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["segments"], "child exported no segments"

            async def warm_then_kill_in_flight():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", banner["port"]
                )
                # One request completes cleanly: its fill is fsynced
                # into the journal before the terminal row arrives.
                writer.write(json.dumps(self.WARM).encode() + b"\n")
                await writer.drain()
                while True:
                    row = json.loads(await reader.readline())
                    if row["type"] != "record":
                        break
                # A second request is mid-execution when the hard kill
                # lands -- the regression scenario.
                writer.write(json.dumps({
                    "id": "inflight", "pattern": "odd-c5",
                    "graph": {"kind": "gnp", "n": 48, "p": 0.1, "seed": 0},
                    "iterations": 200,
                }).encode() + b"\n")
                await writer.drain()
                proc.send_signal(signal.SIGKILL)
                writer.close()
                return row

            row = asyncio.run(warm_then_kill_in_flight())
            assert row["type"] == "result"
            rc = proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert rc == -signal.SIGKILL
        # The resource tracker outlives the kill; give it a moment.
        leaked = list(banner["segments"])
        deadline = time.monotonic() + 20
        while leaked and time.monotonic() < deadline:
            for name in list(leaked):
                try:
                    seg = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    leaked.remove(name)
                else:
                    seg.close()
            if leaked:
                time.sleep(0.25)
        assert leaked == [], f"segments survived SIGKILL: {leaked}"

        # The journal survived the hard kill: a fresh server restores
        # the completed fill and serves it as a warm hit.
        async def replay(srv):
            client = await Client.connect(srv.bound_port)
            await client.send(self.WARM)
            got = await client.collect(1)
            await client.close()
            return got, srv.cache.restored

        got, restored = asyncio.run(
            _with_server(replay, cache_journal=journal)
        )
        assert restored == 1
        assert got["warm"]["terminal"]["cache"] == "hit"

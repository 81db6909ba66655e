"""Degradation ladder of :func:`repro.congest.parallel.run_amplified`.

Worker crashes, hung workers, and Ctrl-C are injected for real (the
algorithms below crash/sleep/raise only when executing inside a pool
worker, so the inline salvage and serial fallback paths stay healthy) and
every degraded outcome is asserted equal to the sequential reference --
the ladder trades wall-clock, never results.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import networkx as nx
import pytest

from repro.congest import Algorithm
from repro.congest.parallel import _POOLS, run_amplified, shutdown_pools


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


class _MaybeReject(Algorithm):
    """Deterministic stand-in for a color-coding iteration."""

    name = "maybe-reject"

    def __init__(self, reject: bool):
        self.reject_flag = reject

    def init(self, node):
        pass

    def round(self, node, inbox):
        if self.reject_flag and node.id == 0:
            node.reject()
        node.halt()
        return {}

    def finish(self, node):
        pass


class _CrashInWorker(_MaybeReject):
    """Kills its host *worker* process outright (parent stays healthy)."""

    name = "crash-in-worker"

    def init(self, node):
        if _in_worker():
            import os

            os._exit(13)


class _SleepInWorker(_MaybeReject):
    """Hangs inside pool workers; instant inline."""

    name = "sleep-in-worker"

    def init(self, node):
        if _in_worker() and node.id == 0:
            time.sleep(3.0)


class _InterruptInWorker(_MaybeReject):
    """Raises Ctrl-C from inside a pool worker."""

    name = "interrupt-in-worker"

    def init(self, node):
        if _in_worker():
            raise KeyboardInterrupt


def _factory(t: int) -> Algorithm:
    return _MaybeReject(reject=(t == 5))


def _crash_factory(t: int) -> Algorithm:
    return _CrashInWorker(reject=(t == 5))


def _sleep_factory(t: int) -> Algorithm:
    return _SleepInWorker(reject=(t == 5))


def _interrupt_factory(t: int) -> Algorithm:
    return _InterruptInWorker(reject=(t == 5))


GRAPH = nx.cycle_graph(4)
KW = dict(iterations=12, seed=0, bandwidth=16, max_rounds=3)


def _reference():
    return run_amplified(GRAPH, _factory, jobs=1, **KW)


def _same_outcome(a, b):
    assert (a.rejected, a.first_reject, a.iterations_run) == (
        b.rejected, b.first_reject, b.iterations_run
    )
    assert a.outcomes == b.outcomes


class TestBrokenPoolRetries:
    def test_crashing_workers_degrade_to_serial_with_identical_outcome(self):
        steps = []
        out = run_amplified(
            GRAPH, _crash_factory, jobs=2, pool_retries=2,
            backoff_base=0.01, on_degrade=steps.append, **KW,
        )
        # The crash algorithm only dies in workers, so the serial
        # fallback computes the honest sequential answer.
        _same_outcome(out, _reference())
        assert [s["step"] for s in steps] == [
            "pool-rebuild", "pool-rebuild", "serial-fallback",
        ]
        assert steps[0]["backoff_s"] == pytest.approx(0.01)
        assert steps[1]["backoff_s"] == pytest.approx(0.02)  # doubled
        assert steps[2]["rebuilds"] == 2

    def test_zero_retries_falls_back_immediately(self):
        steps = []
        out = run_amplified(
            GRAPH, _crash_factory, jobs=2, pool_retries=0,
            on_degrade=steps.append, **KW,
        )
        _same_outcome(out, _reference())
        assert [s["step"] for s in steps] == ["serial-fallback"]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="pool_retries"):
            run_amplified(GRAPH, _factory, jobs=2, pool_retries=-1, **KW)


class TestWorkerTimeout:
    def test_hung_worker_is_salvaged_inline(self):
        steps = []
        out = run_amplified(
            GRAPH, _sleep_factory, jobs=2, worker_timeout=0.25,
            on_degrade=steps.append, **KW,
        )
        _same_outcome(out, _reference())
        assert any(s["step"] == "timeout-salvage" for s in steps)
        salvage = next(s for s in steps if s["step"] == "timeout-salvage")
        assert salvage["chunks_salvaged"] >= 1
        # The poisoned pool must not be reused by later callers.
        assert 2 not in _POOLS


class TestKeyboardInterrupt:
    def test_interrupt_cancels_and_tears_down_quickly(self):
        shutdown_pools()
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_amplified(GRAPH, _interrupt_factory, jobs=3, **KW)
        elapsed = time.perf_counter() - t0
        # No waiting on outstanding chunks, no pool left behind.
        assert elapsed < 2.0
        assert 3 not in _POOLS

    def test_pool_registry_recovers_after_interrupt(self):
        out = run_amplified(GRAPH, _factory, jobs=3, **KW)
        _same_outcome(out, _reference())


class _FakeFuture:
    """Scripted Future: a finished value, a scripted failure, or a hang."""

    def __init__(self, value=None, exc=None, finished=True):
        self._value = value
        self._exc = exc
        self._finished = finished

    def done(self):
        return self._finished

    def result(self, timeout=None):
        if not self._finished:
            raise FuturesTimeoutError()
        if self._exc is not None:
            raise self._exc
        return self._value

    def cancel(self):
        return not self._finished


class _ScriptedPool:
    """Stands in for the process pool: chunks run inline at submit time,
    except the scripted failures -- which lets a test break the pool at an
    exact chunk while its siblings finish, the worst case for rework."""

    def __init__(self, fail):
        self.fail = fail  # chunk start -> "break" | "hang" (consumed once)
        self.submitted = []

    def submit(self, fn, spec):
        self.submitted.append((spec["start"], spec["stop"]))
        mode = self.fail.pop(spec["start"], None)
        if mode == "break":
            return _FakeFuture(exc=BrokenProcessPool("worker died"))
        if mode == "hang":
            return _FakeFuture(finished=False)
        return _FakeFuture(value=fn(spec))


class TestHarvestRegression:
    """Finished chunks survive a pool failure; only true holes re-run.

    Regression for the rework bug where a BrokenProcessPool threw away
    every gathered chunk of the batch and a timeout discarded
    finished-but-uncollected futures -- both previously recomputed work
    that was already in hand.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.congest import parallel as par

        executed = {}
        real = par._run_chunk

        def counting(spec):
            key = (spec["start"], spec["stop"])
            executed[key] = executed.get(key, 0) + 1
            return real(spec)

        monkeypatch.setattr(par, "_run_chunk", counting)
        return executed

    def test_pool_break_reruns_only_the_lost_chunk(self, monkeypatch, counts):
        from repro.congest import parallel as par

        # 12 iterations over 4 chunks: [0,3) [3,6) [6,9) [9,12); the
        # rejecting seed t=5 sits in chunk [3,6), which is the one that
        # breaks -- its siblings all finish.
        pool = _ScriptedPool(fail={3: "break"})
        monkeypatch.setattr(par, "_get_pool", lambda jobs: pool)
        steps = []
        out = run_amplified(
            GRAPH, _factory, jobs=2, chunks_per_job=2, pool_retries=2,
            backoff_base=0.01, on_degrade=steps.append, **KW,
        )
        executed = dict(counts)
        # Every chunk ran exactly once: the three survivors were
        # harvested, the rebuilt attempt resubmitted the hole alone.
        assert executed == {(0, 3): 1, (3, 6): 1, (6, 9): 1, (9, 12): 1}
        assert pool.submitted == [
            (0, 3), (3, 6), (6, 9), (9, 12), (3, 6),
        ]
        rebuilds = [s for s in steps if s["step"] == "pool-rebuild"]
        assert len(rebuilds) == 1 and rebuilds[0]["chunks_kept"] == 3
        _same_outcome(out, _reference())

    def test_timeout_harvests_finished_futures(self, monkeypatch, counts):
        from repro.congest import parallel as par

        pool = _ScriptedPool(fail={3: "hang"})
        monkeypatch.setattr(par, "_get_pool", lambda jobs: pool)
        steps = []
        out = run_amplified(
            GRAPH, _factory, jobs=2, chunks_per_job=2, worker_timeout=0.25,
            on_degrade=steps.append, **KW,
        )
        executed = dict(counts)
        # The hung chunk is salvaged inline; the two finished-but-not-yet-
        # collected futures behind it are harvested, not recomputed.
        assert executed == {(0, 3): 1, (3, 6): 1, (6, 9): 1, (9, 12): 1}
        salvage = [s for s in steps if s["step"] == "timeout-salvage"]
        assert len(salvage) == 1 and salvage[0]["chunks_salvaged"] == 1
        _same_outcome(out, _reference())


class TestSharedPoolBreaks:
    """Concurrent callers share one pool per ``jobs``: one caller's
    ladder must not tear down another's rebuilt pool, and a worker death
    must fail every pending future, whatever else was cancelled."""

    def test_a_stale_discard_leaves_the_rebuilt_pool_alone(self):
        from repro.congest import parallel as par

        shutdown_pools()
        broken = par._get_pool(2)
        par._discard_pool(2, pool=broken)  # the first caller's discard
        rebuilt = par._get_pool(2)
        par._discard_pool(2, pool=broken)  # a second caller, late
        try:
            assert _POOLS[2] is rebuilt
            assert rebuilt.submit(abs, -3).result(timeout=30) == 3
        finally:
            shutdown_pools()

    def test_a_timed_out_sibling_does_not_cancel_queued_chunks(self):
        # A's hung worker times out and A discards the shared pool while
        # B's chunks still wait in its queue: they must run to a result,
        # not surface as CancelledError.
        shutdown_pools()
        kw = dict(KW, iterations=400)
        outcomes = {}

        def call(name, factory, **extra):
            try:
                outcomes[name] = run_amplified(GRAPH, factory, jobs=2, **extra)
            except BaseException as exc:  # surfaced by the assertion below
                outcomes[name] = exc

        a = threading.Thread(target=call, args=("a", _sleep_factory),
                             kwargs=dict(KW, worker_timeout=0.3))
        b = threading.Thread(target=call, args=("b", _factory), kwargs=kw)
        try:
            a.start()
            time.sleep(0.05)
            b.start()
            a.join(60)
            b.join(60)
            for name in "ab":
                assert not isinstance(outcomes[name], BaseException), outcomes[name]
            _same_outcome(outcomes["a"], _reference())
            _same_outcome(outcomes["b"], run_amplified(GRAPH, _factory, jobs=1, **kw))
        finally:
            shutdown_pools()

    def test_a_cancelled_future_does_not_strand_a_dying_pool(self):
        # One worker runs a long task, two more fill the call queue, and
        # the rest stay pending in the pool's manager thread.  A cancelled
        # pending future ahead of a live one, then the worker's death:
        # the live one must fail with BrokenProcessPool, not hang.
        from repro.congest import parallel as par

        pool = par._Pool(max_workers=1)
        try:
            pid = pool.submit(os.getpid).result(timeout=30)
            busy = [pool.submit(time.sleep, 30) for _ in range(3)]
            cancelled = pool.submit(time.sleep, 30)
            live = pool.submit(time.sleep, 30)
            assert cancelled.cancel()
            os.kill(pid, signal.SIGKILL)
            for fut in busy + [live]:
                with pytest.raises(BrokenProcessPool):
                    fut.result(timeout=10)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

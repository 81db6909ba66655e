"""Crash-point enumeration for :mod:`repro.runtime.durable` and its consumers.

The method is ALICE's (Pillai et al., "All File Systems Are Not Created
Equal", OSDI 2014), scaled down to one module.  A fixture wraps the
``os`` calls the primitive makes -- ``open``, ``write``, ``fsync``,
``replace``, ``ftruncate``, ``unlink`` (and ``close``, to retire file
descriptors) -- so each call inside the live directory is logged and
also really performed.  A scenario drives one consumer there and marks
each operation the consumer acknowledged.  Then, for every crash point
``k``, the replayer rebuilds the directory from ``ops[:k]`` in a fresh
directory and runs the consumer's loader on the result.

Persistence model (ext4 ``data=ordered``; nothing is reordered across an
fsync):

* file data -- writes and truncations -- reaches the disk in issue
  order, and an ``fsync`` makes every earlier data op durable;
* directory entries -- creations, renames, unlinks -- also persist in
  issue order, but only a directory ``fsync`` makes them durable.

So besides ``ops[:k]`` itself, a crash at ``k`` can leave:

* the write in flight at ``k`` torn to 1 byte, half, or all but one byte;
* any suffix of the data ops after the last fsync lost;
* any suffix of the entry ops after the last directory fsync undone.

At every such state each consumer must recover a prefix-consistent
state that keeps everything acknowledged before the crash.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from collections import OrderedDict
from pathlib import Path

import networkx as nx
import pytest

from repro.graphs.io import read_edgelist, write_edgelist
from repro.runtime import (
    ExecutionPolicy,
    GovernorStateStore,
    PeakHoldGovernor,
    RunRecord,
    SweepCheckpoint,
    TraceEvent,
    diff_records,
    durable,
)
from repro.serve import CacheJournal, ResultCache

DATA_OPS = ("write", "truncate")
ENTRY_OPS = ("create", "rename", "unlink")
ABSENT = "<absent>"


class _OpLog:
    """The logged file operations inside ``root``, with a model of which
    inode each name and open descriptor refers to."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.ops = []
        self.marks = []  # (ops issued when the call returned, value)
        self._fds = {}  # fd -> inode, or None for the directory itself
        self._names = {}
        self._inodes = itertools.count()

    def mark(self, value) -> None:
        self.marks.append((len(self.ops), value))

    def _name(self, path):
        p = Path(os.path.abspath(os.fsdecode(path)))
        if p == self.root:
            return ""
        return p.name if p.parent == self.root else None

    def install(self, monkeypatch) -> None:
        real = {f: getattr(os, f) for f in
                ("open", "write", "fsync", "replace", "ftruncate", "unlink",
                 "close")}

        def _open(path, flags, mode=0o777, **kw):
            name = self._name(path)
            existed = name is not None and os.path.exists(path)
            fd = real["open"](path, flags, mode, **kw)
            if name == "":
                self._fds[fd] = None
            elif name is not None:
                if not existed:
                    self._names[name] = next(self._inodes)
                    self.ops.append(("create", name, self._names[name]))
                inode = self._fds[fd] = self._names[name]
                if flags & os.O_TRUNC:
                    self.ops.append(("truncate", inode, 0))
            return fd

        def _write(fd, data):
            n = real["write"](fd, data)
            if self._fds.get(fd) is not None:
                end = os.lseek(fd, 0, os.SEEK_CUR)
                self.ops.append(("write", self._fds[fd], end - n,
                                 bytes(data[:n])))
            return n

        def _fsync(fd):
            real["fsync"](fd)
            if fd in self._fds:
                inode = self._fds[fd]
                self.ops.append(("dirsync",) if inode is None
                                else ("fsync", inode))

        def _replace(src, dst):
            real["replace"](src, dst)
            a, b = self._name(src), self._name(dst)
            if a and b:
                self._names[b] = self._names.pop(a)
                self.ops.append(("rename", a, b))

        def _ftruncate(fd, length):
            real["ftruncate"](fd, length)
            if self._fds.get(fd) is not None:
                self.ops.append(("truncate", self._fds[fd], length))

        def _unlink(path, **kw):
            real["unlink"](path, **kw)
            name = self._name(path)
            if name:
                self._names.pop(name)
                self.ops.append(("unlink", name))

        def _close(fd):
            self._fds.pop(fd, None)
            real["close"](fd)

        for name, fn in (("open", _open), ("write", _write),
                         ("fsync", _fsync), ("replace", _replace),
                         ("ftruncate", _ftruncate), ("unlink", _unlink),
                         ("close", _close)):
            monkeypatch.setattr(os, name, fn)


@pytest.fixture
def oplog(tmp_path, monkeypatch):
    root = tmp_path / "live"
    root.mkdir()
    log = _OpLog(root)
    log.install(monkeypatch)
    return log


def crash_states(ops):
    """``(k, applied ops)`` for every crash state of the log."""
    for k in range(len(ops) + 1):
        done = ops[:k]
        yield k, done
        if k < len(ops) and ops[k][0] == "write":
            _, inode, offset, data = ops[k]
            for cut in sorted({1, len(data) // 2, len(data) - 1}):
                if 0 < cut < len(data):
                    yield k, done + [("write", inode, offset, data[:cut])]
        for kinds, barrier in ((DATA_OPS, "fsync"), (ENTRY_OPS, "dirsync")):
            synced = max((i for i, op in enumerate(done) if op[0] == barrier),
                         default=-1)
            for lost in [i for i, op in enumerate(done)
                         if op[0] in kinds and i > synced]:
                yield k, [op for i, op in enumerate(done)
                          if i < lost or op[0] not in kinds]


def materialize(applied, directory: Path) -> None:
    """Rebuild the on-disk state the ``applied`` ops leave."""
    names, data = {}, {}
    for op in applied:
        kind = op[0]
        if kind == "create":
            names[op[1]] = op[2]
            data.setdefault(op[2], bytearray())
        elif kind == "rename":
            names[op[2]] = names.pop(op[1])
        elif kind == "unlink":
            names.pop(op[1])
        elif kind == "write":
            _, inode, offset, chunk = op
            buf = data.setdefault(inode, bytearray())
            buf.extend(bytes(max(0, offset - len(buf))))
            buf[offset:offset + len(chunk)] = chunk
        elif kind == "truncate":
            buf = data.setdefault(op[1], bytearray())
            del buf[op[2]:]
            buf.extend(bytes(op[2] - len(buf)))
    directory.mkdir(parents=True)
    for name, inode in names.items():
        (directory / name).write_bytes(bytes(data[inode]))


def crash_matrix(log, check, scratch: Path):
    """Run ``check(directory, acked, pending, live)`` on every crash state.

    ``acked`` lists the mark values of calls that returned by the crash
    point, ``pending`` is the next one (the call in flight) or ``None``,
    and ``live`` is the directory the scenario left with no crash.
    Returns ``(states enumerated, violations)``.
    """
    violations = []
    count = 0
    for count, (k, applied) in enumerate(crash_states(log.ops), 1):
        acked = [value for at, value in log.marks if at <= k]
        rest = [value for at, value in log.marks if at > k]
        directory = scratch / f"crash-{count}"
        materialize(applied, directory)
        try:
            problem = check(directory, acked, rest[0] if rest else None,
                            log.root)
        except Exception as exc:  # a loader that raises is a violation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            violations.append((k, applied[-1:] if applied else [], problem))
    return count, violations


def register_check(observe):
    """A check for a file that is replaced whole: it must read back as the
    last acknowledged version or the one in flight (absent before the
    first acknowledgement)."""

    def check(directory, acked, pending, live):
        allowed = [acked[-1] if acked else ABSENT]
        if pending is not None:
            allowed.append(pending)
        seen = observe(directory)
        if seen not in allowed:
            return f"read {seen!r}, expected one of {allowed!r}"
        return None

    return check


# -- the five consumers ------------------------------------------------

POLICY = ExecutionPolicy(seed=5)


def _record(num_events):
    rec = RunRecord(policy=POLICY.as_dict(), policy_hash=POLICY.policy_hash(),
                    git_sha="0" * 40, platform={}, started_unix=1.5)
    for i in range(num_events):
        rec.add_event(TraceEvent(kind="run", label=f"e{i}", seed=i,
                                 decision="ACCEPT", rounds=i + 1,
                                 total_bits=10 * i))
    return rec


def _record_view(rec):
    return rec.policy_hash, [e.as_dict() for e in rec.events], rec.finished_unix


def record_scenario(root, mark):
    for num_events in (2, 3):
        rec = _record(num_events)
        rec.write(root / "run.jsonl")
        mark(_record_view(rec))


def _observe_record(directory):
    path = directory / "run.jsonl"
    return _record_view(RunRecord.load(path)) if path.exists() else ABSENT


GRID = [("a", 0, 4), ("a", 0, 8), ("b", 0, 4), ("b", 0, 8)]


def _run_cells(ckpt, cells, mark=None):
    for cell in cells:
        if ckpt.done(cell) is None:
            # An unstamped event ahead of the cell's own: a flush batch
            # torn between them must re-run the cell.
            ckpt.record.note("cell-start", at=list(cell))
            label, seed, n = cell
            ckpt.complete(cell, TraceEvent(kind="run", label=label, seed=seed,
                                           rounds=n, total_bits=n * n))
            if mark:
                mark(cell)
    ckpt.finish()


def checkpoint_scenario(root, mark):
    path = root / "sweep.jsonl"
    _run_cells(SweepCheckpoint.fresh(POLICY, path), GRID[:2], mark)
    # A later invocation extends the finished sweep: resume cuts the
    # footer off before appending.
    _run_cells(SweepCheckpoint.resume(path, POLICY), GRID, mark)


def checkpoint_check(directory, acked, pending, live):
    path = directory / "sweep.jsonl"
    if path.exists():
        ckpt = SweepCheckpoint.resume(path, POLICY)
    elif acked:
        return f"journal gone after {len(acked)} acknowledged cells"
    else:
        ckpt = SweepCheckpoint.fresh(POLICY, path)
    resumed = [cell for cell in GRID if ckpt.done(cell)]
    if resumed != GRID[:len(resumed)] or len(resumed) < len(acked):
        return f"resumed {resumed} after acknowledging {acked}"
    _run_cells(ckpt, GRID)
    diff = diff_records(RunRecord.load(path),
                        RunRecord.load(live / "sweep.jsonl"))
    return None if diff["identical"] else f"diverged: {diff}"


CACHE_CAPACITY = 3
PUTS = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("d", 5), ("b", 6)]
PUTS_AFTER_RESTART = [("e", 7), ("a", 8)]


def _cache(directory):
    return ResultCache(CACHE_CAPACITY, compact_slack=2,
                       journal=CacheJournal(directory / "cache.jsonl"))


def cache_scenario(root, mark):
    for puts in (PUTS, PUTS_AFTER_RESTART):
        cache = _cache(root)  # the second pass is a restart
        for key, value in puts:
            cache.put((key,), value)
            mark((key, value))


def _lru(puts):
    live = OrderedDict()
    for key, value in puts:
        live[(key,)] = value
        live.move_to_end((key,))
        while len(live) > CACHE_CAPACITY:
            live.popitem(last=False)
    return list(live.items())


def cache_check(directory, acked, pending, live):
    restored = list(_cache(directory)._entries.items())
    allowed = [_lru(acked)]
    if pending is not None:
        allowed.append(_lru(acked + [pending]))
    if restored not in allowed:
        return f"restored {restored}, expected one of {allowed}"
    return None


def _governor(peak):
    gov = PeakHoldGovernor(budget=1000)
    gov.observe(peak)
    return gov


def governor_scenario(root, mark):
    store = GovernorStateStore(root / "gov.json")
    for policy_hash, peak in (("h1", 10.0), ("h2", 20.0), ("h1", 30.0)):
        store.save(policy_hash, _governor(peak))
        mark(_observe_governor(root))


def _observe_governor(directory):
    store = GovernorStateStore(directory / "gov.json")
    if not (directory / "gov.json").exists():
        return ABSENT
    return tuple((store.load(h) or {}).get("peak") for h in ("h1", "h2"))


def edgelist_scenario(root, mark):
    for graph in (nx.cycle_graph(6), nx.path_graph(9)):
        write_edgelist(graph, root / "g.edges")
        mark(_edges(graph))


def _edges(graph):
    return sorted(sorted(e) for e in graph.edges())


def _observe_edgelist(directory):
    path = directory / "g.edges"
    return _edges(read_edgelist(path)) if path.exists() else ABSENT


CONSUMERS = {
    "run-record": (record_scenario, register_check(_observe_record)),
    "sweep-checkpoint": (checkpoint_scenario, checkpoint_check),
    "result-cache": (cache_scenario, cache_check),
    "governor-sidecar": (governor_scenario, register_check(_observe_governor)),
    "edge-list": (edgelist_scenario, register_check(_observe_edgelist)),
}

#: Crash states enumerated per consumer under the correct primitive
#: (247 in all).  The result cache's first start finds no journal and
#: writes nothing: a restore compacts only when it dropped lines.
EXPECTED_STATES = {
    "run-record": 29,
    "sweep-checkpoint": 64,
    "result-cache": 82,
    "governor-sidecar": 43,
    "edge-list": 29,
}


def run_matrix(consumer, log, scratch):
    scenario, check = CONSUMERS[consumer]
    scenario(log.root, log.mark)
    return crash_matrix(log, check, scratch)


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_crash_state_recovers(consumer, oplog, tmp_path):
    count, violations = run_matrix(consumer, oplog, tmp_path)
    assert violations == []
    assert count == EXPECTED_STATES[consumer]


# -- the harness can fail: broken primitives are caught ----------------

def _in_place_write(path, text):
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        durable._write_all(fd, text.encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    return Path(path)


def _append_without_fsync(path, line):
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        durable._write_all(fd, (line + "\n").encode())
    finally:
        os.close(fd)
    durable._fsync_dir(Path(path).parent)


def _atomic_write_without_dir_fsync(path, text):
    out = Path(path)
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=f".{out.name}.tmp.")
    try:
        durable._write_all(fd, text.encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, out)
    return out


ALL = set(CONSUMERS)
JOURNALS = {"result-cache", "sweep-checkpoint"}


@pytest.mark.parametrize("attr, mutant, catchers", [
    ("atomic_write", _in_place_write, ALL),
    ("append_line", _append_without_fsync, JOURNALS),
    ("atomic_write", _atomic_write_without_dir_fsync, ALL),
], ids=["in-place-write", "append-without-fsync", "no-dir-fsync"])
def test_mutants_fail_the_matrix(attr, mutant, catchers, oplog, tmp_path,
                                 monkeypatch):
    monkeypatch.setattr(durable, attr, mutant)
    caught = set()
    for consumer in sorted(CONSUMERS):
        oplog.ops.clear()
        oplog.marks.clear()
        _, violations = run_matrix(consumer, oplog, tmp_path / consumer)
        if violations:
            caught.add(consumer)
    assert caught == catchers

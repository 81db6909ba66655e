"""A ``detect`` run's persisted record is pinned, lane by lane.

Each case runs ``repro detect --record`` and compares the record's policy
hash and a digest of its bytes with values taken before the two lanes
shared one round-schedule driver (``repro.congest.schedule``).  The
digest drops the fields that legitimately change between runs or
checkouts: the start/finish/wall-clock timestamps, the git SHA and the
platform stamp.  Everything else -- the policy, every event's decision,
rounds, bit totals and per-round trace -- must be byte-identical, so an
engine refactor that moves any persisted output fails here.

The ``triangle`` runs use the detector's own default bandwidth,
``B = ceil(log2 n) = 5`` bits (CONGEST's ``O(log n)``).

The amplified patterns (``c4``, ``odd-c5``) record one ``amplified``
event, which must also equal its ``--jobs 2`` twin's: ``jobs`` may
change wall-clock only.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.runtime import RunRecord, diff_records

_STAMPS = ("git_sha", "platform", "started_unix", "finished_unix", "wall_ms")
_FAULTS = "crash:3@2+7@5|drop:0.1"

POLICY_HASH = {
    ("object", None): "10f4d959b799",
    ("object", _FAULTS): "1afde8e1d1d7",
    ("vectorized", None): "032f5a84330c",
    ("vectorized", _FAULTS): "7654bd696cc7",
}

RECORD_DIGEST = {
    ("c4", "object", None): "fc4796b5ddee4efd",
    ("c4", "object", _FAULTS): "c7993676e8d29910",
    ("c4", "vectorized", None): "b3cb3fe69ea3d1d9",
    ("c4", "vectorized", _FAULTS): "b4ce02f05900ff77",
    ("odd-c5", "object", None): "325795eff16fc5e2",
    ("odd-c5", "object", _FAULTS): "99cd2d015024c084",
    ("odd-c5", "vectorized", None): "ec9523e5f5865b4e",
    ("odd-c5", "vectorized", _FAULTS): "7028500f2c102273",
    ("k4", "object", None): "3ce892ee241c55f3",
    ("k4", "object", _FAULTS): "2b50f9df46a7f789",
    ("k4", "vectorized", None): "943c337457ff02c5",
    ("k4", "vectorized", _FAULTS): "378493e1ae6a381f",
    ("triangle", "object", None): "9bf9ef1d3315516f",
    ("triangle", "object", _FAULTS): "14a0cfc087ca1d8c",
    ("triangle", "vectorized", None): "a9b1e7666bf05976",
    ("triangle", "vectorized", _FAULTS): "94642d4bef0af11a",
}


AMPLIFIED = ("c4", "odd-c5")


def _detect(pattern, policy, path, capsys, *extra):
    rc = main([
        "detect", "--pattern", pattern, "--graph", "gnp", "--n", "24",
        "--p", "0.2", "--seed", "3", "--policy", policy, "--record", str(path),
        *extra,
    ])
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize(
    "pattern, lane, faults",
    list(RECORD_DIGEST),
    ids=[f"{p}-{lane}-{'faults' if f else 'clean'}" for p, lane, f in RECORD_DIGEST],
)
def test_detect_record_is_unchanged(pattern, lane, faults, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    policy = f"lane={lane}" + (f",faults={faults}" if faults else "")
    _detect(pattern, policy, path, capsys)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["policy_hash"] == POLICY_HASH[(lane, faults)]
    for row in rows:
        for key in _STAMPS:
            row.pop(key, None)
    blob = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == RECORD_DIGEST[(pattern, lane, faults)]
    if pattern in AMPLIFIED:
        assert [e.kind for e in RunRecord.load(path).events] == ["amplified"]
        twin = tmp_path / "jobs2.jsonl"
        _detect(pattern, policy, twin, capsys, "--jobs", "2")
        diff = diff_records(RunRecord.load(path), RunRecord.load(twin))
        assert diff["num_events"] == [1, 1], diff
        assert diff["first_divergence"] is None, diff

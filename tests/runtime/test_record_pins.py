"""A ``detect`` run's persisted record is pinned, lane by lane.

Each case runs ``repro detect --record`` and compares the record's policy
hash and a digest of its bytes with values taken before the two lanes
shared one round-schedule driver (``repro.congest.schedule``).  The
digest drops the fields that legitimately change between runs or
checkouts: the start/finish/wall-clock timestamps, the git SHA and the
platform stamp.  Everything else -- the policy, every event's decision,
rounds, bit totals and per-round trace -- must be byte-identical, so an
engine refactor that moves any persisted output fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main

_STAMPS = ("git_sha", "platform", "started_unix", "finished_unix", "wall_ms")
_FAULTS = "crash:3@2+7@5|drop:0.1"

POLICY_HASH = {
    ("object", None): "10f4d959b799",
    ("object", _FAULTS): "1afde8e1d1d7",
    ("vectorized", None): "032f5a84330c",
    ("vectorized", _FAULTS): "7654bd696cc7",
}

RECORD_DIGEST = {
    ("c4", "object", None): "7ac536c24ea1f459",
    ("c4", "object", _FAULTS): "8305d98ba66c3b8e",
    ("c4", "vectorized", None): "80190b6916e0790b",
    ("c4", "vectorized", _FAULTS): "e8e9ae8bf5b98140",
    ("odd-c5", "object", None): "3a338bcfa37a88c5",
    ("odd-c5", "object", _FAULTS): "5cccbe935913e4b8",
    ("odd-c5", "vectorized", None): "44dddec40a6e5866",
    ("odd-c5", "vectorized", _FAULTS): "5e3099901eed5ce1",
    ("k4", "object", None): "3ce892ee241c55f3",
    ("k4", "object", _FAULTS): "2b50f9df46a7f789",
    ("k4", "vectorized", None): "943c337457ff02c5",
    ("k4", "vectorized", _FAULTS): "378493e1ae6a381f",
    ("triangle", "object", None): "387b9ec9a2b14bf3",
    ("triangle", "object", _FAULTS): "0fade5eb8078cd2b",
    ("triangle", "vectorized", None): "b74b0542af1af3c0",
    ("triangle", "vectorized", _FAULTS): "7066b0212593bf5b",
}


@pytest.mark.parametrize(
    "pattern, lane, faults",
    list(RECORD_DIGEST),
    ids=[f"{p}-{lane}-{'faults' if f else 'clean'}" for p, lane, f in RECORD_DIGEST],
)
def test_detect_record_is_unchanged(pattern, lane, faults, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    policy = f"lane={lane}" + (f",faults={faults}" if faults else "")
    rc = main([
        "detect", "--pattern", pattern, "--graph", "gnp", "--n", "24",
        "--p", "0.2", "--seed", "3", "--policy", policy, "--record", str(path),
    ])
    capsys.readouterr()
    assert rc == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["policy_hash"] == POLICY_HASH[(lane, faults)]
    for row in rows:
        for key in _STAMPS:
            row.pop(key, None)
    blob = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == RECORD_DIGEST[(pattern, lane, faults)]

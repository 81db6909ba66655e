#!/usr/bin/env bash
# CI / local verify gate: model-soundness lint, optional style/type
# checkers, then the tier-1 test suite.
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh --fast   # skip the pytest tier (lint gates only)
#
# ruff and mypy run only when installed (the reproduction container ships
# without them); `repro lint` and pytest are hard requirements.  Configs
# for all three live in pyproject.toml.

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
fail=0

step() {
    echo
    echo "== $1"
}

step "repro lint --deep (CONGEST model-soundness, rules L1-L8)"
python -m repro lint src/ --deep || fail=1

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    step "ruff (permissive baseline)"
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests benchmarks || fail=1
    else
        python -m ruff check src tests benchmarks || fail=1
    fi
else
    step "ruff: SKIP (not installed)"
fi

if python -c "import mypy" >/dev/null 2>&1; then
    step "mypy (permissive baseline; strict for repro.lint)"
    python -m mypy --config-file pyproject.toml || fail=1
else
    step "mypy: SKIP (not installed)"
fi

if [ "${1:-}" != "--fast" ]; then
    step "pytest (tier-1)"
    python -m pytest -x -q || fail=1

    # Time-budgeted bench smoke: one small vectorized-clique instance,
    # checked bit-exact against the object lane.  Catches perf-lane
    # regressions without paying for the full (slow) benchmark sweep.
    step "bench smoke (vectorized clique, 120s budget)"
    (
        cd benchmarks &&
        PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}" timeout 120 \
            python -m pytest -q -p no:cacheprovider \
            "bench_engine_fastpath.py::TestVectorizedCliqueLane::test_vectorized_clique_smoke"
    ) || fail=1

    # Time-budgeted wake-round differential: every hooked algorithm
    # against its wake_round = None twin (decisions, rounds, ledgers,
    # final contexts), the skip-size pin, and the sanitizer's audit of
    # lying hooks.
    step "wake-round fast-forward differential (120s budget)"
    timeout 120 python -m pytest -q -p no:cacheprovider \
        tests/congest/test_wake_round.py || fail=1

    # Time-budgeted scale smoke: one mid-size fused-vs-reference point
    # (n=16384, parity checked inline) so a fused-kernel or lazy-RNG
    # regression fails the gate without paying for the full scale sweep.
    step "bench smoke (fused kernel scale point, 120s budget)"
    (
        cd benchmarks &&
        PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}" timeout 120 \
            python -m pytest -q -p no:cacheprovider \
            "bench_scale.py::TestScaleSmoke::test_scale_smoke"
    ) || fail=1

    # Time-budgeted adaptive-amplification smoke: the differential suite
    # (adaptive outcomes bit-identical across jobs / chunking / faults)
    # plus the seeds-saved benchmark, which snapshots BENCH_amplify.json.
    step "adaptive amplification determinism (120s budget)"
    timeout 120 python -m pytest -q -p no:cacheprovider \
        "tests/congest/test_parallel_adaptive.py::TestDifferential" \
        "tests/congest/test_parallel_adaptive.py::TestPolicyDrivenDetection" \
        || fail=1
    step "bench smoke (adaptive amplification, 120s budget)"
    (
        cd benchmarks &&
        PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}" timeout 120 \
            python -m pytest -q -p no:cacheprovider bench_amplify.py
    ) || fail=1

    # Time-budgeted serve smoke: start the detection server in-process,
    # fire a mixed-policy burst over loopback TCP, and assert the two
    # serving invariants -- responses bit-identical to direct runs
    # (diff_records) and result-cache hits > 0 -- plus zero shm segments
    # surviving a SIGTERM mid-request.
    step "serve smoke (bit-identity + shutdown safety, 120s budget)"
    timeout 120 python -m pytest -q -p no:cacheprovider \
        "tests/serve/test_server.py::TestBitIdentity" \
        "tests/serve/test_server.py::TestStatsEndpoint" \
        "tests/serve/test_shutdown_safety.py" || fail=1
    step "bench smoke (serve load: 1000 requests, coalescing >= 2x, 240s budget)"
    (
        cd benchmarks &&
        PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}" timeout 240 \
            python -m pytest -q -p no:cacheprovider bench_serve.py
    ) || fail=1

    # Time-budgeted chaos smoke: the serving-plane recovery proofs --
    # the kill->restart->replay matrix (surviving chaos responses
    # bit-identical to fault-free runs, journal-warm restart) plus the
    # SIGKILL subprocess test (zero leaked shm, journal restores).
    step "chaos smoke (kill->restart->replay matrix, 180s budget)"
    timeout 180 python -m pytest -q -p no:cacheprovider \
        "tests/serve/test_chaos.py::TestKillRestartReplayMatrix" \
        "tests/serve/test_chaos.py::TestWorkerDeath" \
        "tests/serve/test_shutdown_safety.py::TestSigkillIsRecoverable" \
        || fail=1
    step "bench smoke (chaos matrix: availability under faults, 240s budget)"
    (
        cd benchmarks &&
        PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}" timeout 240 \
            python -m pytest -q -p no:cacheprovider bench_chaos.py
    ) || fail=1

    # Time-budgeted fault-matrix smoke: the cross-lane differential suite
    # (every fault spec must execute bit-identically on both lanes) plus
    # one end-to-end fault-sensitivity sweep through the CLI.  Catches
    # injector/lane drift without the full tier-1 pass.
    step "fault-matrix smoke (lane parity under faults, 120s budget)"
    timeout 120 python -m pytest -q -p no:cacheprovider \
        "tests/congest/test_faults.py::TestLaneParityUnderFaults" || fail=1
    step "e9 fault-sensitivity smoke (120s budget)"
    timeout 120 python -m repro experiment e9 > /dev/null || fail=1
fi

echo
if [ "$fail" -ne 0 ]; then
    echo "verify: FAILED"
else
    echo "verify: OK"
fi
exit "$fail"

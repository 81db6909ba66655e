#!/usr/bin/env bash
# Verify gate, run locally and in CI: model-soundness lint, optional
# style/type checkers, the numpy drift guard, the tier-1 test suite, and
# an end-to-end check that a sweep checkpoint resumes.
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh --fast   # skip the pytest tier (lint gates only)
#
# ruff and mypy run only when installed; `repro lint` and pytest are hard
# requirements.  Configs for all three live in pyproject.toml.  Each test
# runs once, inside tier-1; engine speed is measured by perfbench/ (see
# BENCHMARK.json), not here.

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
        ruff check src tests || fail=1
    else
        python -m ruff check src tests || fail=1
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
    # Time-budgeted numpy drift guard, ahead of every lane differential:
    # both lanes' per-node randomness (repro.congest.randomness) serves a
    # node's first draw from a re-implementation of numpy's SeedSequence
    # -> PCG64 -> bounded-draw chain, so a numpy release that changes any
    # of them must fail here, by name, rather than as a puzzling lane
    # mismatch further down.  The stream-parity property checks every
    # node's stream in both lanes against the eager default_rng recipe.
    step "numpy drift guard (first draw and node streams vs default_rng, 60s budget)"
    python -c "import numpy; print('numpy', numpy.__version__)"
    timeout 60 python -m pytest -q -p no:cacheprovider \
        "tests/congest/test_kernels.py::TestVectorizedFirstDraw" \
        "tests/congest/test_stream_parity.py::TestStreamParity" || {
        echo "numpy drift: LazyRngs' first draw or node streams no longer match" \
             "default_rng(seed) on this numpy; re-derive the mirror" \
             "from numpy's SeedSequence / PCG64 / Lemire bounded-draw sources"
        fail=1
    }

    step "pytest (tier-1)"
    python -m pytest -x -q || fail=1

    # The e9 fault-sensitivity sweep end to end through the CLI, twice on
    # one checkpoint: the second run must resume every completed cell.
    step "e9 sweep + checkpoint resume (120s budget each)"
    ckpt_dir="$(mktemp -d)"
    ckpt="$ckpt_dir/e9.jsonl"
    timeout 120 python -m repro experiment e9 --resume "$ckpt" > /dev/null &&
        timeout 120 python -m repro experiment e9 --resume "$ckpt" |
            grep "resuming: 72 completed cells" > /dev/null || {
        echo "e9 did not resume all 72 completed cells from $ckpt"
        fail=1
    }
    rm -rf "$ckpt_dir"
fi

echo
if [ "$fail" -ne 0 ]; then
    echo "verify: FAILED"
else
    echo "verify: OK"
fi
exit "$fail"

"""Deep-pass tests: the whole-program analyses flag every marked cheat
in ``fixtures_deep.py`` (and nothing else), the real repo stays clean
under ``--deep``, and -- the acceptance criterion for L7/L8 -- the
runtime sanitizer catches the same cheats under the same rule ids.

Expectations live in ``fixtures_deep.py`` as trailing ``# EXPECT-D[Lxx]``
markers, so assertions never pin line numbers.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import CongestNetwork, SanitizerViolation
from repro.congest.parallel import run_amplified
from repro.congest.sanitizer import check_pool_crossing
from repro.lint import ProjectModel, deep_findings, lint_paths
from repro.lint.callgraph import module_name_for_path

from tests.lint.fixtures_deep import MutableOutcome, UnorderedCheat

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES_DEEP = str(Path(__file__).parent / "fixtures_deep.py")

_MARKER = re.compile(r"#\s*EXPECT-D\[(?P<ids>[^\]]+)\]")


def _expected_markers(path: str):
    expected = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            m = _MARKER.search(text)
            if m is None:
                continue
            for rid in m.group("ids").split(","):
                rid = rid.strip()
                if re.fullmatch(r"L\d+", rid):
                    expected.append((lineno, rid))
    return sorted(expected)


def _project(path: str) -> ProjectModel:
    with open(path, "r", encoding="utf-8") as fh:
        return ProjectModel.build([(path, fh.read())])


class TestDeepFixtureCheatsAreFlagged:
    def test_every_marked_cheat_and_nothing_else(self):
        expected = _expected_markers(FIXTURES_DEEP)
        assert expected, "deep fixture file lost its EXPECT-D markers"
        found = sorted(
            (f.line, f.rule_id) for f in deep_findings(_project(FIXTURES_DEEP))
        )
        assert found == expected

    def test_include_filter_restricts_rule_families(self):
        found = {
            f.rule_id
            for f in deep_findings(_project(FIXTURES_DEEP), include=["L7", "L8"])
        }
        assert found == {"L7", "L8"}

    def test_symbols_name_the_offending_function(self):
        by_rule = {}
        for f in deep_findings(_project(FIXTURES_DEEP)):
            by_rule.setdefault(f.rule_id, set()).add(f.symbol)
        assert "_laundered_rng" in by_rule["L3"]
        assert "WrappedZeroBitCheat.round" in by_rule["L5"]
        assert "_tiebreak" in by_rule["L7"]
        assert "_pool_worker" in by_rule["L8"]


class TestCallGraphBasics:
    def test_module_name_from_package_layout(self):
        path = REPO_ROOT / "src" / "repro" / "lint" / "deep.py"
        assert module_name_for_path(str(path)) == "repro.lint.deep"

    def test_callback_closure_reaches_helpers(self):
        project = _project(FIXTURES_DEEP)
        closure = project.callback_closure()
        assert any(q.endswith("._tiebreak") for q in closure)
        assert any(q.endswith("UnorderedCheat.round") for q in closure)

    def test_pool_closure_contains_submitted_worker(self):
        project = _project(FIXTURES_DEEP)
        closure = project.pool_closure()
        assert any(q.endswith("._pool_worker") for q in closure)
        assert not any(q.endswith("._amplify_badly") for q in closure)


@pytest.fixture(scope="module")
def src_deep():
    """One deep report over ``src/`` and its wall time, shared by the
    tests that read it."""
    t0 = time.perf_counter()
    report = lint_paths([str(REPO_ROOT / "src")], deep=True)
    return report, time.perf_counter() - t0


class TestRepoIsDeepClean:
    def test_src_has_zero_unsuppressed_errors_deep(self, src_deep):
        """The acceptance criterion: `repro lint --deep src/` runs clean,
        within the 20 s budget that keeps it cheap enough to gate every
        change (the fixpoints are linear in resolved edges, so a blowup
        means the analysis went super-linear)."""
        report, elapsed = src_deep
        assert elapsed < 20.0, f"deep lint of src/ took {elapsed:.2f}s"
        assert report.files_checked > 50
        assert report.errors == [], report.render_text()

    def test_known_intentional_suppressions_are_reported(self, src_deep):
        """parallel.py's worker-local LRU carries noqa[L8]: suppressed
        findings stay visible in the report rather than vanishing."""
        report, _ = src_deep
        assert any(
            f.rule_id == "L8" and f.path.endswith("parallel.py")
            for f in report.suppressed
        )


class TestRuntimeAgreement:
    """Static finding and runtime SanitizerViolation share the rule id."""

    def test_set_payload_raises_l7_at_runtime(self):
        net = CongestNetwork(nx.cycle_graph(4), bandwidth=64)
        with pytest.raises(SanitizerViolation) as err:
            net.run(UnorderedCheat(), max_rounds=4, sanitize=True)
        assert err.value.rule_id == "L7"

    def test_set_payload_passes_unsanitized(self):
        """The cheat is invisible without the sanitizer -- that is what
        makes the static pass worth having."""
        net = CongestNetwork(nx.cycle_graph(4), bandwidth=64)
        net.run(UnorderedCheat(), max_rounds=4)

    def test_pool_crossing_guard_raises_l8(self):
        with pytest.raises(SanitizerViolation) as err:
            check_pool_crossing(MutableOutcome(), "algo_factory")
        assert err.value.rule_id == "L8"

    def test_pool_crossing_guard_looks_inside_containers(self):
        with pytest.raises(SanitizerViolation) as err:
            check_pool_crossing({"factory": MutableOutcome()}, "spec")
        assert err.value.rule_id == "L8"
        assert "spec['factory']" in err.value.detail

    def test_pool_crossing_guard_accepts_frozen_and_plain(self):
        @dataclass(frozen=True)
        class FrozenFactory:
            n: int = 3

        check_pool_crossing(FrozenFactory())
        check_pool_crossing(lambda t: None)
        check_pool_crossing((1, "a", None))

    def test_run_amplified_rejects_mutable_factory_with_l8(self):
        with pytest.raises(SanitizerViolation) as err:
            run_amplified(
                nx.cycle_graph(4),
                MutableOutcome(),  # stands in for a stateful factory
                iterations=2,
                bandwidth=16,
                max_rounds=4,
            )
        assert err.value.rule_id == "L8"

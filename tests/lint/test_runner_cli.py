"""Runner and CLI tests: discovery, the repo-wide cleanliness gate,
exit codes, and the machine-readable JSON report."""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import discover_files, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = str(Path(__file__).parent / "fixtures.py")


class TestDiscovery:
    def test_walk_finds_nested_files_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        found = discover_files([str(tmp_path)])
        assert found == [str(tmp_path / "pkg" / "a.py")]

    def test_explicit_file_and_deduplication(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        assert discover_files([str(f), str(tmp_path)]) == [str(f)]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            discover_files(["definitely/not/a/path"])


class TestRepoIsClean:
    def test_src_has_zero_unsuppressed_errors(self):
        """The acceptance criterion: `repro lint src/` runs clean.

        One walk covers all the Python code (the rules are per-file), so
        it also holds the gate's time budget: every file parsed once, all
        rules, under 10 s.  Only ``src/`` is gated for cleanliness --
        test harness code legitimately pins RNG seeds."""
        t0 = time.perf_counter()
        report = lint_paths([str(REPO_ROOT / d) for d in ("src", "tests")])
        elapsed = time.perf_counter() - t0
        assert report.files_checked > 100
        assert elapsed < 10.0, f"full-repo lint took {elapsed:.2f}s"
        src_root = str(REPO_ROOT / "src") + os.sep
        src_errors = [f for f in report.errors if f.path.startswith(src_root)]
        assert src_errors == [], "\n".join(f.format() for f in src_errors)
        # the deliberate cheats in fixtures.py must keep tripping the
        # linter: an accidentally pacified rule set would pass silently
        assert any(f.path == FIXTURES for f in report.errors)

    def test_fixture_file_fails_the_gate(self):
        report = lint_paths([FIXTURES])
        assert report.exit_code() == 1
        assert len(report.errors) >= 6


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src" / "repro" / "congest")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_lint_fixtures_exits_nonzero_with_rule_ids(self, capsys):
        rc = main(["lint", FIXTURES])
        out = capsys.readouterr().out
        assert rc == 1
        for rid in ("L1", "L2", "L3", "L4", "L5", "L6"):
            assert f" {rid}: " in out

    def test_json_report_round_trips(self, capsys):
        rc = main(["lint", FIXTURES, "--json", "--bandwidth", "16"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["files_checked"] == 1
        assert payload["errors"] == len(
            [f for f in payload["findings"] if not f["suppressed"]]
        )
        assert set(payload["rules"]) == {
            "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8",
        }
        flagged = {f["rule"] for f in payload["findings"]}
        assert {"L1", "L2", "L3", "L4", "L5", "L6"} <= flagged
        # the armed bandwidth check contributes the wide of_bits finding
        assert any(
            f["rule"] == "L5" and "exceeds" in f["message"]
            for f in payload["findings"]
        )

    def test_rule_subset_flag(self, capsys):
        rc = main(["lint", FIXTURES, "--rules", "L4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert {f["rule"] for f in payload["findings"]} == {"L4"}

    def test_bad_path_exits_two(self, capsys):
        rc = main(["lint", "definitely/not/a/path"])
        assert rc == 2

    def test_bad_rule_exits_two(self, capsys):
        rc = main(["lint", FIXTURES, "--rules", "L99"])
        assert rc == 2


class TestCrashRobustness:
    """A broken file must become a structured L0 finding (exit 2), not a
    crash, and the rest of the tree must still get linted."""

    def test_syntax_error_becomes_l0_and_linting_continues(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert report.exit_code() == 2
        [l0] = report.tool_failures
        assert l0.rule_id == "L0"
        assert l0.path.endswith("bad.py")
        assert "does not parse" in l0.message

    def test_unreadable_encoding_becomes_l0(self, tmp_path):
        (tmp_path / "junk.py").write_bytes(b"x = '\xff\xfe\x00'\n")
        report = lint_paths([str(tmp_path)])
        assert report.exit_code() == 2
        [l0] = report.tool_failures
        assert "not readable" in l0.message

    def test_cli_exits_two_on_bad_syntax(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def broken(:\n    pass\n")
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 2
        assert " L0: " in out


class TestDeepAndDiffFlags:
    def test_deep_flag_runs_clean_on_src(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src"), "--deep"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(deep)" in out

    @staticmethod
    def _git(repo, *argv):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=repo,
            check=True,
            capture_output=True,
        )

    def test_diff_restricts_findings_to_changed_files(
        self, tmp_path, monkeypatch, capsys
    ):
        """Findings in files untouched since BASE are filtered out; the
        same tree fails the gate without --diff."""
        cheat = (
            "class Cheat(Algorithm):\n"
            "    blackboard = {}\n"
            "    def round(self, node, inbox):\n"
            "        self.blackboard[node.id] = 1\n"
            "        return {}\n"
        )
        (tmp_path / "cheat.py").write_text(cheat)
        (tmp_path / "clean.py").write_text("x = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "base")
        (tmp_path / "clean.py").write_text("x = 1\ny = 2\n")
        monkeypatch.chdir(tmp_path)

        assert main(["lint", ".", "--diff", "HEAD"]) == 0
        assert "0 error(s)" in capsys.readouterr().out
        assert main(["lint", "."]) == 1

    def test_diff_bad_ref_exits_two(self, capsys):
        rc = main(["lint", FIXTURES, "--diff", "definitely-not-a-ref"])
        assert rc == 2

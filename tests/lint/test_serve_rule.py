"""Deep L8's serving-layer extension: no mutable module state in serve.

The static side flags mutable module-level bindings in files under a
``repro/serve/`` path (``tests/lint/fixture_serve/.../cheating_server.py``
carries the ``# EXPECT-D[L8]`` markers).  The design side is the real
:mod:`repro.serve` package actually holding every piece of mutable state
on the engine core or a server/controller instance, so the shipped
package lints clean under its own rule.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import ProjectModel, deep_findings

from .test_deep import _expected_markers, _project

SERVE_FIXTURE = str(
    Path(__file__).parent / "fixture_serve" / "repro" / "serve"
    / "cheating_server.py"
)


class TestServeModuleStateRule:
    def test_every_marked_cheat_and_nothing_else(self):
        expected = _expected_markers(SERVE_FIXTURE)
        assert expected, "serve fixture lost its EXPECT-D markers"
        assert {rid for _, rid in expected} == {"L8"}
        found = sorted(
            (f.line, f.rule_id) for f in deep_findings(_project(SERVE_FIXTURE))
        )
        assert found == expected

    def test_findings_anchor_to_the_module_not_a_function(self):
        for f in deep_findings(_project(SERVE_FIXTURE)):
            assert f.symbol == "<module>"
            assert "module scope" in f.message

    def test_same_source_outside_serve_path_is_clean(self, tmp_path):
        # The rule is scoped to the serving layer: the identical source
        # under a neutral path raises nothing (module-level registries
        # are legitimate elsewhere, e.g. the pool registry in parallel).
        neutral = tmp_path / "registry.py"
        neutral.write_text(Path(SERVE_FIXTURE).read_text())
        assert deep_findings(_project(str(neutral))) == []

    def test_include_filter_covers_the_extension(self):
        found = deep_findings(_project(SERVE_FIXTURE), include=["L8"])
        assert found
        assert deep_findings(_project(SERVE_FIXTURE), include=["L3"]) == []

    def test_real_serve_package_is_clean(self):
        import repro.serve as pkg

        files = []
        for path in sorted(Path(pkg.__file__).parent.glob("*.py")):
            files.append((str(path), path.read_text()))
        findings = deep_findings(ProjectModel.build(files))
        assert [f for f in findings if f.rule_id == "L8"] == []

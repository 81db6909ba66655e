"""Tests for the programmatic experiment runners."""

import pytest

from repro import experiments
from repro.experiments.common import ExperimentReport, FitCheck, format_table
from tests.test_paper_shapes import E1_NS, E4_BUDGETS, _run


class TestRegistry:
    def test_available_names(self):
        names = experiments.available()
        assert {"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"} <= set(names)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            experiments.run("e99")

    def test_case_insensitive(self):
        rep = experiments.run("E1", ns=[64, 128, 256, 512])
        assert isinstance(rep, ExperimentReport)


class TestRunnersReproduce:
    """Every runner must report 'reproduced'.  Where
    tests/test_paper_shapes.py already makes a runner call at the same or
    larger parameters, the case reads that call's cached report (``_run``)
    instead of running the runner a second time."""

    def test_e1(self):
        rep = _run("e1", k=2, ns=E1_NS)
        assert rep.reproduced
        assert rep.checks[0].fitted == pytest.approx(0.5, abs=0.12)

    def test_e1_k3(self):
        assert _run("e1", k=3, ns=E1_NS).reproduced

    def test_e2(self):
        assert _run("e2", k=2).reproduced

    def test_e2_live(self):
        rep = experiments.run("e2-live", k=2, n=4)
        assert rep.extras["result"].correct

    def test_e3(self):
        assert _run("e3").reproduced

    def test_e4_scaling(self):
        assert _run("e4-scaling").reproduced

    def test_e5(self):
        assert _run("e5", s=3).reproduced

    def test_e5_live(self):
        rep = experiments.run("e5-live", n=14)
        assert "BOUND VIOLATED" not in rep.notes

    def test_e6(self):
        assert _run("e6").reproduced

    def test_e6_live(self):
        assert _run("e6-live").reproduced

    def test_e7(self):
        assert _run("e7").reproduced

    @pytest.mark.slow
    def test_e4(self):
        assert _run("e4", budgets=E4_BUDGETS).reproduced

    @pytest.mark.slow
    def test_e8(self):
        assert _run("e8").reproduced

    def test_e9(self):
        rep = experiments.run(
            "e9", drop_rates=(0.0, 0.4), seeds=3, iterations=12
        )
        assert rep.reproduced
        assert rep.extras["c4_success"][0] == 1.0
        assert rep.extras["one_round_success"][0] == 1.0

    def test_e9_full_checkpoint_replay_matches(self, tmp_path):
        from repro.runtime import ExecutionPolicy, SweepCheckpoint

        policy = ExecutionPolicy()
        kwargs = dict(drop_rates=(0.0, 0.3), seeds=2, iterations=12)
        ck = SweepCheckpoint.fresh(policy, tmp_path / "e9.jsonl")
        first = experiments.run("e9", checkpoint=ck, **kwargs)
        ck.finish()
        journaled = ck.completed

        # Re-running over the finished journal replays every cell (no
        # fresh engine runs) and reproduces the same report rows.
        ck = SweepCheckpoint.resume(tmp_path / "e9.jsonl", policy)
        again = experiments.run("e9", checkpoint=ck, **kwargs)
        assert ck.completed == journaled
        assert again.rows == first.rows
        assert again.extras == first.extras


class TestReportFormatting:
    def test_format_report_contains_everything(self):
        rep = experiments.run("e1", ns=[128, 256, 512])
        text = rep.format_report()
        assert "E1" in text and "verdict" in text and "OK" in text

    def test_fitcheck_describe(self):
        ok = FitCheck("x", 1.0, 1.05, 0.99, 0.1)
        assert ok.matches and "OK" in ok.describe()
        bad = FitCheck("x", 1.0, 1.5, 0.99, 0.1)
        assert not bad.matches and "OFF" in bad.describe()

    def test_low_r2_fails(self):
        noisy = FitCheck("x", 1.0, 1.0, 0.5, 0.1)
        assert not noisy.matches

    def test_format_table_alignment(self):
        t = format_table(["a", "bb"], [(1, 2), (33, 4)])
        lines = t.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")


class TestConstructionRunner:
    def test_f_runner_reproduces(self):
        rep = experiments.run("f", ks=[1, 2], gkn_params=[(2, 4)],
                              template_samples=800)
        assert rep.reproduced
        assert any("F3" in str(r[0]) for r in rep.rows)

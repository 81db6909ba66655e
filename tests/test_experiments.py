"""Tests for the programmatic experiment runners."""

import pytest

from repro import experiments
from repro.experiments.common import ExperimentReport, FitCheck, format_table


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
    """Every runner, at reduced parameters, must still report 'reproduced'.
    (The full-size sweeps are tests/test_paper_shapes.py.)"""

    def test_e1(self):
        rep = experiments.run("e1", k=2, ns=[2**i for i in range(7, 13)])
        assert rep.reproduced
        assert rep.checks[0].fitted == pytest.approx(0.5, abs=0.12)

    def test_e1_k3(self):
        rep = experiments.run("e1", k=3, ns=[2**i for i in range(7, 13)])
        assert rep.reproduced

    def test_e2(self):
        rep = experiments.run("e2", k=2, ns=[2**i for i in range(6, 12)])
        assert rep.reproduced

    def test_e2_live(self):
        rep = experiments.run("e2-live", k=2, n=4)
        assert rep.extras["result"].correct

    def test_e3(self):
        rep = experiments.run("e3", ns_per_part=[4, 8], max_bits=5)
        assert rep.reproduced

    def test_e4_scaling(self):
        rep = experiments.run("e4-scaling")
        assert rep.reproduced

    def test_e5(self):
        rep = experiments.run("e5", s=3)
        assert rep.reproduced

    def test_e5_live(self):
        rep = experiments.run("e5-live", n=14)
        assert "BOUND VIOLATED" not in rep.notes

    def test_e6(self):
        rep = experiments.run("e6")
        assert rep.reproduced

    def test_e6_live(self):
        rep = experiments.run("e6-live", pad_sizes=[0, 40])
        assert rep.reproduced

    def test_e7(self):
        rep = experiments.run("e7")
        assert rep.reproduced

    @pytest.mark.slow
    def test_e4(self):
        rep = experiments.run("e4", n=8, num_samples=400, num_worlds=3)
        assert rep.reproduced

    @pytest.mark.slow
    def test_e8(self):
        rep = experiments.run("e8")
        assert rep.reproduced

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

"""Tests for the command-line interface and edge-list I/O."""

import pathlib
import subprocess
import sys

import networkx as nx
import pytest

from repro.cli import main
from repro.congest import BandwidthExceeded
from repro.core import detect_cycle_linear, detect_even_cycle, detect_tree
from repro.graphs import generators as gen
from repro.graphs.io import read_edgelist, write_edgelist


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path):
        g = gen.erdos_renyi(15, 0.3, __import__("numpy").random.default_rng(0))
        g.add_node(99)  # isolated vertex must survive
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        back = read_edgelist(path)
        assert set(back.nodes()) == set(g.nodes())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges()))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n1 2\n2 3  # inline\n7\n")
        g = read_edgelist(path)
        assert g.has_edge(1, 2) and g.has_edge(2, 3)
        assert 7 in g.nodes()
        assert g.number_of_edges() == 2

    def test_string_labels(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("alice bob\n")
        g = read_edgelist(path)
        assert g.has_edge("alice", "bob")

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 1\n")
        with pytest.raises(ValueError):
            read_edgelist(path)

    def test_bad_arity_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_edgelist(path)

    def test_unserializable_label(self, tmp_path):
        g = nx.Graph()
        g.add_node("has space")
        with pytest.raises(ValueError):
            write_edgelist(g, tmp_path / "g.edges")


class TestCLICommands:
    def test_detect_triangle(self, capsys):
        rc = main(["detect", "--pattern", "triangle", "--graph", "grid",
                   "--rows", "3", "--cols", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "triangle detected: False" in out

    def test_detect_even_cycle(self, capsys):
        rc = main(["detect", "--pattern", "c4", "--graph", "grid",
                   "--rows", "4", "--cols", "4", "--iterations", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C_4 detected: True" in out

    def test_detect_clique(self, capsys):
        rc = main(["detect", "--pattern", "k3", "--graph", "cycle", "--length", "9"])
        assert rc == 0
        assert "K_3 detected: False" in capsys.readouterr().out

    def test_detect_tree(self, capsys):
        rc = main(["detect", "--pattern", "path3", "--graph", "cycle",
                   "--length", "8", "--iterations", "60"])
        assert rc == 0
        assert "P_3 detected: True" in capsys.readouterr().out

    def test_detect_odd_cycle(self, capsys):
        # Success per coloring iteration is ~10/5^5, so give it room.
        rc = main(["detect", "--pattern", "odd-c5", "--graph", "cycle",
                   "--length", "5", "--iterations", "2500"])
        assert rc == 0
        assert "C_5 detected: True" in capsys.readouterr().out

    def test_detect_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        write_edgelist(nx.complete_graph(4), path)
        rc = main(["detect", "--pattern", "triangle", "--graph", "file",
                   "--path", str(path)])
        assert rc == 0
        assert "triangle detected: True" in capsys.readouterr().out

    def test_detect_bad_pattern(self, capsys):
        assert main(["detect", "--pattern", "c5", "--graph", "cycle"]) == 2
        assert capsys.readouterr().err.startswith("repro: ")

    @pytest.mark.parametrize("pattern, detector", [
        ("odd-c5", lambda g: detect_cycle_linear(g, 5, 3, bandwidth=1)),
        ("c4", lambda g: detect_even_cycle(g, 2, 3, bandwidth=1)),
        ("path3", lambda g: detect_tree(g, gen.path(3), 3, bandwidth=1)),
    ])
    def test_detect_bandwidth_fails_like_the_library(self, pattern, detector,
                                                     capsys):
        # --bandwidth reaches every detector: too small a B fails with the
        # library's BandwidthExceeded instead of running at the default,
        # reported as a one-line usage error.
        with pytest.raises(BandwidthExceeded) as lib:
            detector(gen.cycle(8))
        rc = main(["detect", "--pattern", pattern, "--graph", "cycle",
                   "--length", "8", "--iterations", "3", "--bandwidth", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"repro: BandwidthExceeded: {lib.value}\n"

    @pytest.mark.parametrize("argv, error", [
        (["--pattern", "odd-c5", "--bandwidth", "1"], "BandwidthExceeded"),
        (["--pattern", "triangle", "--bandwidth", "2"], "ValueError"),
    ], ids=["odd-c5-B1", "triangle-B2"])
    def test_detector_input_error_exits_2_without_traceback(self, argv, error):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "detect", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"repro: {error}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "detected" not in proc.stdout

    def test_serve_governor_state_without_budget_exits_2(self, tmp_path):
        # A subprocess, so a server that starts anyway fails on the
        # timeout instead of serving forever.
        state = tmp_path / "governor.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--governor-state", str(state)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "governor_budget" in proc.stderr
        assert not state.exists()

    @pytest.mark.parametrize("flag", [
        "--submit-retries", "--breaker-threshold",
        "--breaker-backoff-base", "--breaker-backoff-cap",
        "--governor-budget", "--governor-decay",
    ])
    def test_removed_serve_flags_exit_2(self, flag):
        # Pool failures have one ladder, in run_amplified; the server's
        # own retry knobs are gone and must fail loudly.  So are the
        # governor flags: the base policy's governor_budget /
        # governor_decay (--policy) build the one shared governor.
        with pytest.raises(SystemExit) as err:
            main(["serve", "--port", "0", flag, "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["detect", "--pattern", "c5", "--graph", "cycle"],
        ["detect", "--pattern", "k3", "--policy", "bogus=1"],
        ["detect", "--pattern", "k3", "--graph", "file"],
        ["experiment", "e1-live", "--resume", "{resume}"],
        ["serve", "--port", "0", "--policy", "bogus=1"],
        ["policy", "hash", "bogus=1"],
        ["serve", "--port", "0", "--chaos", "x"],
    ], ids=["bad-pattern", "bad-policy", "file-without-path",
            "bad-resume", "serve-bad-policy", "policy-hash-bad-spec",
            "serve-chaos"])
    def test_usage_errors_exit_2_with_one_stderr_line(self, argv, tmp_path):
        # A journal with a bad first line cannot be resumed.
        resume = tmp_path / "not-a-record.jsonl"
        resume.write_text("not json\n")
        argv = [a.format(resume=resume) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        if argv[-2] != "--chaos":  # argparse prints usage plus one line
            assert proc.stderr.startswith("repro: ")
            assert proc.stderr.count("\n") == 1

    def test_construct_hk(self, capsys, tmp_path):
        out_file = tmp_path / "hk.edges"
        rc = main(["construct", "--which", "hk", "--k", "2", "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "H_2: 56 vertices" in out
        g = read_edgelist(out_file)
        assert g.number_of_nodes() == 56

    def test_construct_template(self, capsys):
        rc = main(["construct", "--which", "template", "--n", "7"])
        assert rc == 0
        assert "24 vertices" in capsys.readouterr().out

    def test_construct_bipartite(self, capsys):
        rc = main(["construct", "--which", "bipartite", "--s", "2", "--k", "2",
                   "--n", "3"])
        assert rc == 0
        assert "bipartite=True" in capsys.readouterr().out

    def test_reduce_correct(self, capsys):
        rc = main(["reduce", "--k", "2", "--n", "4", "--density", "0.3"])
        assert rc == 0
        assert "correct=True" in capsys.readouterr().out

    def test_fool_truncated(self, capsys):
        rc = main(["fool", "--bits", "1", "--n-per-part", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fooled: True" in out

    def test_fool_full_id(self, capsys):
        rc = main(["fool", "--family", "full", "--n-per-part", "6"])
        assert rc == 0
        assert "fooled: False" in capsys.readouterr().out

    def test_bounds(self, capsys):
        rc = main(["bounds", "--n", "1024", "--k", "2", "--s", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Thm 1.1" in out and "Thm 1.2" in out and "listing K_3" in out


class TestCLIPolicyAndRecord:
    def test_detect_with_policy_spec(self, capsys):
        rc = main(["detect", "--pattern", "k3", "--graph", "cycle",
                   "--length", "9", "--policy", "lane=vectorized,metrics=lite"])
        assert rc == 0
        assert "K_3 detected: False" in capsys.readouterr().out

    def test_policy_spec_matches_flags(self, capsys):
        """--policy "lane=vectorized" and --lane vectorized are the same run."""
        rc = main(["detect", "--pattern", "k3", "--graph", "gnp", "--n", "30",
                   "--p", "0.2", "--seed", "5", "--lane", "vectorized"])
        via_flags = capsys.readouterr().out
        assert rc == 0
        rc = main(["detect", "--pattern", "k3", "--graph", "gnp", "--n", "30",
                   "--p", "0.2", "--seed", "5", "--policy", "lane=vectorized"])
        via_spec = capsys.readouterr().out
        assert rc == 0
        assert via_flags == via_spec

    def test_bad_policy_spec_exits(self, capsys):
        assert main(["detect", "--pattern", "k3", "--graph", "cycle",
                     "--length", "6", "--policy", "warp=9"]) == 2
        assert "bad execution policy" in capsys.readouterr().err

    def test_illegal_policy_combo_exits(self, capsys):
        assert main(["detect", "--pattern", "k3", "--graph", "cycle",
                     "--length", "6",
                     "--policy", "sanitize=true,metrics=lite"]) == 2
        assert "bad execution policy" in capsys.readouterr().err

    def test_detect_record_roundtrips(self, capsys, tmp_path):
        from repro.runtime import RunRecord

        path = tmp_path / "run.jsonl"
        rc = main(["detect", "--pattern", "k3", "--graph", "cycle",
                   "--length", "9", "--seed", "3",
                   "--policy", "metrics=lite", "--record", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"run record: {path}" in out

        rec = RunRecord.load(path)
        assert rec.policy["metrics"] == "lite"
        assert rec.policy["seed"] == 3
        assert len(rec.events) >= 1
        assert rec.events[0].kind in ("run", "amplified")
        assert rec.events[0].decision is not None

    def test_experiment_record(self, capsys, tmp_path):
        from repro.runtime import RunRecord

        path = tmp_path / "e3.jsonl"
        rc = main(["experiment", "e3", "--record", str(path)])
        assert rc == 0
        rec = RunRecord.load(path)
        assert any(e.kind == "note" for e in rec.events)


class TestCLIFaultsAndResume:
    def test_detect_faults_total_loss_blinds_the_detector(self, capsys):
        args = ["detect", "--pattern", "k4", "--graph", "gnp", "--n", "24",
                "--p", "0.4", "--seed", "0"]
        rc = main(args)
        assert rc == 0
        assert "K_4 detected: True" in capsys.readouterr().out
        rc = main(args + ["--faults", "drop:1.0"])
        assert rc == 0
        assert "K_4 detected: False" in capsys.readouterr().out

    def test_faults_flag_matches_policy_spec(self, capsys):
        """--faults SPEC and --policy "faults=SPEC" are the same run."""
        base = ["detect", "--pattern", "k3", "--graph", "gnp", "--n", "20",
                "--p", "0.3", "--seed", "2"]
        rc = main(base + ["--faults", "drop:0.4|seed:9"])
        via_flag = capsys.readouterr().out
        assert rc == 0
        rc = main(base + ["--policy", "faults=drop:0.4|seed:9"])
        via_policy = capsys.readouterr().out
        assert rc == 0
        assert via_flag == via_policy

    def test_bad_fault_spec_exits(self, capsys):
        assert main(["detect", "--pattern", "k3", "--graph", "cycle",
                     "--length", "6", "--faults", "jam:0.5"]) == 2
        assert "bad execution policy" in capsys.readouterr().err

    def test_experiment_resume_journals_and_replays(self, capsys, tmp_path):
        from repro.runtime import RunRecord

        path = tmp_path / "e1.jsonl"
        rc = main(["experiment", "e1-live", "--resume", str(path)])
        first = capsys.readouterr().out
        assert rc == 0
        assert f"checkpoint journal: {path}" in first
        rec = RunRecord.load(path)
        cells = [e for e in rec.events if e.extra and "cell" in e.extra]
        assert len(cells) == 4  # one per n in the default sweep
        assert rec.finished_unix is not None

        # Resuming over the finished journal replays every cell: same
        # report, no new engine events.
        rc = main(["experiment", "e1-live", "--resume", str(path)])
        second = capsys.readouterr().out
        assert rc == 0
        assert f"resuming: {len(cells)} completed cells" in second
        again = RunRecord.load(path)
        assert len(again.events) == len(rec.events)

    def test_resume_policy_mismatch_exits(self, tmp_path, capsys):
        path = tmp_path / "e1.jsonl"
        assert main(["experiment", "e1-live", "--resume", str(path)]) == 0
        capsys.readouterr()
        assert main(["experiment", "e1-live", "--policy", "metrics=lite",
                     "--resume", str(path)]) == 2
        assert "cannot resume" in capsys.readouterr().err


class TestCLICache:
    def test_stats_table(self, capsys):
        rc = main(["cache", "stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "construction" in out and "hits" in out

    def test_stats_json(self, capsys):
        import json

        from repro.graphs.cache import cached_hk

        cached_hk(2)
        rc = main(["cache", "stats", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert any(v["currsize"] > 0 for v in data.values())

    def test_clear(self, capsys):
        from repro.graphs.cache import cache_stats, cached_hk

        cached_hk(2)
        rc = main(["cache", "clear"])
        assert rc == 0
        assert "cleared" in capsys.readouterr().out.lower()
        assert all(v["currsize"] == 0 for v in cache_stats().values())

    def test_default_action_is_stats(self, capsys):
        rc = main(["cache"])
        assert rc == 0
        assert "construction" in capsys.readouterr().out


@pytest.mark.slow
def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bounds", "--n", "256"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "paper bounds" in proc.stdout

"""Tests for the command-line interfaces (repro-optimize, bench report)."""

import pytest

from repro.bench.report import main as report_main
from repro.cli import main as cli_main


class TestOptimizeCli:
    def test_shape_run(self, capsys):
        assert cli_main(["--shape", "chain", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "tdmincutbranch" in out
        assert "cost=" in out

    def test_explicit_edges(self, capsys):
        code = cli_main(
            [
                "--edges", "0-1,1-2,2-0",
                "--cards", "100,2000,50",
                "--sels", "0-1:0.1,1-2:0.05,2-0:0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "joins=2" in out

    def test_explicit_edges_default_sels(self, capsys):
        assert cli_main(["--edges", "0-1,1-2", "--cards", "10,20,30"]) == 0

    def test_compare_mode(self, capsys):
        assert cli_main(["--shape", "cycle", "--n", "5", "--compare"]) == 0
        out = capsys.readouterr().out
        for name in ("dpccp", "tdmincutbranch", "tdmincutlazy", "dpsub"):
            assert name in out

    def test_algorithm_choice(self, capsys):
        assert cli_main(["--shape", "star", "--n", "5", "--algorithm", "dpccp"]) == 0
        assert "dpccp" in capsys.readouterr().out

    def test_pruning_flag(self, capsys):
        assert cli_main(["--shape", "star", "--n", "6", "--pruning"]) == 0

    def test_physical_cost_model(self, capsys):
        assert cli_main(
            ["--shape", "chain", "--n", "4", "--cost-model", "physical"]
        ) == 0
        out = capsys.readouterr().out
        assert any(op in out for op in ("hash", "nestedloop", "sortmerge"))

    def test_random_shapes(self, capsys):
        assert cli_main(["--shape", "acyclic", "--n", "6"]) == 0
        assert cli_main(["--shape", "cyclic", "--n", "6"]) == 0

    def test_error_reported_cleanly(self, capsys):
        # Clique of 2 relations is fine; a bad edge spec is not.
        code = cli_main(["--edges", "0-1", "--cards", "10"])  # card count wrong
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeStatsCli:
    def test_basic_run(self, capsys):
        code = cli_main(
            ["serve-stats", "--shape", "chain", "--n", "5", "--count", "3",
             "--repeat", "2", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache:" in out
        assert "hits=" in out and "evictions=" in out
        assert "p95=" in out

    def test_json_snapshot(self, capsys):
        import json

        code = cli_main(
            ["serve-stats", "--shape", "star", "--n", "5", "--count", "2",
             "--repeat", "3", "--json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["totals"]["requests"] == 6
        assert snapshot["cache"]["misses"] == 2
        assert snapshot["cache"]["hits"] == 4
        algorithms = snapshot["algorithms"]
        assert all("p99_ms" in a["latency"] for a in algorithms.values())

    def test_cache_persistence_flags(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        assert cli_main(
            ["serve-stats", "--shape", "chain", "--n", "4", "--count", "2",
             "--repeat", "1", "--save-cache", str(path)]
        ) == 0
        assert path.exists()
        assert cli_main(
            ["serve-stats", "--shape", "chain", "--n", "4", "--count", "2",
             "--repeat", "1", "--load-cache", str(path), "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        import json

        snapshot = json.loads(payload)
        # Same seed regenerates the same queries: all hits after warmup.
        assert snapshot["cache"]["hits"] == 2
        assert snapshot["cache"]["misses"] == 0

    def test_unknown_algorithm_reports_error(self, capsys):
        code = cli_main(
            ["serve-stats", "--shape", "chain", "--n", "4", "--count", "1",
             "--algorithm", "nope"]
        )
        assert code == 0  # batch isolates the failure per item
        assert "failed queries" in capsys.readouterr().err


class TestReportCli:
    def test_list(self, capsys):
        assert report_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig09", "table5", "ablation_pruning"):
            assert name in out

    def test_single_experiment(self, capsys, tmp_path):
        output = tmp_path / "results.txt"
        assert report_main(
            ["-e", "ablation_mcl_reuse", "-o", str(output)]
        ) == 0
        assert "ablation_mcl_reuse" in output.read_text()

    def test_requires_selection(self):
        with pytest.raises(SystemExit):
            report_main([])

    def test_update_refuses_a_document_without_the_marker(self, tmp_path, capsys):
        document = tmp_path / "notes.md"
        document.write_text("# Hand-written notes\n")
        assert report_main(["-e", "ablation_mcl_reuse", "--update", str(document)]) == 1
        assert document.read_text() == "# Hand-written notes\n"
        assert "marker" in capsys.readouterr().err

    def test_update_keeps_the_hand_written_head(self, tmp_path):
        from repro.bench.report import MARKER

        document = tmp_path / "EXPERIMENTS.md"
        document.write_text(f"# Notes\nkeep me\n{MARKER}\nstale results\n")
        assert report_main(["-e", "ablation_mcl_reuse", "--update", str(document)]) == 0
        text = document.read_text()
        assert text.startswith(f"# Notes\nkeep me\n{MARKER}")
        assert "stale results" not in text and "ablation_mcl_reuse" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            report_main(["-e", "fig99"])


class TestExplainCli:
    def test_explain_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--shape", "cycle", "--n", "5", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "search space:" in out
        assert "plan:" in out
        assert "ccps_emitted" in out

    def test_explain_with_pruning(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(
            ["--shape", "star", "--n", "5", "--explain", "--pruning"]
        ) == 0
        assert "branch-and-bound" in capsys.readouterr().out


class TestWorkloadCli:
    def test_tpch_workload(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--workload", "tpch:q5"]) == 0
        assert "joins=5" in capsys.readouterr().out

    def test_ssb_workload_with_scale(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(
            ["--workload", "ssb:q4.1", "--scale-factor", "0.01"]
        ) == 0

    def test_job_workload_compare(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--workload", "job:j8", "--compare"]) == 0
        assert "dpccp" in capsys.readouterr().out

    def test_unknown_family(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--workload", "imdb:q1"]) == 1
        assert "unknown workload family" in capsys.readouterr().err

    def test_missing_query_name(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--workload", "tpch"]) == 1

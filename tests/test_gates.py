"""The benchmark gate core and table, with fake legs and no real timing."""

import collections
import itertools
import json
import pathlib
import re

import pytest

from repro.bench.gate import Case, Gate, run_gate, run_gates
from repro.bench.timing import Sample

from benchmarks.gates import GATES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def leg(*seconds):
    """A leg that reports the given seconds in turn, without sleeping."""
    samples = itertools.cycle(seconds)
    return lambda: Sample(next(samples), "answer")


def gate(case, **fields):
    return Gate("fake", "fake gate", lambda: [case], **fields)


class TestCore:
    def test_speedup_floor(self):
        case = Case("2x", baseline=leg(2.0), candidate=leg(1.0), repeat=3)
        passed = run_gate(gate(case, floor=1.5))
        assert passed["failures"] == [] and passed["shapes"][0]["value"] == 2.0
        assert run_gate(gate(case, floor=3.0))["failures"]

    def test_ceiling_on_ratio_and_strict_bound(self):
        case = Case("half", baseline=leg(2.0), candidate=leg(1.0))
        assert run_gate(gate(case, ceiling=0.5))["failures"] == []
        assert run_gate(gate(case, ceiling=0.5, strict=True))["failures"]

    def test_noisy_control_probe_skips_with_notice(self):
        case = Case("noisy", baseline=leg(1.0, 1.2), candidate=leg(2.0), repeat=3)
        report = run_gate(
            gate(case, ceiling=1.01, median=True, noise_ceiling=0.005)
        )
        assert report["failures"] == []
        assert "control" in report["skipped"][0]

    def test_quiet_control_probe_lets_a_breach_fail(self):
        case = Case("quiet", baseline=leg(1.0), candidate=leg(2.0), repeat=3)
        report = run_gate(
            gate(case, ceiling=1.01, median=True, noise_ceiling=0.005)
        )
        assert report["failures"] and report["skipped"] == []

    def test_parity_mismatch_fails_a_fast_candidate(self):
        case = Case(
            "wrong",
            baseline=leg(2.0),
            candidate=leg(1.0),
            parity=lambda base, cand: ["plans differ"],
        )
        assert run_gate(gate(case, floor=1.5))["failures"] == ["wrong: plans differ"]

    def test_broken_leg_fails_the_gate(self):
        def broken():
            raise RuntimeError("boom")

        case = Case("broken", baseline=leg(1.0), candidate=broken)
        failures = run_gate(gate(case, floor=1.5))["failures"]
        assert failures == ["broken: RuntimeError: boom"]

    def test_geomean_over_gated_cases_only(self):
        cases = [
            Case("4x", baseline=leg(4.0), candidate=leg(1.0)),
            Case("1x", baseline=leg(1.0), candidate=leg(1.0)),
            Case("ungated", baseline=leg(1.0), candidate=leg(9.0), gated=False),
        ]
        report = run_gate(Gate("g", "g", lambda: cases, floor=1.9, geomean=True))
        assert report["geomean"] == pytest.approx(2.0)
        assert report["failures"] == []

    def test_waivers(self):
        slow = Case("slow", baseline=leg(1.0), candidate=leg(3.0))
        assert run_gate(gate(slow, floor=1.5, min_cores=10**6))["skipped"]
        within = Case("late", candidate=leg(0.2))
        report = run_gate(gate(within, ceiling=0.07, slack=4.0))
        assert report["skipped"] and report["failures"] == []
        beyond = Case("stuck", candidate=leg(0.3))
        assert run_gate(gate(beyond, ceiling=0.07, slack=4.0))["failures"]

    def test_deadline_and_host_skips(self):
        case = Case("huge", baseline=leg(500.0), candidate=leg(1.0), deadline=120.0)
        report = run_gate(gate(case, floor=1.5))
        assert report["skipped"] and report["shapes"] == []
        report = run_gate(gate(Case("x", candidate=leg(1.0)), skip=lambda: "no kernel"))
        assert report["skipped"] == ["no kernel"] and report["failures"] == []

    def test_best_statistic_uses_unequal_run_counts(self):
        calls = []

        def cold():
            calls.append("cold")
            return Sample(10.0)

        def warm():
            calls.append("warm")
            return Sample(1.0)

        case = Case("cache", baseline=cold, candidate=warm, baseline_repeat=1, repeat=4)
        run_gate(gate(case, floor=5.0, warmup=False))
        assert calls == ["cold", "warm", "warm", "warm", "warm"]

    def test_run_gates_writes_one_report_per_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        table = [
            gate(Case("ok", baseline=leg(2.0), candidate=leg(1.0)), floor=1.5),
            gate(Case("bad", baseline=leg(1.0), candidate=leg(1.0)), floor=1.5),
        ]
        assert run_gates(table, ["fake"]) == 1
        report = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert len(report["rows"]) == 2
        assert report["failures"] == ["bad: 1 is below the 1.5 floor"]
        assert "environment" in report
        assert run_gates(table, ["nope"]) == 2


class TestTable:
    def test_every_bench_target_names_a_row(self):
        makefile = (ROOT / "Makefile").read_text()
        targets = re.findall(
            r"^bench-[\w-]+:\n\t\$\(PYTHON\) benchmarks/gates\.py (\w+)$",
            makefile,
            re.MULTILINE,
        )
        declared = re.findall(r"^(bench-[\w-]+):", makefile, re.MULTILINE)
        assert len(targets) == len(declared) == 9
        assert set(targets) == {row.name for row in GATES}

    def test_thresholds(self):
        # A multiset: two rows with the same bounds are pinned as two.
        bounds = collections.Counter(
            (row.name, row.floor, row.ceiling, row.strict, row.geomean, row.median)
            for row in GATES
        )
        assert bounds == collections.Counter([
            ("service", 10.0, None, False, False, False),
            ("batch", 1.5, None, False, False, False),
            ("resilience", None, 0.10, True, False, False),
            ("observability", None, 1.05, True, False, False),
            ("kernel", 1.3, None, False, True, False),
            ("kernel", None, None, False, False, False),
            ("dpconv", 1.5, None, False, False, False),
            ("native", 5.0, None, False, True, False),
            ("native", 10.0, None, False, True, False),  # native_topdown
            ("native", 10.0, None, False, True, False),  # ..._physical
            ("native", None, 1.01, False, True, True),
            ("anytime", None, 0.070, False, False, False),
            ("anytime", None, 1.01, False, True, True),
            ("frontdoor", None, 0.250, False, False, False),
            ("frontdoor", 2.0, None, False, False, False),
        ])
        assert [
            row.title.split(":")[0]
            for row in GATES
            if row.name == "native" and row.floor == 10.0
        ] == ["native_topdown", "native_topdown_physical"]
        waivers = {
            (row.name, row.min_cores, row.noise_ceiling, row.slack)
            for row in GATES
            if row.min_cores > 1 or row.noise_ceiling or row.slack
        }
        assert waivers == {
            ("batch", 2, None, None),
            ("frontdoor", 4, None, None),
            ("anytime", 1, 0.005, None),
            ("native", 1, 0.005, None),
            ("anytime", 1, None, 4.0),
        }


class TestBenchOutputPath:
    def test_defaults_to_cwd(self, tmp_path, monkeypatch):
        from repro.bench.report import bench_output_path

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert bench_output_path("frontdoor") == str(
            tmp_path / "BENCH_frontdoor.json"
        )
        assert bench_output_path("BENCH_kernel.json") == str(
            tmp_path / "BENCH_kernel.json"
        )

    def test_env_var_overrides(self, tmp_path, monkeypatch):
        from repro.bench.report import bench_output_path

        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert bench_output_path("dpconv") == str(
            tmp_path / "BENCH_dpconv.json"
        )

"""Self-tests of the end-to-end benchmark harness.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e`` (the suite is not part of the tier-1 ``tests`` run).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

import pytest

import gen
import oracle
import run
from common import (
    HERE,
    MIN_ROUNDS,
    ROOT,
    RUNS,
    best_per_key,
    child_env,
    percentile,
    read_json,
    write_json,
)
from serve_load import Server, best_latencies, group_members

RUN_PY = os.path.join(HERE, "run.py")


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, RUN_PY, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_prints_every_declared_metric():
    started = time.perf_counter()
    out = _run("--smoke")
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert elapsed < 60, f"--smoke took {elapsed:.1f}s"
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    for workload in gen.WORKLOADS:
        for metric in declared["end_to_end"] + declared["per_layer"]:
            printed = result["metrics"][f"{workload}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], float)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)


def test_runs_are_whole_rounds_set_by_seconds():
    inputs = {"workload": "compile_sparse", "queries": [{}] * 256}
    assert run.compile_passes(inputs, 45, MIN_ROUNDS) == 20
    assert run.compile_passes(inputs, 90, MIN_ROUNDS) == 40
    assert run.compile_passes(inputs, 1, MIN_ROUNDS) == MIN_ROUNDS
    assert run.compile_passes(inputs, 1, 1) == 1
    serve = {"workload": "serve_churn"}
    assert run.serve_rounds(serve, 45, MIN_ROUNDS) == 11
    assert run.serve_rounds(serve, 1, MIN_ROUNDS) == MIN_ROUNDS


def test_each_request_counts_its_best_time():
    pairs = [(2, 0.5), (0, 0.3), (2, 0.2), (1, 0.9), (0, 0.4)]
    assert best_per_key(pairs) == [0.3, 0.9, 0.2]
    # Serve records: (request_id, query_id, position, sent, done, status, payload).
    rounds = [
        [("a", 7, 0, 1.0, 1.5, 200, b""), ("b", 8, 1, 1.0, 1.2, 200, b"")],
        [("c", 8, 1, 2.0, 2.1, 200, b""), ("d", 7, 0, 2.0, 2.9, 500, b"")],
    ]
    assert best_latencies(rounds) == pytest.approx([0.5, 0.1])


def test_corrupted_oracle_entry_fails_the_run():
    first = _run("--workload", "compile_sparse", "--smoke")
    assert first.returncode == 0, first.stdout[-2000:] + first.stderr[-2000:]
    inputs = run.shrink(
        gen.make_inputs("compile_sparse", gen.DEFAULT_SEED, os.path.join(RUNS, "structures")), 16
    )
    path = oracle.cache_path("compile_sparse")
    key = oracle.query_key(inputs["queries"][0])
    cached = read_json(path)
    right = cached[key]
    cached[key] = right * 1.5
    write_json(path, cached)
    try:
        second = _run("--workload", "compile_sparse", "--smoke")
    finally:
        cached = read_json(path)
        cached[key] = right
        write_json(path, cached)
    assert second.returncode != 0
    assert _last_json(second.stdout)["correct"] is False


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_determines_the_digest(workload):
    cache = os.path.join(RUNS, "structures")
    one = gen.digest(gen.make_inputs(workload, 1, cache))
    assert one == gen.digest(gen.make_inputs(workload, 1, cache))
    assert one != gen.digest(gen.make_inputs(workload, 2, cache))
    assert one == read_json(run.PINS)["digests"][workload]


@pytest.mark.parametrize("fail", [False, True])
def test_no_shard_survives(fail):
    server = Server([])
    with pytest.raises(RuntimeError) if fail else nullcontext():
        with server:
            server.start()
            group = server.process.pid
            assert len(group_members(group)) == 3  # the door and two shards
            if fail:
                raise RuntimeError("mid-workload failure")
    assert group_members(group) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_churn", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

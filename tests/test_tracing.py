"""Tests for per-request trace spans, the trace store, the slow-request
log, the Prometheus exporter, and the crash-durability directory fsync.

The tentpole invariant: one ``service.optimize(...)`` yields an
exportable trace of >= 4 nested spans whose enumerate span carries the
result counters — and the *same* request through the process executor
yields the same top-level span tree, because worker-side spans ride the
serialized job document back across the process boundary.
"""

import json
import logging
import os
import sys
import time

import pytest

from repro import OptimizationRequest, OptimizerService
from repro.catalog.workload import WorkloadGenerator
from repro.serialize import result_from_dict, result_to_dict
from repro.service import render_prometheus, span_from_dict, span_to_dict
from repro.service.cache import PlanCache, _fsync_directory
from repro.service.tracing import (
    NULL_TRACE,
    SLOW_LOGGER_NAME,
    Span,
    Trace,
    Tracer,
    TraceStore,
)


def chain_request(n=6, seed=1, tag=None):
    # Named, not "auto": these tests are about tracing, and "auto" may
    # pick dpconv where a C kernel is built.
    instance = WorkloadGenerator(seed=seed).fixed_shape("chain", n)
    return OptimizationRequest(query=instance, algorithm="tdmincutbranch", tag=tag)


# ----------------------------------------------------------------------
# Span / Trace units
# ----------------------------------------------------------------------

class TestSpanNesting:
    def test_span_context_managers_nest(self):
        trace = Trace("optimize")
        with trace.span("prepare"):
            with trace.span("canonicalize"):
                assert trace.current_name() == "canonicalize"
            with trace.span("cache_lookup") as lookup:
                lookup.set("hit", False)
        with trace.span("enumerate", algorithm="dpccp"):
            pass
        trace.finish()
        assert [c.name for c in trace.root.children] == ["prepare", "enumerate"]
        prepare = trace.find("prepare")
        assert [c.name for c in prepare.children] == ["canonicalize", "cache_lookup"]
        assert trace.span_count() == 5
        assert trace.find("cache_lookup").attributes == {"hit": False}
        assert trace.find("enumerate").attributes == {"algorithm": "dpccp"}
        # Depth-first iteration sees parents before their children.
        names = [s.name for s in trace.root.iter_spans()]
        assert names.index("prepare") < names.index("canonicalize")

    def test_exception_annotates_span_and_propagates(self):
        trace = Trace("optimize")
        with pytest.raises(ValueError, match="boom"):
            with trace.span("enumerate"):
                raise ValueError("boom")
        span = trace.find("enumerate")
        assert span.attributes["error"] == "ValueError: boom"
        assert span.end_s is not None  # closed despite the exception
        assert trace.current_name() == "optimize"  # stack unwound

    def test_finish_closes_open_spans_and_is_idempotent(self):
        trace = Trace("optimize")
        context = trace.span("prepare")
        context.__enter__()  # never exited — e.g. a raising pipeline
        trace.finish()
        assert trace.find("prepare").end_s is not None
        assert trace.root.end_s is not None
        first_end = trace.root.end_s
        trace.finish()
        assert trace.root.end_s == first_end

    def test_durations_are_monotone(self):
        trace = Trace("optimize")
        with trace.span("work"):
            time.sleep(0.01)
        trace.finish()
        work = trace.find("work")
        assert work.duration_seconds >= 0.009
        assert trace.duration_seconds >= work.duration_seconds

    def test_export_offsets_are_relative_to_root(self):
        trace = Trace("optimize", tag="q0")
        with trace.span("a"):
            pass
        trace.finish()
        doc = trace.to_dict()
        assert doc["trace_id"] == trace.trace_id
        assert doc["tag"] == "q0"
        assert doc["root"]["offset_ms"] == 0.0
        child = doc["root"]["children"][0]
        assert child["name"] == "a"
        assert child["offset_ms"] >= 0.0
        json.dumps(doc)  # JSON-ready as claimed


class TestSpanWire:
    def test_round_trip_preserves_tree_and_attributes(self):
        span = Span("enumerate", start_s=100.0)
        span.annotate(memo_entries=7, algorithm="dpccp")
        child = Span("partition", start_s=100.002)
        child.end_s = 100.004
        span.children.append(child)
        span.finish(end_s=100.010)

        wire = span_to_dict(span, origin_s=100.0)
        json.dumps(wire)  # must be JSON-safe for the process pipe
        rebuilt = span_from_dict(wire, base_s=500.0)

        assert rebuilt.name == "enumerate"
        assert rebuilt.attributes == {"memo_entries": 7, "algorithm": "dpccp"}
        assert rebuilt.start_s == pytest.approx(500.0)
        assert rebuilt.duration_seconds == pytest.approx(0.010, abs=1e-4)
        assert [c.name for c in rebuilt.children] == ["partition"]
        assert rebuilt.children[0].start_s == pytest.approx(500.002)

    def test_malformed_wire_documents_never_raise(self):
        for document in (
            {},
            {"name": 42, "offset_ms": "garbage", "duration_ms": None},
            {"attributes": "not-a-dict", "children": "not-a-list"},
            {"children": [None, 42, {"name": "ok"}]},
        ):
            span = span_from_dict(document)
            assert span.duration_seconds >= 0.0
        assert [c.name for c in span.children] == ["ok"]

    def test_trace_attach_serialized_grafts_under_root(self):
        trace = Trace("optimize")
        wire = {"name": "enumerate", "offset_ms": 0.0, "duration_ms": 5.0}
        trace.attach_serialized([wire, "garbage"], elapsed_hint=0.005)
        trace.finish()
        grafted = trace.find("enumerate")
        assert grafted is not None
        assert grafted.duration_seconds == pytest.approx(0.005, abs=1e-4)
        # Garbage entries are skipped, not raised on.
        assert len(trace.root.children) == 1


class TestNullTrace:
    def test_null_trace_is_inert(self):
        assert not NULL_TRACE.is_recording
        assert NULL_TRACE.trace_id is None
        with NULL_TRACE.span("anything", key=1) as span:
            span.set("k", "v")
            span.annotate(a=1)
        NULL_TRACE.attach_serialized([{"name": "x"}])
        NULL_TRACE.finish()
        assert NULL_TRACE.root.attributes == {}


# ----------------------------------------------------------------------
# TraceStore / Tracer
# ----------------------------------------------------------------------

class TestTraceStore:
    def test_ring_is_bounded_and_counts_drops(self):
        store = TraceStore(capacity=3)
        traces = [Trace("optimize", tag=f"q{i}") for i in range(5)]
        for trace in traces:
            trace.finish()
            store.add(trace)
        assert len(store) == 3
        assert store.dropped == 2
        assert [t.tag for t in store.traces()] == ["q2", "q3", "q4"]
        assert store.last() is traces[-1]
        assert store.get(traces[0].trace_id) is None  # evicted
        assert store.get(traces[-1].trace_id) is traces[-1]
        exported = json.loads(store.to_json())
        assert [doc["tag"] for doc in exported] == ["q2", "q3", "q4"]
        store.clear()
        assert len(store) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


@pytest.mark.skipif(
    sys.implementation.name != "cpython",
    reason="trace recycling relies on CPython refcounts",
)
class TestTraceRecycling:
    def test_sole_owned_evictee_is_recycled_and_fully_reset(self):
        tracer = Tracer(store=TraceStore(capacity=1))
        first = tracer.start("optimize", tag="a")
        with first.span("enumerate"):
            first.set("memo_entries", 42)
        tracer.finish(first, algorithm="dpccp")
        first_object_id = id(first)
        first_trace_id = first.trace_id
        del first  # the store now holds the only reference

        second = tracer.start("optimize", tag="b")
        tracer.finish(second)  # evicts the sole-owned first trace
        del second

        recycled = tracer.start("optimize", tag="c")
        assert id(recycled) == first_object_id  # same object, reused
        assert recycled.trace_id != first_trace_id  # fresh identity
        assert recycled.tag == "c"
        tracer.finish(recycled)
        # Nothing bleeds through from its previous life.
        assert recycled.span_count() == 1
        assert recycled.root.attributes == {}
        assert recycled.find("enumerate") is None

    def test_externally_held_trace_is_never_recycled(self):
        tracer = Tracer(store=TraceStore(capacity=1))
        held = tracer.start("optimize", tag="held")
        tracer.finish(held, algorithm="dpccp")
        held_trace_id = held.trace_id

        evictor = tracer.start("optimize", tag="evictor")
        tracer.finish(evictor)  # evicts `held`, which we still reference
        del evictor

        fresh = tracer.start("optimize", tag="fresh")
        assert fresh is not held
        # The held trace is immutable history.
        assert held.trace_id == held_trace_id
        assert held.tag == "held"
        assert held.root.attributes == {"algorithm": "dpccp"}


class TestTracer:
    def test_disabled_tracer_hands_out_null_trace(self):
        tracer = Tracer(enabled=False)
        trace = tracer.start("optimize")
        assert trace is NULL_TRACE
        tracer.finish(trace, algorithm="dpccp")  # no-op, no store growth
        assert len(tracer.store) == 0

    def test_finish_stamps_attributes_and_stores(self):
        tracer = Tracer()
        trace = tracer.start("optimize", tag="q1")
        tracer.finish(trace, algorithm="dpccp", cache_hit=False)
        assert trace.root.attributes == {"algorithm": "dpccp", "cache_hit": False}
        assert tracer.store.last() is trace

    def test_slow_log_fires_above_threshold(self, caplog):
        tracer = Tracer(slow_log_ms=5.0)
        trace = tracer.start("optimize", tag="slowq")
        with trace.span("enumerate"):
            time.sleep(0.02)
        with caplog.at_level(logging.WARNING, logger=SLOW_LOGGER_NAME):
            tracer.finish(trace)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "slow request" in message
        assert trace.trace_id in message
        assert "tag=slowq" in message
        assert "enumerate=" in message  # per-stage breakdown

    def test_slow_log_silent_below_threshold(self, caplog):
        tracer = Tracer(slow_log_ms=10_000.0)
        with caplog.at_level(logging.WARNING, logger=SLOW_LOGGER_NAME):
            tracer.finish(tracer.start("optimize"))
        assert not caplog.records


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------

class TestServiceTracing:
    def test_single_optimize_yields_nested_trace_with_counters(self):
        service = OptimizerService()
        result = service.optimize(chain_request(tag="q0"))
        assert result.trace_id is not None
        trace = service.traces.get(result.trace_id)
        assert trace is not None
        assert trace.span_count() >= 4
        assert [c.name for c in trace.root.children] == [
            "prepare", "admission", "enumerate", "store",
        ]
        enumerate_span = trace.find("enumerate")
        assert enumerate_span.attributes["memo_entries"] == result.memo_entries
        assert (
            enumerate_span.attributes["cost_evaluations"]
            == result.cost_evaluations
        )
        assert trace.find("canonicalize").attributes["n_relations"] == 6
        assert trace.root.attributes["algorithm"] == result.algorithm
        assert trace.root.attributes["cache_hit"] is False

    def test_cache_hit_trace_has_rebind_and_no_enumerate(self):
        service = OptimizerService()
        request = chain_request()
        service.optimize(request)
        warm = service.optimize(request)
        assert warm.cache_hit
        trace = service.traces.get(warm.trace_id)
        assert trace.find("cache_lookup").attributes["hit"] is True
        assert trace.find("rebind") is not None
        assert trace.find("enumerate") is None
        assert trace.root.attributes["cache_hit"] is True

    def test_error_requests_are_traced_too(self):
        from repro import QueryGraph, uniform_statistics
        from repro.errors import ReproError

        service = OptimizerService()
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        with pytest.raises(ReproError):
            service.optimize(OptimizationRequest(query=disconnected))
        trace = service.traces.last()
        assert trace is not None
        assert "error" in trace.root.attributes

    def test_process_executor_yields_same_span_tree(self):
        service = OptimizerService()
        request = chain_request(tag="px")
        results = service.optimize_batch([request], workers=1, executor="process")
        result = results[0]
        assert result.ok and result.trace_id is not None
        trace = service.traces.get(result.trace_id)
        assert trace is not None
        assert [c.name for c in trace.root.children] == [
            "prepare", "admission", "enumerate", "store",
        ]
        enumerate_span = trace.find("enumerate")
        assert enumerate_span.attributes["memo_entries"] == result.memo_entries
        assert enumerate_span.attributes["worker_pid"] != os.getpid()
        assert enumerate_span.duration_seconds <= trace.duration_seconds

    def test_process_executor_traces_every_item(self):
        service = OptimizerService()
        requests = [chain_request(seed=s, tag=f"t{s}") for s in (1, 2, 3)]
        results = service.optimize_batch(requests, workers=2, executor="process")
        ids = {r.trace_id for r in results}
        assert len(ids) == 3 and None not in ids
        for result in results:
            assert service.traces.get(result.trace_id) is not None

    def test_tracing_disabled_leaves_no_footprint(self):
        service = OptimizerService(tracing=False)
        result = service.optimize(chain_request())
        assert result.trace_id is None
        assert len(service.traces) == 0

    def test_trace_store_capacity_is_configurable(self):
        service = OptimizerService(trace_capacity=2)
        for seed in (1, 2, 3):
            service.optimize(chain_request(seed=seed))
        assert len(service.traces) == 2
        assert service.traces.dropped == 1

    def test_trace_id_survives_result_serialization(self):
        service = OptimizerService()
        result = service.optimize(chain_request())
        document = result_to_dict(result)
        assert document["trace_id"] == result.trace_id
        assert result_from_dict(document).trace_id == result.trace_id


# ----------------------------------------------------------------------
# Metrics invariant + Prometheus exporter
# ----------------------------------------------------------------------

class TestMetricsInvariant:
    def test_requests_equals_errors_plus_hits_plus_misses(self):
        from repro import QueryGraph, uniform_statistics

        service = OptimizerService()
        request = chain_request()
        service.optimize(request)            # miss
        service.optimize(request)            # hit
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        service.optimize_batch(
            [request, disconnected], workers=2, executor="process"
        )                                    # hit + error
        totals = service.stats_snapshot()["totals"]
        assert totals["requests"] == 4
        assert totals["requests"] == (
            totals["errors"] + totals["cache_hits"] + totals["cache_misses"]
        )


class TestKernelObservability:
    def test_enumerate_span_reports_kernel(self):
        service = OptimizerService()
        result = service.optimize(chain_request())
        assert result.details["kernel"] == "fast"
        trace = service.traces.get(result.trace_id)
        assert trace.find("enumerate").attributes["kernel"] == "fast"

    def test_pruned_request_reports_fast_kernel(self):
        # Branch-and-bound runs on the fast kernel too: one top-down
        # driver serves plain and pruned requests alike.
        instance = WorkloadGenerator(seed=1).fixed_shape("chain", 6)
        service = OptimizerService()
        result = service.optimize(
            OptimizationRequest(query=instance, enable_pruning=True)
        )
        assert result.details["kernel"] == "fast"
        trace = service.traces.get(result.trace_id)
        assert trace.find("enumerate").attributes["kernel"] == "fast"

    def test_metrics_count_kernel_paths(self):
        service = OptimizerService()
        request = chain_request()
        service.optimize(request)  # miss: fresh fast-kernel enumeration
        service.optimize(request)  # hit: no enumeration, no kernel count
        totals = service.stats_snapshot()["totals"]
        assert totals["kernel_fast"] == 1
        per_algo = service.stats_snapshot()["algorithms"]["tdmincutbranch"]
        assert per_algo["kernel_fast"] == 1

    def test_bottom_up_requests_count_no_kernel(self):
        service = OptimizerService()
        service.optimize(
            OptimizationRequest(
                query=WorkloadGenerator(seed=1).fixed_shape("chain", 6),
                algorithm="dpccp",
            )
        )
        totals = service.stats_snapshot()["totals"]
        assert totals["kernel_fast"] == 0

    def test_prometheus_exposes_kernel_counters(self):
        service = OptimizerService()
        service.optimize(chain_request())
        text = render_prometheus(service.stats_snapshot())
        assert "repro_kernel_fast_total 1" in text
        assert 'repro_algorithm_kernel_fast_total{algorithm="tdmincutbranch"} 1' in text


GOLDEN_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "data", "metrics_snapshot.json"
)
GOLDEN_EXPOSITION = os.path.join(
    os.path.dirname(__file__), "data", "metrics_exposition.prom"
)


def populated_metrics():
    """A metrics object with every counter moved, on fixed latencies."""
    from repro.service.metrics import ServiceMetrics

    metrics = ServiceMetrics(max_samples=4)
    metrics.observe("dpccp", 0.002)
    metrics.observe("dpccp", 0.001, cache_hit=True)
    metrics.observe("dpccp", 0.004, error=True, timeout=True, retries=2)
    metrics.observe("auto", 0.003, kernel="dpconv", backend="c")
    metrics.observe("auto", 0.0005, cache_hit=True)
    metrics.observe("auto", 0.006, kernel="fast", fast_exact=True)
    metrics.observe(
        "tdmincutbranch", 0.05, anytime=True, hard_kill_avoided=True,
        salvage_fraction=0.25, timeout=True,
    )
    metrics.observe(
        "tdmincutbranch", 0.03, anytime=True, salvage_fraction=0.75, retries=1
    )
    metrics.observe(
        "tdmincutbranch", 0.02, degraded=True, fallback=True, timeout=True
    )
    metrics.observe(
        "tdmincutbranch", 0.01, degraded=True, backend="python", kernel="fast"
    )
    metrics.observe("goo", 0.0001, cache_hit=True, error=True)
    return metrics


def golden_exposition():
    """A service-shaped snapshot rendered plain, and a bare one as a shard."""
    snapshot = populated_metrics().snapshot()
    service = dict(
        snapshot,
        cache={"size": 3, "capacity": 8, "hits": 5, "misses": 7, "evictions": 1},
        digest_memo={"size": 2, "capacity": 8, "hits": 4, "misses": 2},
        breaker={
            "dpccp": {"state": "open", "consecutive_failures": 3},
            "auto": {"state": "closed", "consecutive_failures": 0},
        },
    )
    return render_prometheus(service) + render_prometheus(
        snapshot, prefix="repro_shard1"
    )


class TestPrometheusRender:
    def _snapshot(self):
        service = OptimizerService()
        request = chain_request()
        service.optimize(request)
        service.optimize(request)
        return service.stats_snapshot()

    def test_exposition_structure(self):
        text = render_prometheus(self._snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        seen_types = {}
        for line in lines:
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ", 3)
                seen_types[name] = kind
        # Every samples line refers to a declared family.
        for line in lines:
            if line.startswith("#"):
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base = name
            for suffix in ("_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in seen_types:
                    base = base[: -len(suffix)]
            assert base in seen_types, f"undeclared family for sample: {line}"
            # Sample values parse as floats.
            float(line.rsplit(" ", 1)[1])
        assert seen_types["repro_requests_total"] == "counter"
        assert seen_types["repro_plan_cache_size"] == "gauge"
        assert seen_types["repro_request_latency_seconds"] == "summary"
        assert seen_types["repro_breaker_state"] == "gauge"

    def test_counter_values_match_snapshot(self):
        snapshot = self._snapshot()
        text = render_prometheus(snapshot)
        assert f"repro_requests_total {snapshot['totals']['requests']}" in text
        assert f"repro_cache_hits_total {snapshot['totals']['cache_hits']}" in text
        algorithm = next(iter(snapshot["algorithms"]))
        assert f'repro_algorithm_requests_total{{algorithm="{algorithm}"}}' in text
        assert f'quantile="0.99"' in text
        assert f'repro_request_latency_seconds_count{{algorithm="{algorithm}"}} 2' in text

    def test_label_escaping(self):
        snapshot = {
            "totals": {},
            "algorithms": {
                'we"ird\\name\n': {"count": 1, "latency": {"count": 1}}
            },
        }
        text = render_prometheus(snapshot)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        # No raw newline may survive inside a label value.
        for line in text.splitlines():
            assert not line.endswith('we"ird')

    def test_bare_metrics_snapshot_renders_without_cache_or_breaker(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.observe("dpccp", 0.001)
        text = render_prometheus(metrics.snapshot())
        assert "repro_requests_total 1" in text
        assert "plan_cache" not in text
        assert "breaker" not in text

    def test_snapshot_and_exposition_are_pinned(self):
        # Byte for byte against golden files: every counter, its order,
        # its per-algorithm twin and every help text.
        with open(GOLDEN_SNAPSHOT, encoding="utf-8") as handle:
            assert json.dumps(populated_metrics().snapshot(), indent=1) + "\n" == (
                handle.read()
            )
        with open(GOLDEN_EXPOSITION, encoding="utf-8") as handle:
            assert golden_exposition() == handle.read()

    def test_cli_prometheus_format(self, capsys):
        from repro.cli import main

        code = main([
            "serve-stats", "--shape", "chain", "--n", "5", "--count", "2",
            "--repeat", "1", "--executor", "serial", "--format", "prometheus",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert "repro_requests_total 2" in out

    def test_cli_trace_flag_prints_span_tree(self, capsys):
        from repro.cli import main

        code = main([
            "serve-stats", "--shape", "chain", "--n", "5", "--count", "1",
            "--repeat", "1", "--executor", "serial", "--format", "json",
            "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Two JSON documents: the snapshot, then the trace.
        trace_doc = json.loads(out[out.index('{\n  "duration_ms"'):])
        assert trace_doc["root"]["name"] == "optimize"
        assert any(
            child["name"] == "prepare" for child in trace_doc["root"]["children"]
        )


# ----------------------------------------------------------------------
# Crash durability: directory fsync
# ----------------------------------------------------------------------

class TestDirectoryFsync:
    def test_cache_save_fsyncs_the_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_mode)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        service = OptimizerService()
        service.optimize(chain_request())
        path = tmp_path / "cache.json"
        assert service.save_cache(str(path)) == 1
        import stat

        modes = [stat.S_ISDIR(mode) for mode in synced]
        assert True in modes, "directory was never fsynced"
        assert False in modes, "temp file was never fsynced"
        # And the written file still loads.
        fresh = PlanCache(capacity=8)
        assert fresh.load(str(path)) == 1

    def test_fsync_directory_tolerates_unopenable_directory(self, monkeypatch):
        def refuse(path, flags):
            raise OSError("directories cannot be opened here")

        monkeypatch.setattr(os, "open", refuse)
        _fsync_directory("/definitely/anywhere")  # must not raise

    def test_fsync_directory_tolerates_fsync_failure(self, tmp_path, monkeypatch):
        def refuse(fd):
            raise OSError("EINVAL: cannot fsync a directory fd")

        monkeypatch.setattr(os, "fsync", refuse)
        _fsync_directory(str(tmp_path))  # must not raise (and must close fd)


# ----------------------------------------------------------------------
# popcount fast path / portable fallback parity
# ----------------------------------------------------------------------

class TestPopcountSelection:
    def test_fast_path_selected_on_modern_python(self):
        from repro import bitset

        if hasattr(int, "bit_count"):
            assert bitset.popcount.__code__ is not bitset._popcount_portable.__code__

    def test_portable_fallback_matches(self):
        from repro.bitset import _popcount_portable, popcount

        values = [0, 1, 2, 3, 0b1010, (1 << 64) - 1, 1 << 200, (1 << 130) | 7]
        for value in values:
            assert _popcount_portable(value) == popcount(value)

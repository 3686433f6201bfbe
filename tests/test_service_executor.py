"""Tests for batch execution backends: serial/thread/process, deadlines.

The process backend is the one that truly parallelizes CPU-bound
enumeration and the only one that can reclaim a hung item (by recycling
the worker process); these tests pin down backend parity, deadline
semantics, heuristic fallback, cache behaviour across executors, and
worker-crash isolation.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import (
    OptimizationRequest,
    OptimizerService,
    QueryGraph,
    chain_graph,
    uniform_statistics,
)
from repro.catalog.workload import WorkloadGenerator
from repro.cost.physical import PhysicalCostModel
from repro.errors import OptimizationError, ReproError
from repro.optimizer.api import (
    ALGORITHMS,
    OptimizationResult,
    register_algorithm,
    unregister_algorithm,
)
import repro
from repro.service import ResilienceConfig
from repro.service.executor import (
    ProcessPoolExecutor,
    Worker,
    hard_deadline,
    stamp_deadline,
)


def mixed_batch():
    """Healthy queries of several shapes plus a poisoned and a garbage item."""
    generator = WorkloadGenerator(seed=17)
    items = [
        OptimizationRequest(query=generator.fixed_shape("chain", 6), tag="chain"),
        OptimizationRequest(query=generator.fixed_shape("cycle", 6), tag="cycle"),
        uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)])),  # disconnected
        OptimizationRequest(query=generator.fixed_shape("star", 6), tag="star"),
        42,  # garbage item mid-batch
        OptimizationRequest(query=generator.fixed_shape("clique", 6), tag="clique"),
    ]
    return items


def slow_request(n=13, tag="slow"):
    """A request whose exact enumeration takes seconds (naive partitioning
    on a clique is Theta(3^n) partitioner steps)."""
    instance = WorkloadGenerator(seed=5).fixed_shape("clique", n)
    return OptimizationRequest(
        query=instance, algorithm="memoizationbasic", tag=tag
    )


def slow_uncooperative_request(n=13, tag="slow"):
    """A slow request on a bottom-up engine with no cooperative-budget
    support: the executor's hard kill is the only way to reclaim it.
    (Top-down engines like ``memoizationbasic`` now honour batch
    deadlines cooperatively and return salvaged anytime plans instead —
    see tests/test_anytime.py.)"""
    instance = WorkloadGenerator(seed=5).fixed_shape("clique", n)
    return OptimizationRequest(query=instance, algorithm="dpsub", tag=tag)


def fast_request(tag="fast"):
    instance = WorkloadGenerator(seed=6).fixed_shape("chain", 5)
    return OptimizationRequest(query=instance, tag=tag)


class TestBackendParity:
    def test_all_executors_agree_on_mixed_batch(self):
        outcomes = {}
        for executor in ("serial", "thread", "process"):
            results = OptimizerService().optimize_batch(
                mixed_batch(), workers=2, executor=executor
            )
            outcomes[executor] = [
                round(r.cost, 6) if r.ok else f"error:{r.error.split(':')[0]}"
                for r in results
            ]
        assert outcomes["serial"] == outcomes["thread"] == outcomes["process"]
        # The two bad items failed, everything else planned.
        serial = outcomes["serial"]
        assert [isinstance(o, float) for o in serial] == [
            True, True, False, True, False, True,
        ]

    # One pipeline: every executor shares prepare → admission → finish
    # and differs only in where the engine runs, so beyond costs they
    # must agree on provenance, counters, and trace shape.  The budget
    # sends clique-8 (3025 ccps) to the dpconv rung and the physical
    # star-9 (1024 ccps) to a heuristic; the mixed batch stays exact.

    @staticmethod
    def ladder_items():
        generator = WorkloadGenerator(seed=17)
        return mixed_batch() + [
            OptimizationRequest(
                query=generator.fixed_shape("clique", 8), tag="dpconv"
            ),
            OptimizationRequest(
                query=generator.fixed_shape("star", 9),
                cost_model=PhysicalCostModel(),
                tag="heuristic",
            ),
        ]

    @staticmethod
    def pipeline_view(run):
        """Rows and totals of two passes (the second hits the cache)."""
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=500, anytime_enabled=False)
        )
        rows = []
        for _ in range(2):
            for result in run(service):
                trace = service.traces.get(result.trace_id)
                rows.append((
                    result.tag,
                    result.algorithm,
                    result.cache_hit,
                    round(result.cost, 6) if result.ok
                    else result.error.split(":")[0],
                    [result.details.get(key) for key in (
                        "rung", "fast_exact", "degraded", "kernel",
                    )],
                    [span.name for span in trace.root.children]
                    if trace is not None else None,
                ))
        return rows, service.stats_snapshot()["totals"]

    def test_executors_share_one_pipeline(self):
        views = {
            executor: self.pipeline_view(
                lambda service: service.optimize_batch(
                    self.ladder_items(), workers=2, executor=executor
                )
            )
            for executor in ("serial", "thread", "process")
        }
        assert views["serial"] == views["thread"] == views["process"]
        rows, totals = views["serial"]
        assert totals["requests"] == 16 and totals["errors"] == 4
        assert totals["cache_hits"] == 5
        assert totals["fast_exact"] == 1 and totals["degraded"] == 2
        by_tag = {row[0]: row for row in rows[:8]}
        assert by_tag["dpconv"][4][:2] == ["dpconv", 1]
        assert by_tag["dpconv"][5] == [
            "prepare", "admission", "degraded_rung", "store",
        ]
        assert by_tag["heuristic"][4][0] == "ikkbz"
        assert by_tag["heuristic"][5] == ["prepare", "admission", "degraded_rung"]
        # The disconnected item failed inside the engine, wherever it ran.
        assert rows[2][3] == "DisconnectedGraphError"
        assert rows[2][5] == ["prepare", "admission", "enumerate"]
        assert [row[5] for row in rows[8:] if row[2]] == [["prepare"]] * 5

    def test_optimize_loop_matches_the_batch_pipeline(self):
        items = [item for item in self.ladder_items() if item != 42]

        def optimize_each(service):
            results = []
            for item in items:
                try:
                    results.append(service.optimize(item))
                except ReproError as exc:
                    results.append(OptimizationResult(
                        plan=None,
                        algorithm="auto",
                        elapsed_seconds=0.0,
                        memo_entries=0,
                        cost_evaluations=0,
                        cardinality_estimations=0,
                        error=f"{type(exc).__name__}: {exc}",
                        trace_id=service.traces.last().trace_id,
                    ))
            return results

        batched = self.pipeline_view(
            lambda service: service.optimize_batch(items, workers=1)
        )
        assert self.pipeline_view(optimize_each) == batched

    def test_process_batch_preserves_order_and_tags(self):
        generator = WorkloadGenerator(seed=7)
        requests = [
            OptimizationRequest(
                query=generator.fixed_shape("chain", 4 + i), tag=f"q{i}"
            )
            for i in range(4)
        ]
        results = OptimizerService().optimize_batch(
            requests, workers=2, executor="process"
        )
        assert [r.tag for r in results] == ["q0", "q1", "q2", "q3"]
        assert [r.plan.n_joins() for r in results] == [3, 4, 5, 6]
        for result in results:
            result.plan.validate()

    def test_explicit_process_executor_with_one_worker(self):
        results = OptimizerService().optimize_batch(
            [fast_request()], workers=1, executor="process"
        )
        assert results[0].ok


class TestCacheAcrossExecutors:
    def test_process_results_feed_the_shared_cache(self):
        service = OptimizerService()
        request = fast_request()
        cold = service.optimize_batch([request], workers=2, executor="process")
        assert not cold[0].cache_hit
        for executor in ("process", "thread", "serial"):
            warm = service.optimize_batch([request], workers=2, executor=executor)
            assert warm[0].cache_hit, executor
            assert warm[0].cost == pytest.approx(cold[0].cost)
        # Single-query path hits the same entry too.
        assert service.optimize(request).cache_hit

    def test_thread_results_hit_in_process_mode(self):
        service = OptimizerService()
        request = fast_request()
        service.optimize_batch([request], workers=2, executor="thread")
        warm = service.optimize_batch([request], workers=2, executor="process")
        assert warm[0].cache_hit
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["cache_hits"] == 1


class TestDeadlines:
    def test_process_deadline_yields_error_within_budget(self):
        service = OptimizerService()
        deadline = 0.4
        started = time.perf_counter()
        results = service.optimize_batch(
            [fast_request("f0"), slow_uncooperative_request(), fast_request("f1")],
            workers=2,
            executor="process",
            deadline_seconds=deadline,
        )
        wall = time.perf_counter() - started
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "DeadlineExceededError" in results[1].error
        assert results[1].tag == "slow"
        # The slow item alone needs seconds; the deadline must have cut
        # it off within ~2x the budget (plus worker startup slack).
        assert wall < 2 * deadline + 1.5
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 1
        assert totals["errors"] == 1
        # The service stays fully usable after recycling the worker.
        follow_up = service.optimize(fast_request("followup"))
        assert follow_up.ok

    def test_process_deadline_fallback_serves_goo_plan(self):
        service = OptimizerService()
        results = service.optimize_batch(
            [slow_uncooperative_request()],
            workers=1,
            executor="process",
            deadline_seconds=0.4,
            fallback="goo",
        )
        result = results[0]
        assert result.ok and result.error is None
        assert result.details == {"deadline_timeout": 1, "fallback_goo": 1}
        result.plan.validate()
        assert result.plan.n_joins() == 12  # clique-13 joined completely
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 1
        assert totals["fallbacks"] == 1
        assert totals["errors"] == 0

    def test_fallback_plans_are_not_cached(self):
        service = OptimizerService()
        service.optimize_batch(
            [slow_uncooperative_request()],
            workers=1,
            executor="process",
            deadline_seconds=0.4,
            fallback="goo",
        )
        assert service.cache.stats()["size"] == 0

    def test_thread_soft_deadline(self):
        # Threads cannot be killed, so the deadline is soft: the batch
        # returns a timeout result promptly and the abandoned thread
        # finishes in the background.  Keep the stray work short (~1s).
        service = OptimizerService()
        started = time.perf_counter()
        results = service.optimize_batch(
            [fast_request(), slow_request(n=12, tag="s12")],
            workers=2,
            executor="thread",
            deadline_seconds=0.15,
        )
        wall = time.perf_counter() - started
        assert results[0].ok
        assert not results[1].ok
        assert "DeadlineExceededError" in results[1].error
        assert wall < 1.0
        assert service.stats_snapshot()["totals"]["timeouts"] == 1

    def test_no_deadline_means_no_timeouts(self):
        service = OptimizerService()
        results = service.optimize_batch(
            [fast_request() for _ in range(3)], workers=2, executor="process"
        )
        assert all(r.ok for r in results)
        assert service.stats_snapshot()["totals"]["timeouts"] == 0


def _register_blocking(release):
    """Register an algorithm that blocks until ``release`` is set."""

    class _BlockingOptimizer:
        def __init__(self, catalog, cost_model=None, enable_pruning=False):
            self._inner = ALGORITHMS["tdmincutbranch"](
                catalog, cost_model=cost_model, enable_pruning=enable_pruning
            )

        def optimize(self):
            release.wait(timeout=30.0)
            return self._inner.optimize()

        @property
        def builder(self):
            return self._inner.builder

    register_algorithm("_test_blocking")(_BlockingOptimizer)


def _blocking_request(tag):
    catalog = WorkloadGenerator(seed=6).fixed_shape("chain", 5).catalog
    return OptimizationRequest(query=catalog, algorithm="_test_blocking", tag=tag)


class TestThreadDeadlineDrift:
    """The thread backend's deadline budget is shared across the batch.

    Regression tests for a drift bug: ``future.result(timeout=...)`` was
    given the *full* deadline per item, so each hung item pushed every
    later item's cutoff back by another whole budget — N hung items made
    the batch take ~N x deadline instead of ~1 x.
    """

    def test_two_hung_items_resolve_within_one_deadline(self):
        release = threading.Event()
        _register_blocking(release)
        try:
            service = OptimizerService()
            deadline = 0.5
            started = time.perf_counter()
            results = service.optimize_batch(
                [_blocking_request("h0"), _blocking_request("h1")],
                workers=2,
                executor="thread",
                deadline_seconds=deadline,
            )
            wall = time.perf_counter() - started
            assert not results[0].ok and not results[1].ok
            assert all("DeadlineExceededError" in r.error for r in results)
            # Both items hang concurrently; with a shared budget the batch
            # resolves in ~1x the deadline.  The drift bug made this
            # >= 2x (one full timeout per hung item, sequentially).
            assert wall < 2 * deadline - 0.1, (
                f"batch took {wall:.2f}s for deadline={deadline}s — "
                "per-item budgets are drifting"
            )
            assert service.stats_snapshot()["totals"]["timeouts"] == 2
        finally:
            release.set()
            unregister_algorithm("_test_blocking")

    def test_timeout_results_report_true_elapsed(self):
        # With one worker the second hung item never leaves the queue:
        # it is cancelled outright and must report ~0 elapsed, while the
        # first reports the time it actually ran (~ the deadline).  The
        # drift bug stamped both with exactly deadline_seconds.
        release = threading.Event()
        _register_blocking(release)
        try:
            service = OptimizerService()
            deadline = 0.3
            results = service.optimize_batch(
                [_blocking_request("ran"), _blocking_request("queued")],
                workers=1,
                executor="thread",
                deadline_seconds=deadline,
            )
            assert not results[0].ok and not results[1].ok
            assert results[0].elapsed_seconds >= deadline * 0.9
            assert results[1].elapsed_seconds == 0.0
        finally:
            release.set()
            unregister_algorithm("_test_blocking")


class TestWorkerFailures:
    def test_dying_worker_is_isolated_and_replaced(self):
        # An "algorithm" that kills its own worker process exercises the
        # crash path: the batch must report the item as failed and still
        # complete the remaining items on a replacement worker.
        @register_algorithm("_test_suicide")
        def _make_suicide(catalog, cost_model=None, enable_pruning=False):
            class Suicide:
                builder = None

                def optimize(self):
                    os._exit(17)

            return Suicide()

        try:
            generator = WorkloadGenerator(seed=9)
            killer = OptimizationRequest(
                query=generator.fixed_shape("chain", 5),
                algorithm="_test_suicide",
                tag="boom",
            )
            results = OptimizerService().optimize_batch(
                [fast_request("a"), killer, fast_request("b")],
                workers=1,
                executor="process",
            )
            assert results[0].ok and results[2].ok
            assert not results[1].ok
            assert "worker process died" in results[1].error
        finally:
            unregister_algorithm("_test_suicide")

    def test_custom_cost_model_is_rejected_per_item(self):
        # Process mode cannot ship arbitrary cost models; the affected
        # item fails with a typed message, the rest of the batch runs.
        from repro.cost.cout import CoutCostModel

        class Custom(CoutCostModel):
            pass

        generator = WorkloadGenerator(seed=4)
        custom = OptimizationRequest(
            query=generator.fixed_shape("chain", 5),
            cost_model=Custom(),
            algorithm="dpccp",
            tag="custom",
        )
        results = OptimizerService().optimize_batch(
            [fast_request(), custom], workers=2, executor="process"
        )
        assert results[0].ok
        assert not results[1].ok
        assert "not serializable" in results[1].error


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerService().optimize_batch([], executor="gpu")
        with pytest.raises(OptimizationError):
            OptimizerService(default_executor="gpu")

    def test_unknown_fallback_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerService().optimize_batch([], fallback="ikkbz")

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerService().optimize_batch([], deadline_seconds=0.0)
        with pytest.raises(OptimizationError):
            ProcessPoolExecutor(workers=2, deadline_seconds=-1.0)
        with pytest.raises(OptimizationError):
            ProcessPoolExecutor(workers=0)

    def test_empty_job_list(self):
        assert ProcessPoolExecutor(workers=2).run([]) == {}

    def test_service_defaults_flow_into_batches(self):
        service = OptimizerService(
            default_executor="process", default_deadline_seconds=0.4
        )
        results = service.optimize_batch(
            [slow_request(n=12)], workers=1
        )  # workers<=1 + no explicit executor → legacy serial, no deadline
        assert results[0].ok
        results = service.optimize_batch([slow_uncooperative_request()], workers=2)
        assert not results[0].ok
        assert "DeadlineExceededError" in results[0].error


# A parent that registers a plugin under a non-fork global start method.
_START_METHOD_PROBE = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1], force=True)
from repro import OptimizationRequest, OptimizerService
from repro.catalog.workload import WorkloadGenerator
from repro.optimizer.api import make_optimizer, register_algorithm

@register_algorithm("probe_plugin")
def _probe(catalog, cost_model=None, enable_pruning=False):
    return make_optimizer("dpccp", catalog, cost_model, enable_pruning)

request = OptimizationRequest(
    query=WorkloadGenerator(seed=3).fixed_shape("chain", 5),
    algorithm="probe_plugin",
)
[result] = OptimizerService().optimize_batch(
    [request], workers=1, executor="process"
)
print("ok" if result.ok else result.error)
"""


def _sleep_forever(connection):
    connection.send("ready")
    time.sleep(60)


class TestWorkerSupervisor:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_fork_whatever_the_global_start_method(self, method):
        # Workers always start from the fork-preferring context, so a
        # plugin registered in the parent is visible to them even when
        # the process-wide start method says otherwise.  A subprocess
        # keeps the global setting out of this test process.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _START_METHOD_PROBE, method],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok", completed.stdout

    def test_terminate_ignores_the_parents_signal_plumbing(self):
        # An asyncio server installs a no-op SIGTERM handler and a wakeup
        # fd; a worker forked from it must still die on terminate, and
        # must not report its signal through the parent's wakeup fd.
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        previous_handler = signal.signal(signal.SIGTERM, lambda *_: None)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            worker = Worker(_sleep_forever)
            assert worker.connection.recv() == "ready"
            started = time.monotonic()
            worker.stop(graceful=False)
            assert time.monotonic() - started < 2.0
            assert worker.process.exitcode == -signal.SIGTERM
            with pytest.raises(BlockingIOError):
                reader.recv(1)
        finally:
            signal.set_wakeup_fd(previous_fd)
            signal.signal(signal.SIGTERM, previous_handler)
            reader.close()
            writer.close()

    def test_cooperative_deadline_rule(self):
        stamped = stamp_deadline({"tag": "x"}, 0.5)
        assert stamped == {"tag": "x", "deadline_seconds": 0.5}
        assert stamp_deadline({"deadline_seconds": 0.2}, 0.5)["deadline_seconds"] == 0.2
        assert stamp_deadline({"deadline_seconds": 0.9}, 0.5)["deadline_seconds"] == 0.5
        # Only a document carrying a cooperative budget earns the grace.
        assert hard_deadline(stamped, 0.5) > 0.5
        assert hard_deadline({"tag": "x"}, 0.5) == 0.5
        assert hard_deadline(None, 0.5) == 0.5

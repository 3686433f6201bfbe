"""Spans recorded by the benchmark around calls into each layer.

Nothing under ``src/`` opens these spans: :func:`install_compile` and
:func:`install_serve` replace public entry points (and, where a request
id has to be picked up, the private function that first sees it) with
wrappers that time the call.  A span is ``[name, start, end, parent,
request_id, counts]``; ``parent`` indexes the enclosing span of the same
process (tracked per asyncio task through a context variable) and
``start``/``end`` are ``time.perf_counter()`` readings, which use
``CLOCK_MONOTONIC`` on Linux and so compare across processes.  Each
process keeps its spans in memory and writes them out once, when it
finishes (:func:`dump`).

The engine's partitioner is called once per connected subset, tens of
thousands of times per query, so it is not recorded span by span: its
time, calls and emitted ccps are summed into the enclosing span's
``counts``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time

_clock = time.perf_counter

SPANS = []
_current = contextvars.ContextVar("e2e_span", default=None)
_request = contextvars.ContextVar("e2e_request", default=None)


def reset():
    SPANS.clear()


def open_span(name, request_id=None):
    """Start a span under the current one; returns ``(index, token)``."""
    index = len(SPANS)
    SPANS.append([name, _clock(), 0.0, _current.get(), request_id or _request.get(), None])
    return index, _current.set(index)


def close_span(index, token):
    SPANS[index][2] = _clock()
    _current.reset(token)


def counts_of(index):
    span = SPANS[index]
    if span[5] is None:
        span[5] = {}
    return span[5]


def _wrap(fn, name, request_of=None, after=None):
    """Time ``fn`` as a span; ``request_of(args)`` names its request id."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        request_id = request_of(args) if request_of else None
        request_token = _request.set(request_id) if request_id else None
        index, token = open_span(name, request_id)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(index, args, result)
            return result
        finally:
            close_span(index, token)
            if request_token is not None:
                _request.reset(request_token)

    return wrapper


def _wrap_async(fn, name, request_of=None):
    """Time a coroutine; without ``request_of`` it is a request's root.

    A root learns its request id while it runs (the envelope carries
    it), so the id is cleared on entry -- a keep-alive connection's task
    still holds the previous request's -- and read back on exit.
    """

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if request_of is None:
            _request.set(None)
        index, token = open_span(name, request_of(args) if request_of else None)
        try:
            return await fn(*args, **kwargs)
        finally:
            close_span(index, token)
            if request_of is None:
                SPANS[index][4] = _request.get()

    return wrapper


def _patch_function(module, name, make):
    """Replace ``module.name`` and every ``from``-imported alias of it."""
    original = getattr(module, name)
    replacement = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, name, None) is original:
            setattr(loaded, name, replacement)


def _patch_method(cls, name, make):
    setattr(cls, name, make(getattr(cls, name)))


# ----------------------------------------------------------------------
# Library (compile workloads)


def _engine_after(index, args, _plan):
    """Label the engine that ran and count the ccps it emitted."""
    engine = args[0]
    counts = counts_of(index)
    kernel = getattr(engine, "last_kernel", None)
    if kernel == "dpconv":
        counts["engine"] = f"dpconv_{engine.last_backend}"
        counts["ccps"] = engine.builder.cost_evaluations
    elif kernel is not None:
        counts["engine"] = "kernel" if kernel == "fast" else "reference"
        counts["ccps"] = engine.partitioner.stats.emitted
    else:
        counts["engine"] = "dpccp"
        counts["ccps"] = engine.ccps_processed
    counts["cost_evaluations"] = engine.builder.cost_evaluations
    counts["memo_entries"] = len(engine.builder.memo)


def _aggregate_partitions(fn):
    @functools.wraps(fn)
    def wrapper(self, vertex_set, emit):
        started = _clock()
        before = self.stats.emitted
        try:
            return fn(self, vertex_set, emit)
        finally:
            parent = _current.get()
            if parent is not None:
                counts = counts_of(parent)
                counts["partition_s"] = counts.get("partition_s", 0.0) + _clock() - started
                counts["partition_calls"] = counts.get("partition_calls", 0) + 1
                counts["partition_ccps"] = (
                    counts.get("partition_ccps", 0) + self.stats.emitted - before
                )

    return wrapper


def install_compile():
    """Wrap the library layers a compile call passes through."""
    from repro.enumeration.mincutbranch import MinCutBranch
    from repro.optimizer import _native_build, api, native
    from repro.optimizer.dpccp import DPccp
    from repro.optimizer.dpconv import DPconvPlanGenerator
    from repro.optimizer.topdown import TopDownPlanGenerator
    from repro.plan.memo import MemoTable

    _patch_function(api, "make_optimizer", lambda f: _wrap(f, "optimizer.setup"))
    for cls in (TopDownPlanGenerator, DPconvPlanGenerator, DPccp):
        _patch_method(
            cls, "optimize", lambda f: _wrap(f, "optimizer.optimize", after=_engine_after)
        )
    _patch_method(MinCutBranch, "partitions_into", _aggregate_partitions)
    _patch_method(MemoTable, "bulk_load", lambda f: _wrap(f, "plan.bulk_load"))
    _patch_method(MemoTable, "extract_plan", lambda f: _wrap(f, "plan.extract"))
    _patch_function(_native_build, "load_c_kernel", lambda f: _wrap(f, "native.load"))
    _patch_function(native, "native_backend_status", lambda f: _wrap(f, "native.status"))


# ----------------------------------------------------------------------
# Server (serve workloads)


def _job_request_id(args):
    for arg in args:
        if isinstance(arg, dict) and "op" in arg:
            return arg.get("request_id")
    return None


def _envelope_request_id(fn):
    """Time envelope parsing and adopt the request id it reveals."""
    timed = _wrap(fn, "frontdoor.envelope")

    @functools.wraps(fn)
    def wrapper(self, body):
        envelope, rejection = timed(self, body)
        if envelope is not None and envelope.get("request_id") is not None:
            _request.set(str(envelope["request_id"]))
        return envelope, rejection

    return wrapper


def _submit_until_done(fn):
    """Time ``ShardClient.submit`` until the future it returns resolves."""

    @functools.wraps(fn)
    def wrapper(self, job, *args, **kwargs):
        index, token = open_span("sharding.submit", job.get("request_id"))
        _current.reset(token)
        try:
            future = fn(self, job, *args, **kwargs)
        except BaseException:
            SPANS[index][2] = _clock()
            raise

        def done(_future):
            SPANS[index][2] = _clock()

        future.add_done_callback(done)
        return future

    return wrapper


def _shard_main(fn):
    """Forget the parent's spans at fork; write this shard's on return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        reset()
        _current.set(None)
        _request.set(None)
        try:
            return fn(*args, **kwargs)
        finally:
            dump("shard")

    return wrapper


def install_serve():
    """Wrap the door, shard-wire, service and engine entry points."""
    import repro.cli  # noqa: F401  (binds every name the patches must see)
    from repro import serialize
    from repro.optimizer import api
    from repro.service import cache, core, frontdoor, resilience, sharding

    _patch_method(
        frontdoor.FrontDoor, "_handle_optimize", lambda f: _wrap_async(f, "frontdoor.handle")
    )
    _patch_method(frontdoor.FrontDoor, "_check_envelope", _envelope_request_id)
    _patch_method(frontdoor.FrontDoor, "_route", lambda f: _wrap(f, "frontdoor.route"))
    _patch_method(sharding.ShardClient, "submit", _submit_until_done)
    _patch_method(
        sharding.ShardClient,
        "_roundtrip",
        lambda f: _wrap_async(f, "sharding.roundtrip", request_of=_job_request_id),
    )
    _patch_function(
        sharding,
        "_optimize_on_shard",
        lambda f: _wrap(f, "shard.op", request_of=_job_request_id),
    )
    _patch_function(sharding, "shard_worker_main", _shard_main)
    _patch_function(
        sharding, "parse_request_document", lambda f: _wrap(f, "serialize.decode")
    )
    _patch_function(serialize, "result_to_dict", lambda f: _wrap(f, "serialize.encode"))
    _patch_method(core.OptimizerService, "optimize", lambda f: _wrap(f, "service.optimize"))
    _patch_function(core, "request_signature", lambda f: _wrap(f, "graph.signature"))
    _patch_method(cache.PlanCache, "get", lambda f: _wrap(f, "cache.get"))
    _patch_method(cache.PlanCache, "put", lambda f: _wrap(f, "cache.put"))
    _patch_function(resilience, "estimate_ccps", lambda f: _wrap(f, "resilience.admission"))
    _patch_function(api, "optimize_request", lambda f: _wrap(f, "optimizer.engine"))
    _patch_function(resilience, "run_rung", lambda f: _wrap(f, "heuristics.rung"))


def dump(role):
    """Write this process's spans to ``$E2E_TRACE_DIR`` (no-op without it)."""
    directory = os.environ.get("E2E_TRACE_DIR")
    if not directory:
        return
    path = os.path.join(directory, f"spans-{role}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"role": role, "pid": os.getpid(), "spans": SPANS}, handle)


# ----------------------------------------------------------------------
# Analysis


def self_seconds(spans):
    """Per span: duration minus the time its child spans cover.

    Children of one span never overlap (each process runs a request's
    layers one after another), so their durations simply add up; time
    summed into ``counts`` by aggregated callees is subtracted as well.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    out = []
    for index, span in enumerate(spans):
        aggregated = (span[5] or {}).get("partition_s", 0.0)
        out.append(span[2] - span[1] - child[index] - aggregated)
    return out


def request_ids(spans):
    """Each span's request id, inherited from its ancestors when unset."""
    out = [None] * len(spans)
    for index, span in enumerate(spans):
        rid = span[4]
        if rid is None and span[3] is not None:
            rid = out[span[3]]
        out[index] = rid
    return out


def covered_seconds(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

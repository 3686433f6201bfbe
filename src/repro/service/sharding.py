"""Shard routing and admission primitives for the serving front door.

The front door (:mod:`repro.service.frontdoor`) partitions traffic across
N worker *shards* — separate processes, each owning a private
:class:`~repro.service.OptimizerService` with its own plan cache and
breaker state.  This module holds the pieces that make that work:

* :class:`ConsistentHashRing` — maps request signatures onto shards with
  virtual nodes, so isomorphic queries (which share a signature) always
  land on the shard holding their cached plan, and resizing the shard
  count moves only ``~1/N`` of the keyspace.
* :class:`TokenBucket` / :class:`TenantQuotas` — per-tenant admission
  quotas: a tenant names itself in the wire envelope and is throttled by
  its own refilling bucket before any shard work happens.
* :func:`shard_worker_main` — the worker-process side: builds the shard's
  service, optionally warms its cache from a persisted snapshot
  (loading *only* the entries the ring assigns to it), and serves
  ``optimize``/``stats``/``ping``/``save_cache`` ops on the shared
  worker loop (:func:`repro.service.executor.serve_pipe`).
* :class:`ShardClient` / :class:`ShardPool` — the asyncio parent side:
  a bounded queue per shard (backpressure -> HTTP 429 upstream), one
  in-flight op at a time per pipe, the service's one cooperative-deadline
  rule (the remaining budget is stamped into the optimize request so the
  shard's engine stops itself and salvages; a restart only fires when
  the grace on top is also missed), and crash detection with automatic
  restart that preserves the queue.  The process itself is a
  :class:`repro.service.executor.Worker`, the same supervisor as the
  batch pool's, and every op crosses its pipe through the batch pool's
  round trip (:meth:`~repro.service.executor.Worker.roundtrip`).  A
  restarted shard re-warms from the latest
  ring-filtered snapshot (:meth:`ShardClient.save_snapshot`) when one
  exists, falling back to the startup snapshot.

Everything here is stdlib-only (``asyncio``, ``hashlib``); the wire
status mapping lives in :data:`HTTP_STATUS_BY_CODE` so the front door
and tests agree on it.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import math
import os
import time
import warnings
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CatalogError,
    ErrorInfo,
    GraphError,
    InvalidRequestError,
    OptimizationError,
    UnsupportedVersionError,
)
from repro.service.executor import Worker, hard_deadline, serve_pipe, stamp_deadline

__all__ = [
    "ConsistentHashRing",
    "HTTP_STATUS_BY_CODE",
    "ShardClient",
    "ShardPool",
    "TenantQuotas",
    "TokenBucket",
    "error_body",
    "http_status_for_code",
    "parse_request_document",
    "shard_worker_main",
]

#: Stable wire error code -> HTTP status.  Part of the v1 wire schema
#: (documented in ``docs/SERVING.md``); codes must keep their status
#: across releases so clients can branch on either.
HTTP_STATUS_BY_CODE = {
    "malformed_json": 400,
    "invalid_request": 400,
    "unsupported_version": 400,
    "invalid_query": 400,
    "quota_exhausted": 429,
    "over_capacity": 429,
    "admission_rejected": 429,
    "breaker_open": 503,
    "shard_crashed": 503,
    "draining": 503,
    "deadline_exceeded": 504,
    "optimization_failed": 422,
    "retry_exhausted": 422,
    "not_found": 404,
    "method_not_allowed": 405,
    "internal": 500,
}


def http_status_for_code(code: str) -> int:
    """HTTP status for a wire error code (unknown codes map to 500)."""
    return HTTP_STATUS_BY_CODE.get(code, 500)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------


def _ring_point(label: str) -> int:
    """A 64-bit point on the ring for an arbitrary label."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Consistent hash ring with virtual nodes.

    Each shard contributes ``replicas`` points (``sha256`` of
    ``"shard-<index>/<replica>"``); a key is owned by the first point at
    or clockwise after its own hash.  The construction is fully
    deterministic — the worker processes rebuild an identical ring from
    ``(shard_count, replicas)`` alone to decide which snapshot entries to
    warm — and routing a *signature* (not the raw request) means every
    isomorphic relabeling of a query shape routes to the same shard.
    """

    def __init__(self, shard_count: int, replicas: int = 64):
        if shard_count < 1:
            raise OptimizationError(
                f"shard count must be >= 1, got {shard_count}"
            )
        if replicas < 1:
            raise OptimizationError(
                f"ring replicas must be >= 1, got {replicas}"
            )
        self.shard_count = shard_count
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shard_count):
            for replica in range(replicas):
                points.append((_ring_point(f"shard-{shard}/{replica}"), shard))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def owner(self, signature: str) -> int:
        """Return the shard index owning ``signature``."""
        index = bisect.bisect_right(self._keys, _ring_point(signature))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


# ----------------------------------------------------------------------
# Per-tenant admission quotas
# ----------------------------------------------------------------------


class TokenBucket:
    """A refilling token bucket: ``rate`` tokens/second, ``burst`` cap.

    Not thread-safe — the front door runs it on one event loop.  A
    non-positive ``rate`` never refills (the initial burst is all a
    tenant ever gets), which the quota tests use for determinism.  A
    NaN or infinite ``rate`` is refused.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if not math.isfinite(rate):
            raise OptimizationError(f"quota rate must be finite, got {rate}")
        if burst < 1:
            raise OptimizationError(f"quota burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate > 0:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False (and no debit) otherwise."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after_seconds(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 if now)."""
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        wait = deficit / self.rate if self.rate > 0 else math.inf
        # Never refills, or too slowly for a wait worth reporting (a tiny
        # rate, or a denormal one that overflows to inf): tell clients to
        # back off a minute.
        return min(wait, 60.0)


class TenantQuotas:
    """Registry of per-tenant token buckets (bounded, LRU-evicted).

    ``rate=None`` disables admission quotas entirely (every acquire
    succeeds).  Unknown tenants get a fresh bucket on first sight; the
    registry holds at most ``max_tenants`` buckets so a tenant-id flood
    cannot grow memory without bound (an evicted tenant simply starts
    over with a full burst).
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: float = 10.0,
        max_tenants: int = 1024,
        clock=time.monotonic,
    ):
        if rate is not None:
            TokenBucket(rate, burst, clock=clock)  # refuse a bad quota now
        self.rate = rate
        self.burst = burst
        self.max_tenants = max_tenants
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.rejections = 0

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate or 0.0, self.burst, clock=self._clock)
            self._buckets[tenant] = bucket
            while len(self._buckets) > self.max_tenants:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(tenant)
        return bucket

    def try_acquire(self, tenant: str, tokens: float = 1.0) -> bool:
        if not self.enabled:
            return True
        if self._bucket(tenant).try_acquire(tokens):
            return True
        self.rejections += 1
        return False

    def retry_after_seconds(self, tenant: str, tokens: float = 1.0) -> float:
        if not self.enabled:
            return 0.0
        return self._bucket(tenant).retry_after_seconds(tokens)


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------


def _warm_owned_entries(cache, path: str, ring: ConsistentHashRing, shard: int) -> int:
    """Warm ``cache`` with the snapshot entries ``ring`` assigns to ``shard``.

    Reads a snapshot written by :meth:`repro.service.PlanCache.save` (or
    any shard's ``save_cache`` op) and loads only the entries whose
    signature this shard owns — every shard can warm from one shared
    snapshot without duplicating plans it will never be asked for.
    Missing or torn files warm zero entries (with a warning) rather than
    failing shard spin-up; corrupt entries are skipped.
    """
    from repro.serialize import plan_cache_from_dict_tolerant

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return 0
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"cache snapshot {path!r} is unreadable ({exc}); "
            "shard starts cold",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0
    try:
        entries, _rejected = plan_cache_from_dict_tolerant(document)
    except Exception as exc:
        warnings.warn(
            f"cache snapshot {path!r} is not a plan cache ({exc}); "
            "shard starts cold",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0
    warmed = 0
    for entry in entries:
        if ring.owner(entry.signature) == shard:
            cache.put(entry)
            warmed += 1
    return warmed


def parse_request_document(document: Dict[str, Any]):
    """Decode a wire ``optimization_request`` document with typed errors.

    Errors that already carry a precise wire code (unsupported version,
    unusable graph/catalog) pass through; everything else a malformed
    document can raise — wrong ``kind``, missing keys, mistyped values —
    becomes :class:`~repro.errors.InvalidRequestError`, so clients see
    ``invalid_request`` (HTTP 400) rather than ``optimization_failed``.
    """
    from repro import serialize

    try:
        return serialize.request_from_dict(document)
    except (UnsupportedVersionError, GraphError, CatalogError):
        raise
    except Exception as exc:
        raise InvalidRequestError(
            f"undecodable optimization_request document: {exc}"
        ) from exc


def error_body(
    code: str,
    message: str,
    retryable: bool = False,
    request_id: Optional[str] = None,
    shard: Optional[int] = None,
) -> bytes:
    """The v1 ``error`` envelope as compact JSON bytes.

    The one writer of that envelope: the door's own rejections, a
    shard's failed optimize op and the errors the parent mints for a
    shard (:meth:`ShardClient._local_error`) all go through it.
    ``"shard"`` is written only when given.
    """
    envelope: Dict[str, Any] = {"version": 1, "kind": "error", "request_id": request_id}
    if shard is not None:
        envelope["shard"] = shard
    envelope["error"] = ErrorInfo(message, code=code, retryable=retryable).to_dict()
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def _optimize_on_shard(service, job: Dict[str, Any], shard: int):
    """Run one optimize op; returns ``(body, http_status)``.

    ``body`` is the compact JSON bytes of the v1 reply envelope, the only
    form an optimize answer takes on the pipe: an ``optimize_reply`` on
    success, a typed ``error`` envelope (:func:`error_body`) on failure —
    the parent never sees a traceback over the pipe.  A wire-supplied
    ``request_id`` is stamped onto the request's trace root so operators
    can join client logs against shard traces.  The front door's
    ``digest`` of the unstamped document lets a replay skip the decode
    and the canonical labeling (:meth:`OptimizerService.recall`); jobs
    without one, and unknown or evicted digests, take the full path.  A
    replayed cache hit reuses the plan JSON its digest's key keeps
    (:meth:`OptimizerService.wire_plan`), so only the result's small
    fields are encoded around it.
    """
    from repro import serialize

    request_id = job.get("request_id")
    digest = job.get("digest")
    try:
        document = job["request"]
        request = None
        if digest is not None:
            request = service.recall(digest, document.get("deadline_seconds"))
        if request is None:
            request = parse_request_document(document)
        result = service.optimize(request, digest=digest)
    except Exception as exc:
        info = ErrorInfo.from_exception(exc)
        body = error_body(info.code, str(info), info.retryable, request_id, shard)
        return body, http_status_for_code(info.code)
    if request_id is not None and result.trace_id is not None:
        trace = service.traces.get(result.trace_id)
        if trace is not None:
            trace.set_root("request_id", request_id)
    reply = {
        "version": 1,
        "kind": "optimize_reply",
        "request_id": request_id,
        "shard": shard,
    }
    plan_json = service.wire_plan(digest, result.plan, serialize.plan_to_json)
    return serialize.reply_to_json(reply, result, plan_json), 200


def shard_worker_main(
    conn,
    shard: int,
    shard_count: int,
    replicas: int,
    service_kwargs: Dict[str, Any],
    warm_cache_path: Optional[str] = None,
) -> None:
    """Entry point of one shard process: serve ops from ``conn`` until stopped.

    Ops are dicts with an ``"op"`` key; every op gets exactly one reply
    dict carrying ``"version": 1``.  ``optimize`` replies add the HTTP
    ``status`` the front door should send and the reply envelope's
    encoded JSON ``body`` (:func:`_optimize_on_shard`), so the parent's
    event loop frames HTTP around those bytes and decodes no envelope
    (keeping front-door CPU out of the serving hot path).  A failed op of
    any kind carries ``"ok": False`` and a top-level ``error`` dict
    instead.  The loop returns on the ``None`` sentinel or a closed pipe;
    ``crash`` hard-exits for chaos tests.
    """
    from repro.service.core import OptimizerService

    service = OptimizerService(**service_kwargs)
    warmed = 0
    if warm_cache_path:
        ring = ConsistentHashRing(shard_count, replicas)
        warmed = _warm_owned_entries(service.cache, warm_cache_path, ring, shard)

    def handle(job: Dict[str, Any]) -> Dict[str, Any]:
        op = job.get("op")
        if op == "crash":
            # Chaos hook: die without cleanup, like a segfault would.
            os._exit(int(job.get("exit_code", 1)))
        reply: Dict[str, Any] = {"version": 1, "ok": True, "shard": shard}
        try:
            if op == "ping":
                reply.update(pid=os.getpid(), warmed_entries=warmed)
            elif op == "sleep":
                # Test hook: hold the shard busy for a known duration.
                time.sleep(float(job.get("seconds", 0.0)))
            elif op == "stats":
                reply.update(warmed_entries=warmed, stats=service.stats_snapshot())
            elif op == "save_cache":
                reply["entries"] = service.save_cache(job["path"])
            elif op == "optimize":
                reply["body"], reply["status"] = _optimize_on_shard(
                    service, job, shard
                )
            else:
                reply.update(
                    ok=False,
                    error=ErrorInfo(
                        f"unknown shard op {op!r}", code="invalid_request"
                    ).to_dict(),
                )
        except Exception as exc:  # belt-and-braces: never kill the loop
            reply = {
                "version": 1,
                "ok": False,
                "shard": shard,
                "error": ErrorInfo.from_exception(exc).to_dict(),
            }
        return reply

    serve_pipe(conn, handle)


# ----------------------------------------------------------------------
# The asyncio parent side
# ----------------------------------------------------------------------


class ShardClient:
    """Parent-side handle for one shard process.

    Jobs enter a bounded :class:`asyncio.Queue`; :meth:`submit` raises
    :class:`asyncio.QueueFull` when the shard is saturated, which the
    front door turns into HTTP 429.  One drain task per shard sends jobs
    over the pipe one at a time, all on the event loop, through
    :meth:`Worker.roundtrip <repro.service.executor.Worker.roundtrip>`:
    the job is sent straight away (the shard is idle and reading by
    then), and the reply is received once the loop reports the pipe
    readable, so no thread sits between the loop and a shard.  A job
    that outlives its deadline (and the cooperative grace) gets the
    shard restarted — the only way to preempt a CPU-bound enumeration —
    and a crashed shard is detected by the broken pipe and restarted the
    same way; a respawn that fails types its job ``shard_crashed`` and
    the next job respawns again.  The queue lives in the parent, so a
    restart never drops the jobs waiting behind the one that died.
    """

    def __init__(
        self,
        index: int,
        shard_count: int,
        replicas: int,
        service_kwargs: Dict[str, Any],
        warm_cache_path: Optional[str] = None,
        queue_limit: int = 16,
        snapshot_path: Optional[str] = None,
    ):
        self.index = index
        self.shard_count = shard_count
        self.replicas = replicas
        self.service_kwargs = dict(service_kwargs)
        self.warm_cache_path = warm_cache_path
        self.snapshot_path = snapshot_path
        self.queue_limit = queue_limit
        self.restarts = 0
        self.completed = 0
        self.hard_kills_avoided = 0
        self._queue: Optional[asyncio.Queue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._worker = Worker(
            shard_worker_main, self._worker_args(), name=f"repro-shard-{index}"
        )

    # -- process lifecycle ---------------------------------------------

    def _worker_args(self) -> Tuple:
        """Arguments of the next :func:`shard_worker_main` (re)spawn.

        A snapshot written since startup (periodic task or drain) is
        fresher than the startup warm file, so a restarted shard
        re-warms from it — a deadline recycle no longer means starting
        cold and re-enumerating everything the dead process had cached.
        """
        warm_path = self.warm_cache_path
        if self.snapshot_path and os.path.exists(self.snapshot_path):
            warm_path = self.snapshot_path
        return (
            self.index,
            self.shard_count,
            self.replicas,
            self.service_kwargs,
            warm_path,
        )

    def _restart(self) -> None:
        self.restarts += 1
        self._worker.restart(self._worker_args())

    @property
    def alive(self) -> bool:
        return self._worker.process.is_alive()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def health(self) -> Dict[str, Any]:
        """This shard's row in ``/v1/healthz`` and ``/v1/stats``."""
        return {
            "shard": self.index,
            "alive": self.alive,
            "queue_depth": self.queue_depth,
            "restarts": self.restarts,
            "hard_kills_avoided": self.hard_kills_avoided,
        }

    # -- asyncio side --------------------------------------------------

    def start(self) -> None:
        """Create the queue and drain task (call from inside the loop)."""
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain(), name=f"repro-shard-{self.index}-drain"
        )

    def submit(
        self, job: Dict[str, Any], deadline_seconds: Optional[float] = None
    ) -> "asyncio.Future":
        """Enqueue a job; raises :class:`asyncio.QueueFull` when saturated.

        The deadline clock starts *now* — time spent queued behind other
        jobs counts against it, so a saturated shard sheds work instead
        of serving arbitrarily stale requests.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if deadline_seconds is not None:
            job = dict(job)
            job["_deadline_at"] = loop.time() + deadline_seconds
        self._queue.put_nowait((job, future))
        return future

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job, future = await self._queue.get()
            if future.cancelled():
                continue
            payload = await self._roundtrip(loop, job)
            self.completed += 1
            if not future.cancelled():
                future.set_result(payload)

    async def _roundtrip(self, loop, job: Dict[str, Any]) -> Dict[str, Any]:
        deadline_at = job.pop("_deadline_at", None)
        timeout = hard = None
        if deadline_at is not None:
            timeout = deadline_at - loop.time()
            if timeout <= 0:
                return self._local_error(
                    "deadline_exceeded",
                    "request deadline expired while queued for its shard",
                    retryable=True,
                    request_id=job.get("request_id"),
                )
            if isinstance(job.get("request"), dict):
                # The service's one cooperative-deadline rule: ship the
                # remaining budget so the shard's engine stops itself and
                # salvages, and restart the shard only past the grace.
                job = dict(job, request=stamp_deadline(job["request"], timeout))
            hard = hard_deadline(job.get("request"), timeout)
        started = loop.time()
        status, reply = await self._worker.roundtrip(loop, job, hard, self._restart)
        if status == "ok":
            if timeout is not None and loop.time() - started > timeout:
                # The engine cooperated inside the grace window; without
                # it this would have been a kill + restart.
                self.hard_kills_avoided += 1
            return reply
        if status == "timeout":
            return self._local_error(
                "deadline_exceeded",
                f"shard {self.index} exceeded the request deadline; "
                "the shard was recycled",
                retryable=True,
                request_id=job.get("request_id"),
            )
        return self._local_error(
            "shard_crashed",
            f"shard {self.index} died mid-request and was respawned",
            retryable=True,
            request_id=job.get("request_id"),
        )

    def _local_error(
        self,
        code: str,
        message: str,
        retryable: bool,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """A payload shaped like a worker reply, minted in the parent: an
        optimize op reads its ``status`` and ``body``, any op its ``error``."""
        return {
            "version": 1,
            "ok": True,
            "shard": self.index,
            "status": http_status_for_code(code),
            "body": error_body(code, message, retryable, request_id, self.index),
            "error": ErrorInfo(message, code=code, retryable=retryable).to_dict(),
        }

    async def save_snapshot(
        self, timeout_seconds: float = 10.0
    ) -> Optional[int]:
        """Persist this shard's plan cache to its snapshot file.

        Returns the entry count, or ``None`` when no ``snapshot_path``
        is configured or the shard could not take the op (saturated
        queue, crash mid-save).  The file this writes is what
        :meth:`_worker_args` prefers on the next (re)spawn.
        """
        if not self.snapshot_path:
            return None
        try:
            future = self.submit(
                {"op": "save_cache", "path": self.snapshot_path},
                deadline_seconds=timeout_seconds,
            )
        except asyncio.QueueFull:
            return None
        payload = await future
        if payload.get("ok") and "entries" in payload:
            return int(payload["entries"])
        return None

    async def close(self) -> None:
        """Stop the drain task, then the process."""
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        self._worker.stop()


class ShardPool:
    """All shards of one front door, plus the ring that routes to them."""

    def __init__(
        self,
        shard_count: int,
        service_kwargs: Dict[str, Any],
        queue_limit: int = 16,
        replicas: int = 64,
        warm_cache_path: Optional[str] = None,
        snapshot_path: Optional[str] = None,
    ):
        self.ring = ConsistentHashRing(shard_count, replicas)
        self.snapshot_path = snapshot_path
        self.clients = [
            ShardClient(
                index,
                shard_count,
                replicas,
                service_kwargs,
                warm_cache_path=warm_cache_path,
                queue_limit=queue_limit,
                # Per-shard snapshot files: every shard persists only the
                # entries it owns, so concurrent saves never clobber each
                # other; the ring filter on load stays a no-op for the
                # owner and a guard against stale ring geometry.
                snapshot_path=(
                    f"{snapshot_path}.shard{index}" if snapshot_path else None
                ),
            )
            for index in range(shard_count)
        ]

    def __len__(self) -> int:
        return len(self.clients)

    def start(self) -> None:
        for client in self.clients:
            client.start()

    async def snapshot_all(self) -> Dict[int, Optional[int]]:
        """Persist every shard's cache; returns entries saved per shard."""
        counts = await asyncio.gather(
            *(client.save_snapshot() for client in self.clients),
            return_exceptions=True,
        )
        return {
            client.index: (None if isinstance(count, BaseException) else count)
            for client, count in zip(self.clients, counts)
        }

    async def close(self) -> None:
        await asyncio.gather(
            *(client.close() for client in self.clients),
            return_exceptions=True,
        )

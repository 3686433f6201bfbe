"""Async sharded HTTP front door for the optimizer service.

A stdlib-only (``asyncio`` + ``json``) HTTP/1.1 server exposing the
versioned v1 wire API (``docs/SERVING.md``):

* ``POST /v1/optimize`` — one request envelope in, one reply envelope out
* ``POST /v1/optimize_batch`` — a list of request sub-documents, with
  per-item error isolation
* ``GET /v1/stats`` — aggregated per-shard ``stats_snapshot`` documents
* ``GET /v1/healthz`` — liveness plus per-shard queue depth
* ``GET /metrics`` — Prometheus text exposition (the service families
  via :func:`~repro.service.metrics.render_prometheus` plus front-door
  gauges)

Requests are routed by *request signature* over a
:class:`~repro.service.sharding.ConsistentHashRing`, so isomorphic
queries always reach the shard that holds their cached plan.  The hot
path keeps front-door CPU minimal: a bounded LRU **route memo** maps the
raw request document straight to its shard (replayed traffic skips
canonicalization entirely), and shards return pre-encoded reply bodies
so the event loop only frames HTTP bytes.  Admission is two-layered:
per-tenant token buckets reject over-quota tenants with 429 before any
routing work, and each shard's bounded queue rejects overload with 429
+ ``Retry-After`` when the shard cannot keep up.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ErrorInfo
from repro.service.metrics import render_prometheus
from repro.service.sharding import (
    ShardPool,
    TenantQuotas,
    http_status_for_code,
)

__all__ = ["FrontDoor", "FrontDoorConfig"]

_REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Wire version this server speaks; envelopes without a ``version`` field
#: are read as 1, higher versions are rejected with ``unsupported_version``.
WIRE_VERSION = 1


@dataclass
class FrontDoorConfig:
    """Tunables for one :class:`FrontDoor` instance.

    ``quota_rate``/``quota_burst`` express the per-tenant token bucket
    (``None`` rate = quotas off).  ``deadline_seconds`` is the per-request
    wall budget *including* shard queue time; the remaining budget is
    shipped to the shard as a cooperative engine deadline, so the shard
    normally stops itself (salvaging a partial-memo plan) and is only
    restarted when it also misses the fixed grace on top
    (:func:`repro.service.executor.hard_deadline`).
    ``shard_service_kwargs`` is passed through to each shard's
    :class:`~repro.service.OptimizerService` constructor.

    ``snapshot_path`` names a per-shard plan-cache snapshot base (shard
    ``i`` writes ``<path>.shard<i>``): shards persist to it on
    :meth:`FrontDoor.drain` and — when ``snapshot_interval_seconds`` is
    set — periodically, and a respawned shard re-warms from its latest
    snapshot instead of starting cold.  ``drain_grace_seconds`` bounds
    how long :meth:`FrontDoor.drain` waits for in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    queue_limit: int = 16
    quota_rate: Optional[float] = None
    quota_burst: float = 10.0
    deadline_seconds: Optional[float] = 30.0
    ring_replicas: int = 64
    warm_cache_path: Optional[str] = None
    snapshot_path: Optional[str] = None
    snapshot_interval_seconds: Optional[float] = None
    drain_grace_seconds: float = 5.0
    max_body_bytes: int = 8 * 1024 * 1024
    route_memo_size: int = 4096
    shard_service_kwargs: Dict[str, Any] = field(default_factory=dict)


class FrontDoor:
    """The serving process: shard pool + asyncio HTTP server.

    Lifecycle: ``await start()`` (spawns shards, binds the socket; the
    bound port is then available as :attr:`port` — bind port 0 to get an
    ephemeral one), serve until ``await close()``.  All state is owned by
    the event loop; nothing here is thread-safe.
    """

    def __init__(self, config: Optional[FrontDoorConfig] = None):
        self.config = config or FrontDoorConfig()
        self.shards = ShardPool(
            self.config.shards,
            self.config.shard_service_kwargs,
            queue_limit=self.config.queue_limit,
            replicas=self.config.ring_replicas,
            warm_cache_path=self.config.warm_cache_path,
            snapshot_path=self.config.snapshot_path,
        )
        self.quotas = TenantQuotas(
            self.config.quota_rate, self.config.quota_burst
        )
        self._route_memo: "OrderedDict[str, int]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        self._draining = False
        self._inflight = 0
        self.port: Optional[int] = None
        # Front-door-level counters (shard metrics live in the shards).
        self.requests_total: Dict[str, int] = {}
        self.responses_by_status: Dict[int, int] = {}
        self.rejections: Dict[str, int] = {}
        self.route_memo_hits = 0
        self.route_memo_misses = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self.shards.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if (
            self.config.snapshot_path
            and self.config.snapshot_interval_seconds
        ):
            self._snapshot_task = asyncio.get_running_loop().create_task(
                self._snapshot_loop(), name="repro-frontdoor-snapshot"
            )

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def _snapshot_loop(self) -> None:
        """Periodically persist every shard's cache to its snapshot file.

        Keeps the re-warm snapshot fresh so a recycled shard comes back
        with (almost) the cache its predecessor had, instead of only
        whatever the startup warm file held.
        """
        interval = self.config.snapshot_interval_seconds
        while True:
            await asyncio.sleep(interval)
            await self.shards.snapshot_all()

    async def drain(self, grace_seconds: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, persist.

        New connections are refused and new requests on live keep-alive
        connections get 503; requests already accepted (or queued on a
        shard) are given up to ``grace_seconds`` (default: the config's
        ``drain_grace_seconds``) to finish.  Shard caches are then
        persisted to their snapshot files (when ``snapshot_path`` is
        configured) before the shards are shut down, so the next start —
        or a supervisor's immediate restart — warms from today's plans.
        Idempotent: a second call just waits for the first shutdown.
        """
        self._draining = True
        if grace_seconds is None:
            grace_seconds = self.config.drain_grace_seconds
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, grace_seconds)
        while loop.time() < deadline and (
            self._inflight
            or any(client.queue_depth for client in self.shards.clients)
        ):
            await asyncio.sleep(0.05)
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self.config.snapshot_path:
            await self.shards.snapshot_all()
        await self.shards.close()

    async def close(self) -> None:
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.shards.close()

    # -- HTTP framing --------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, path, http_version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await self._write_error(
                        writer, 400, "invalid_request", "malformed request line"
                    )
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await self._write_error(
                        writer, 400, "invalid_request",
                        "unparseable Content-Length header",
                    )
                    break
                if length > self.config.max_body_bytes:
                    await self._write_error(
                        writer, 413, "invalid_request",
                        f"request body of {length} bytes exceeds the "
                        f"{self.config.max_body_bytes}-byte limit",
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    http_version.upper() != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload, content_type, extra = await self._dispatch(
                    method.upper(), path, body
                )
                await self._write_response(
                    writer, status, payload, content_type, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            ValueError,  # header/line longer than the stream limit
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _write_response(
        self,
        writer,
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
        keep_alive: bool = True,
    ) -> None:
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        reason = _REASON_PHRASES.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers or ():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    async def _write_error(
        self, writer, status: int, code: str, message: str
    ) -> None:
        body = _error_body(code, message)
        await self._write_response(
            writer, status, body, "application/json", keep_alive=False
        )

    # -- routing and dispatch ------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str, Optional[List[Tuple[str, str]]]]:
        path = path.split("?", 1)[0]
        if self._draining and path != "/v1/healthz":
            # Keep-alive connections opened before the drain can still
            # deliver requests after the listener closed; refuse them so
            # the grace period only has to cover work already admitted.
            self._reject("draining")
            return (
                503,
                _error_body(
                    "draining",
                    "server is draining for shutdown",
                    retryable=True,
                ),
                "application/json",
                [("Retry-After", "1")],
            )
        routes = {
            "/v1/optimize": ("POST", self._handle_optimize),
            "/v1/optimize_batch": ("POST", self._handle_optimize_batch),
            "/v1/stats": ("GET", self._handle_stats),
            "/v1/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
        }
        entry = routes.get(path)
        if entry is None:
            return (
                404,
                _error_body("not_found", f"no such endpoint: {path}"),
                "application/json",
                None,
            )
        expected_method, handler = entry
        if method != expected_method:
            return (
                405,
                _error_body(
                    "method_not_allowed",
                    f"{path} only accepts {expected_method}",
                ),
                "application/json",
                [("Allow", expected_method)],
            )
        self.requests_total[path] = self.requests_total.get(path, 0) + 1
        self._inflight += 1
        try:
            return await handler(body)
        finally:
            self._inflight -= 1

    def _route(self, request_document: Dict[str, Any]) -> int:
        """Resolve a request sub-document to its owning shard index.

        The memo keys on the canonical JSON of the *raw* document, so an
        exact replay costs one hash; a miss pays full deserialization +
        canonicalization once and funds every future replay.  An
        isomorphic-but-relabeled request misses the memo but still
        computes the same signature, so it lands on the same shard (and
        its warm cache entry) anyway.
        """
        blob = json.dumps(
            request_document, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        memo_key = hashlib.sha256(blob).hexdigest()
        shard = self._route_memo.get(memo_key)
        if shard is not None:
            self._route_memo.move_to_end(memo_key)
            self.route_memo_hits += 1
            return shard
        self.route_memo_misses += 1
        from repro.service.core import service_signature
        from repro.service.sharding import parse_request_document

        # Sign with the shards' own settings (default cost model,
        # resilience limits, rounding), so the signature is the one the
        # owning shard computes.
        settings = {
            key: value
            for key, value in self.config.shard_service_kwargs.items()
            if key in ("default_cost_model", "resilience", "round_digits")
        }
        request = parse_request_document(request_document)
        _cost_model, _effective, signature, _order = service_signature(
            request, request.resolved_catalog(), **settings
        )
        shard = self.shards.ring.owner(signature)
        self._route_memo[memo_key] = shard
        while len(self._route_memo) > self.config.route_memo_size:
            self._route_memo.popitem(last=False)
        return shard

    def _reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def _check_envelope(
        self, body: bytes
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Tuple[int, bytes]]]:
        """Parse and version-check a wire envelope.

        Returns ``(envelope, None)`` on success or ``(None, (status,
        error_body))`` on rejection, so handlers can early-return.
        """
        try:
            envelope = json.loads(body)
        except ValueError as exc:
            self._reject("malformed_json")
            return None, (
                400,
                _error_body("malformed_json", f"request body is not JSON: {exc}"),
            )
        if not isinstance(envelope, dict):
            self._reject("malformed_json")
            return None, (
                400,
                _error_body(
                    "malformed_json",
                    "request body must be a JSON object envelope",
                ),
            )
        version = envelope.get("version", WIRE_VERSION)
        if (
            not isinstance(version, int)
            or isinstance(version, bool)
            or version < 1
            or version > WIRE_VERSION
        ):
            self._reject("unsupported_version")
            return None, (
                400,
                _error_body(
                    "unsupported_version",
                    f"envelope version {version!r} is not supported; this "
                    f"server speaks versions 1..{WIRE_VERSION}",
                    request_id=_request_id_of(envelope),
                ),
            )
        return envelope, None

    # -- endpoints -----------------------------------------------------

    async def _optimize_one(
        self,
        document: Dict[str, Any],
        tenant: str,
        request_id: Optional[str],
        encode_reply: bool = False,
    ) -> Tuple[int, Dict[str, Any], Optional[str]]:
        """Quota → route → submit → await for one request document.

        Shared by ``/v1/optimize`` and every ``/v1/optimize_batch``
        item.  Returns ``(http_status, payload, retry_after)``:
        ``payload`` is the shard's reply (a ``reply`` envelope plus, with
        ``encode_reply``, its pre-encoded ``body``) or a local rejection
        carrying only the error ``reply``; ``retry_after`` is the
        ``Retry-After`` header value owed to a 429, else None.
        """

        def rejected(status, code, message, retryable=False, retry_after=None):
            self._reject(code)
            reply = _error_envelope(
                code, message, retryable=retryable, request_id=request_id
            )
            return status, {"reply": reply}, retry_after

        if not self.quotas.try_acquire(tenant):
            return rejected(
                429,
                "quota_exhausted",
                f"tenant {tenant!r} is over its admission quota",
                retryable=True,
                retry_after=_retry_after_header(
                    self.quotas.retry_after_seconds(tenant)
                ),
            )
        try:
            shard_index = self._route(document)
        except Exception as exc:
            info = ErrorInfo.from_exception(exc)
            return rejected(
                http_status_for_code(info.code),
                info.code,
                str(info),
                retryable=info.retryable,
            )
        client = self.shards.clients[shard_index]
        job = {"op": "optimize", "request": document, "request_id": request_id}
        if encode_reply:
            job["encode_reply"] = True
        try:
            future = client.submit(
                job, deadline_seconds=self.config.deadline_seconds
            )
        except asyncio.QueueFull:
            return rejected(
                429,
                "over_capacity",
                f"shard {shard_index} is at its queue limit "
                f"({client.queue_limit} waiting requests)",
                retryable=True,
                retry_after="1",
            )
        payload = await future
        status = payload.get("status", 500)
        return status, payload, "1" if status == 429 else None

    async def _handle_optimize(self, body: bytes):
        envelope, rejection = self._check_envelope(body)
        if rejection is not None:
            status, payload = rejection
            return status, payload, "application/json", None
        request_id = _request_id_of(envelope)
        document = envelope.get("request")
        if not isinstance(document, dict):
            self._reject("invalid_request")
            return (
                400,
                _error_body(
                    "invalid_request",
                    "envelope must carry a 'request' object "
                    "(a serialized optimization_request)",
                    request_id=request_id,
                ),
                "application/json",
                None,
            )
        tenant = str(envelope.get("tenant") or "default")
        status, payload, retry_after = await self._optimize_one(
            document, tenant, request_id, encode_reply=True
        )
        reply_body = payload.get("body")
        if reply_body is None:
            reply_body = json.dumps(
                payload.get("reply", {}), separators=(",", ":")
            ).encode("utf-8")
        extra = None
        if retry_after is not None:
            extra = [("Retry-After", retry_after)]
        return status, reply_body, "application/json", extra

    async def _handle_optimize_batch(self, body: bytes):
        envelope, rejection = self._check_envelope(body)
        if rejection is not None:
            status, payload = rejection
            return status, payload, "application/json", None
        request_id = _request_id_of(envelope)
        documents = envelope.get("requests")
        if not isinstance(documents, list):
            self._reject("invalid_request")
            return (
                400,
                _error_body(
                    "invalid_request",
                    "envelope must carry a 'requests' list",
                    request_id=request_id,
                ),
                "application/json",
                None,
            )
        tenant = str(envelope.get("tenant") or "default")

        async def run_item(index: int, document: Any) -> Dict[str, Any]:
            item_id = (
                f"{request_id}/{index}" if request_id is not None else None
            )
            if not isinstance(document, dict):
                return _error_envelope(
                    "invalid_request",
                    f"requests[{index}] must be a serialized "
                    "optimization_request object",
                    request_id=item_id,
                )
            _status, payload, _retry_after = await self._optimize_one(
                document, tenant, item_id
            )
            return payload.get(
                "reply",
                _error_envelope("internal", "shard returned no reply"),
            )

        results = await asyncio.gather(
            *(run_item(i, doc) for i, doc in enumerate(documents))
        )
        reply = {
            "version": WIRE_VERSION,
            "kind": "optimize_batch_reply",
            "request_id": request_id,
            "results": list(results),
        }
        return (
            200,
            json.dumps(reply, separators=(",", ":")).encode("utf-8"),
            "application/json",
            None,
        )

    async def _handle_stats(self, body: bytes):
        async def shard_stats(client) -> Dict[str, Any]:
            base = client.health()
            try:
                future = client.submit({"op": "stats"}, deadline_seconds=5.0)
            except asyncio.QueueFull:
                base["unavailable"] = "queue_full"
                return base
            payload = await future
            if payload.get("ok") and "stats" in payload:
                base["warmed_entries"] = payload.get("warmed_entries", 0)
                base["stats"] = payload["stats"]
            else:
                base["unavailable"] = (
                    payload.get("reply", {}).get("error", {}).get(
                        "code", "unavailable"
                    )
                )
            return base

        shards = await asyncio.gather(
            *(shard_stats(client) for client in self.shards.clients)
        )
        reply = {
            "version": WIRE_VERSION,
            "kind": "stats_reply",
            "frontdoor": self._frontdoor_counters(),
            "shards": list(shards),
        }
        return (
            200,
            json.dumps(reply, separators=(",", ":")).encode("utf-8"),
            "application/json",
            None,
        )

    async def _handle_healthz(self, body: bytes):
        reply = {
            "version": WIRE_VERSION,
            "kind": "healthz_reply",
            "status": "draining" if self._draining else "ok",
            "shards": [client.health() for client in self.shards.clients],
        }
        return (
            200,
            json.dumps(reply, separators=(",", ":")).encode("utf-8"),
            "application/json",
            None,
        )

    async def _handle_metrics(self, body: bytes):
        """Prometheus exposition: shard service families + front-door gauges.

        Shard snapshots are fetched through the same queues as requests
        (a deliberately cheap op); a saturated shard is simply absent
        from the merged families for that scrape rather than stalling it.
        """
        blocks: List[str] = []
        for client in self.shards.clients:
            try:
                future = client.submit({"op": "stats"}, deadline_seconds=5.0)
            except asyncio.QueueFull:
                continue
            payload = await future
            if payload.get("ok") and "stats" in payload:
                blocks.append(
                    render_prometheus(
                        payload["stats"], prefix=f"repro_shard{client.index}"
                    )
                )
        blocks.append(self._frontdoor_metrics_block())
        text = "\n".join(block.rstrip("\n") for block in blocks if block) + "\n"
        return (
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            None,
        )

    # -- front-door metrics --------------------------------------------

    def _frontdoor_counters(self) -> Dict[str, Any]:
        return {
            "requests_total": dict(self.requests_total),
            "responses_by_status": {
                str(status): count
                for status, count in sorted(self.responses_by_status.items())
            },
            "rejections": dict(self.rejections),
            "route_memo": {
                "hits": self.route_memo_hits,
                "misses": self.route_memo_misses,
                "size": len(self._route_memo),
            },
            "quota_rejections": self.quotas.rejections,
            "shards": self.config.shards,
        }

    def _frontdoor_metrics_block(self) -> str:
        lines = [
            "# HELP repro_frontdoor_requests_total HTTP requests accepted "
            "per endpoint.",
            "# TYPE repro_frontdoor_requests_total counter",
        ]
        for path, count in sorted(self.requests_total.items()):
            lines.append(
                f'repro_frontdoor_requests_total{{endpoint="{path}"}} {count}'
            )
        lines += [
            "# HELP repro_frontdoor_responses_total HTTP responses by "
            "status code.",
            "# TYPE repro_frontdoor_responses_total counter",
        ]
        for status, count in sorted(self.responses_by_status.items()):
            lines.append(
                f'repro_frontdoor_responses_total{{status="{status}"}} {count}'
            )
        lines += [
            "# HELP repro_frontdoor_rejections_total Requests rejected "
            "before reaching a shard, by reason.",
            "# TYPE repro_frontdoor_rejections_total counter",
        ]
        for reason, count in sorted(self.rejections.items()):
            lines.append(
                f'repro_frontdoor_rejections_total{{reason="{reason}"}} {count}'
            )
        lines += [
            "# HELP repro_frontdoor_route_memo_hits_total Route memo hits.",
            "# TYPE repro_frontdoor_route_memo_hits_total counter",
            f"repro_frontdoor_route_memo_hits_total {self.route_memo_hits}",
            "# HELP repro_frontdoor_route_memo_misses_total Route memo "
            "misses.",
            "# TYPE repro_frontdoor_route_memo_misses_total counter",
            f"repro_frontdoor_route_memo_misses_total {self.route_memo_misses}",
            "# HELP repro_frontdoor_shard_queue_depth Requests waiting in "
            "each shard's queue.",
            "# TYPE repro_frontdoor_shard_queue_depth gauge",
        ]
        for client in self.shards.clients:
            lines.append(
                f'repro_frontdoor_shard_queue_depth{{shard="{client.index}"}} '
                f"{client.queue_depth}"
            )
        lines += [
            "# HELP repro_frontdoor_shard_restarts_total Times each shard "
            "process was respawned (crash or deadline kill).",
            "# TYPE repro_frontdoor_shard_restarts_total counter",
        ]
        for client in self.shards.clients:
            lines.append(
                f'repro_frontdoor_shard_restarts_total{{shard="{client.index}"}} '
                f"{client.restarts}"
            )
        lines += [
            "# HELP repro_frontdoor_shard_hard_kills_avoided_total "
            "Deadline-busting requests a shard resolved cooperatively "
            "(salvage inside the grace) instead of being recycled.",
            "# TYPE repro_frontdoor_shard_hard_kills_avoided_total counter",
        ]
        for client in self.shards.clients:
            lines.append(
                "repro_frontdoor_shard_hard_kills_avoided_total"
                f'{{shard="{client.index}"}} {client.hard_kills_avoided}'
            )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Envelope helpers
# ----------------------------------------------------------------------


def _request_id_of(envelope: Dict[str, Any]) -> Optional[str]:
    request_id = envelope.get("request_id")
    if request_id is None:
        return None
    return str(request_id)


def _error_envelope(
    code: str,
    message: str,
    retryable: bool = False,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    return {
        "version": WIRE_VERSION,
        "kind": "error",
        "request_id": request_id,
        "error": ErrorInfo(message, code=code, retryable=retryable).to_dict(),
    }


def _error_body(
    code: str,
    message: str,
    retryable: bool = False,
    request_id: Optional[str] = None,
) -> bytes:
    return json.dumps(
        _error_envelope(code, message, retryable, request_id),
        separators=(",", ":"),
    ).encode("utf-8")


def _retry_after_header(seconds: float) -> str:
    """Render a quota deficit as an HTTP ``Retry-After`` value.

    A true ceiling with a floor of one second: sub-second deficits must
    never emit ``Retry-After: 0`` (an immediate-retry invitation), and a
    deficit of 1.0005s genuinely needs 2 whole seconds — ``int(x +
    0.999)`` got both of those wrong at the edges.
    """
    return str(max(1, math.ceil(seconds)))

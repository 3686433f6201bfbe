"""End-to-end tests for the sharded async HTTP front door.

Each test boots a real :class:`~repro.service.FrontDoor` (shard
processes, consistent-hash routing, the works) on an ephemeral port
inside the test's own event loop and talks to it over a raw asyncio TCP
client — the same bytes a production client would send.
"""

import asyncio
import errno
import json

import pytest

from repro.catalog.workload import WorkloadGenerator
from repro.optimizer.api import OptimizationRequest
from repro import serialize
from repro.cost.physical import PhysicalCostModel
from repro.errors import OptimizationError
from repro.service import (
    FrontDoor,
    FrontDoorConfig,
    OptimizerService,
    ResilienceConfig,
)
from repro.service.frontdoor import _request_digest, _retry_after_header
from repro.service.sharding import TenantQuotas, TokenBucket, error_body

from .conftest import chain3_catalog, pin_dpconv_kernel, relabelled_catalog


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run(coro):
    """Run one async test body in a fresh event loop."""
    asyncio.run(asyncio.wait_for(coro, timeout=120.0))


async def http_request(port, method, path, body=None, raw_body=None, parse=True):
    """One HTTP exchange; returns (status, headers, parsed-or-raw body).

    ``parse=False`` returns the body bytes as sent.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = raw_body
        if payload is None:
            payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: test\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if not parse:
        return status, headers, body_bytes
    try:
        parsed = json.loads(body_bytes)
    except ValueError:
        parsed = body_bytes
    return status, headers, parsed


def compact(document):
    """The wire's compact JSON encoding of a decoded document."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


class door_on:
    """Async context manager: start a FrontDoor, close it on the way out."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("shards", 2)
        config_kwargs.setdefault("deadline_seconds", 30.0)
        self.config = FrontDoorConfig(**config_kwargs)

    async def __aenter__(self):
        self.door = FrontDoor(self.config)
        await self.door.start()
        return self.door

    async def __aexit__(self, *exc_info):
        await self.door.close()


def request_document(
    seed=1, shape="chain", n=7, algorithm="tdmincutbranch", cost_model=None
):
    instance = WorkloadGenerator(seed=seed).fixed_shape(shape, n)
    request = OptimizationRequest(
        query=instance.catalog, algorithm=algorithm, cost_model=cost_model
    )
    return serialize.request_to_dict(request)


def envelope(document, tenant=None, request_id=None, version=1):
    wire = {"version": version, "request": document}
    if tenant is not None:
        wire["tenant"] = tenant
    if request_id is not None:
        wire["request_id"] = request_id
    return wire


def relabelled_document(document, permutation):
    """The same request under a different vertex numbering (isomorphic)."""
    request = serialize.request_from_dict(document)
    relabelled = relabelled_catalog(request.resolved_catalog(), permutation)
    return serialize.request_to_dict(
        OptimizationRequest(query=relabelled, algorithm=request.algorithm)
    )


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------


class TestOptimizeEndpoint:
    def test_cold_then_warm_hits_same_shard(self):
        async def body():
            async with door_on() as door:
                document = request_document(seed=1)
                status, _, cold = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(document, request_id="r-cold"),
                )
                assert status == 200
                assert cold["version"] == 1
                assert cold["kind"] == "optimize_reply"
                assert cold["request_id"] == "r-cold"
                assert cold["result"]["cache_hit"] is False
                assert cold["result"]["plan"] is not None
                status, _, warm = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(document, request_id="r-warm"),
                )
                assert status == 200
                assert warm["result"]["cache_hit"] is True
                assert warm["shard"] == cold["shard"]

        run(body())

    def test_isomorphic_relabeling_routes_to_same_shard_and_hits(self):
        async def body():
            async with door_on() as door:
                document = request_document(seed=3, n=6)
                status, _, cold = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200 and cold["result"]["cache_hit"] is False
                permuted = relabelled_document(document, [3, 1, 5, 0, 2, 4])
                assert permuted != document
                status, _, warm = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(permuted)
                )
                assert status == 200
                # Same signature -> same shard -> that shard's warm cache.
                assert warm["shard"] == cold["shard"]
                assert warm["result"]["cache_hit"] is True
                assert warm["result"]["signature"] == cold["result"]["signature"]

        run(body())

    def test_batch_isolates_bad_items(self):
        async def body():
            async with door_on() as door:
                good = request_document(seed=5)
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize_batch",
                    {
                        "version": 1,
                        "request_id": "b1",
                        "requests": [good, {"kind": "junk"}, good],
                    },
                )
                assert status == 200
                assert reply["kind"] == "optimize_batch_reply"
                kinds = [item["kind"] for item in reply["results"]]
                assert kinds == ["optimize_reply", "error", "optimize_reply"]
                assert reply["results"][1]["error"]["code"] == "invalid_request"
                assert reply["results"][1]["request_id"] == "b1/1"
                # The second good item hit the cache warmed by the first.
                assert reply["results"][2]["result"]["cache_hit"] is True

        run(body())

    def test_batch_reply_is_the_compact_encoding_of_its_items(self):
        # Item bodies are spliced into the envelope as bytes; the reply
        # must equal encoding the decoded envelope, whatever each item
        # is: a miss, a hit, a non-object, a route rejection or a quota
        # rejection.  A burst of 3 admits the first three dict items.
        async def body():
            async with door_on(quota_rate=0.0, quota_burst=3) as door:
                good = request_document(seed=31, n=6)
                other = request_document(seed=32, shape="star", n=5)
                status, _, raw = await http_request(
                    door.port, "POST", "/v1/optimize_batch",
                    {
                        "version": 1,
                        "request_id": "sp",
                        "tenant": "t",
                        "requests": [good, 7, {"kind": "junk"}, good, other],
                    },
                    parse=False,
                )
                assert status == 200
                reply = json.loads(raw)
                assert raw == compact(reply)
                items = reply["results"]
                assert [item["kind"] for item in items] == [
                    "optimize_reply", "error", "error", "optimize_reply", "error"
                ]
                assert [item["request_id"] for item in items] == [
                    f"sp/{index}" for index in range(5)
                ]
                codes = [items[index]["error"]["code"] for index in (1, 2, 4)]
                assert codes == ["invalid_request"] * 2 + ["quota_exhausted"]
                assert items[3]["result"]["cache_hit"] is True
                status, _, raw = await http_request(
                    door.port, "POST", "/v1/optimize_batch",
                    {"requests": []}, parse=False,
                )
                assert status == 200
                assert raw == compact(
                    {
                        "version": 1,
                        "kind": "optimize_batch_reply",
                        "request_id": None,
                        "results": [],
                    }
                )

        run(body())

    def test_missing_version_field_is_read_as_v1(self):
        async def body():
            async with door_on() as door:
                wire = {"request": request_document(seed=7)}
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", wire
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())

    def test_sub_quantum_drift_with_bumped_epoch_misses_then_hits(self):
        # Every statistic moves by less than the signature's rounding
        # quantum, so only the bumped stats_epoch separates the two
        # documents: the drifted one must be computed fresh, then cached.
        async def body():
            async with door_on() as door:
                document = serialize.request_to_dict(
                    OptimizationRequest(query=chain3_catalog())
                )
                status, _, first = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                drifted = json.loads(json.dumps(document))
                for relation in drifted["query"]["relations"]:
                    relation["cardinality"] *= 1.0 + 1e-9
                for edge in drifted["query"]["selectivities"]:
                    edge["selectivity"] *= 1.0 + 1e-9
                drifted["stats_epoch"] = 1
                status, _, after = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(drifted)
                )
                assert status == 200
                assert after["result"]["cache_hit"] is False
                assert after["result"]["signature"] != first["result"]["signature"]
                status, _, again = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(drifted)
                )
                assert status == 200
                assert again["result"]["cache_hit"] is True
                assert again["result"]["signature"] == after["result"]["signature"]

        run(body())


# ----------------------------------------------------------------------
# Typed rejections
# ----------------------------------------------------------------------


class TestRouting:
    @pytest.mark.parametrize(
        "service_kwargs",
        [
            {},
            {"resilience": ResilienceConfig(max_ccp_budget=50)},
            {"default_cost_model": PhysicalCostModel(), "round_digits": 3},
        ],
        ids=["defaults", "resilience", "default_cost_model"],
    )
    def test_door_routes_to_the_owner_of_the_shard_signature(
        self, monkeypatch, service_kwargs
    ):
        # The door resolves "auto" with the shards' inputs, so a request
        # the shard runs on dpconv (clique-10) and one it runs on the
        # top-down kernel (chain-14) both land on the shard whose cache
        # holds the plan.  No resilience setting moves "auto": under the
        # budget, chain-14 takes the anytime rung and is still keyed
        # where the door routes it.  No shard process is started.
        pin_dpconv_kernel(monkeypatch, True)
        door = FrontDoor(
            FrontDoorConfig(shards=4, shard_service_kwargs=service_kwargs)
        )
        shard_side = OptimizerService(**service_kwargs)
        engines = set()
        for shape, n in (("clique", 10), ("chain", 14)):
            document = request_document(seed=5, shape=shape, n=n, algorithm="auto")
            result = shard_side.optimize(serialize.request_from_dict(document))
            engines.add(result.details.get("kernel"))
            assert door._route(document) == door.shards.ring.owner(result.signature)
        if not service_kwargs:
            assert engines == {"dpconv", "fast"}


class TestRejections:
    def test_the_error_envelope_names_its_shard_only_when_given(self):
        assert error_body("internal", "m", request_id="r") == (
            b'{"version":1,"kind":"error","request_id":"r",'
            b'"error":{"code":"internal","message":"m","retryable":false}}'
        )
        assert error_body("shard_crashed", "m", True, None, 2) == (
            b'{"version":1,"kind":"error","request_id":null,"shard":2,'
            b'"error":{"code":"shard_crashed","message":"m","retryable":true}}'
        )

    def test_a_shard_op_failing_outside_its_handling_is_a_typed_500(
        self, monkeypatch
    ):
        # Patched before the shards fork: every reply encode raises after
        # the optimization ran, outside the op's own error envelope, so
        # the shard sends a payload without a body.
        def broken(*args, **kwargs):
            raise RuntimeError("encoder down")

        monkeypatch.setattr(serialize, "reply_to_json", broken)

        async def body():
            async with door_on() as door:
                status, _, raw = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=33), request_id="enc"),
                    parse=False,
                )
                assert status == 500
                reply = json.loads(raw)
                assert raw == compact(reply)
                assert reply["kind"] == "error"
                assert reply["request_id"] == "enc"
                assert reply["error"]["code"] == "internal"
                assert "encoder down" in reply["error"]["message"]
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize_batch",
                    {"request_id": "encb", "requests": [request_document(seed=34)]},
                )
                assert status == 200
                [item] = reply["results"]
                assert item["error"]["code"] == "internal"
                assert item["request_id"] == "encb/0"
                assert all(client.restarts == 0 for client in door.shards.clients)

        run(body())

    def test_malformed_json_is_400_typed(self):
        async def body():
            async with door_on() as door:
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", raw_body=b"{not json"
                )
                assert status == 400
                assert reply["kind"] == "error"
                assert reply["error"]["code"] == "malformed_json"
                assert reply["error"]["retryable"] is False

        run(body())

    def test_unsupported_envelope_version_is_400(self):
        async def body():
            async with door_on() as door:
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(), version=99, request_id="v99"),
                )
                assert status == 400
                assert reply["error"]["code"] == "unsupported_version"
                assert reply["request_id"] == "v99"

        run(body())

    def test_unsupported_request_document_version_is_400(self):
        async def body():
            async with door_on() as door:
                document = request_document()
                document["version"] = 42
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 400
                assert reply["error"]["code"] == "unsupported_version"

        run(body())

    def test_missing_request_object_is_400(self):
        async def body():
            async with door_on() as door:
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", {"version": 1}
                )
                assert status == 400
                assert reply["error"]["code"] == "invalid_request"

        run(body())

    @pytest.mark.parametrize(
        "params",
        [
            {"output_weight": float("nan")},
            {
                "implementations": [
                    {"class": "NestedLoopJoin", "name": "nestedloop", "buffer_pages": 0}
                ]
            },
        ],
        ids=["nan-weight", "zero-buffer"],
    )
    def test_invalid_cost_parameters_are_400(self, params):
        # Refused when the shard decodes the model, before any pricing.
        async def body():
            async with door_on() as door:
                document = request_document(cost_model=PhysicalCostModel())
                document["cost_model"]["params"].update(params)
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 400
                assert reply["error"]["code"] == "invalid_request"
                assert "must be a finite number" in reply["error"]["message"]

        run(body())

    @pytest.mark.parametrize("length", ["-5", "five"])
    def test_bad_content_length_is_400_typed(self, length):
        async def body():
            async with door_on(shards=1) as door:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", door.port
                )
                writer.write(
                    (
                        "POST /v1/optimize HTTP/1.1\r\nHost: test\r\n"
                        f"Content-Length: {length}\r\n\r\n"
                    ).encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 ")
                reply = json.loads(payload)
                assert reply["error"]["code"] == "invalid_request"
                assert length in reply["error"]["message"]

        run(body())

    def test_unknown_path_and_wrong_method(self):
        async def body():
            async with door_on() as door:
                status, _, reply = await http_request(
                    door.port, "GET", "/v1/nope"
                )
                assert status == 404
                assert reply["error"]["code"] == "not_found"
                status, headers, reply = await http_request(
                    door.port, "GET", "/v1/optimize"
                )
                assert status == 405
                assert reply["error"]["code"] == "method_not_allowed"
                assert headers.get("allow") == "POST"

        run(body())

    def test_tenant_quota_exhaustion_is_429_and_isolated(self):
        async def body():
            # rate=0: the burst of 2 is all a tenant ever gets.
            async with door_on(
                quota_rate=0.0, quota_burst=2.0, shards=1
            ) as door:
                document = request_document(seed=11, n=5)
                for _ in range(2):
                    status, _, _reply = await http_request(
                        door.port, "POST", "/v1/optimize",
                        envelope(document, tenant="greedy"),
                    )
                    assert status == 200
                status, headers, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(document, tenant="greedy"),
                )
                assert status == 429
                assert reply["error"]["code"] == "quota_exhausted"
                assert reply["error"]["retryable"] is True
                assert "retry-after" in headers
                # Another tenant is unaffected.
                status, _, _reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(document, tenant="patient"),
                )
                assert status == 200

        run(body())


class TestRetryAfter:
    def test_fractional_deficit_never_rounds_to_zero(self):
        assert _retry_after_header(0.0) == "1"
        assert _retry_after_header(0.25) == "1"
        assert _retry_after_header(0.999) == "1"

    def test_true_ceiling_above_one_second(self):
        # int(x + 0.999) under-reported these: a 1.0005s deficit needs
        # 2 whole seconds of waiting, not 1.
        assert _retry_after_header(1.0) == "1"
        assert _retry_after_header(1.0005) == "2"
        assert _retry_after_header(1.2) == "2"
        assert _retry_after_header(59.001) == "60"

    def test_bucket_fractional_deficit_maps_to_one_second(self):
        now = [0.0]
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        deficit = bucket.retry_after_seconds()
        assert 0.0 < deficit < 1.0
        assert _retry_after_header(deficit) == "1"

    def test_denormal_rate_reports_the_non_refilling_wait(self):
        # 1 / 1e-320 overflows to inf, which math.ceil cannot render.
        now = [0.0]
        bucket = TokenBucket(rate=1e-320, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after_seconds() == 60.0
        assert _retry_after_header(bucket.retry_after_seconds()) == "60"

    @pytest.mark.parametrize("rate", [1e-300, 1e-3])
    def test_tiny_rate_caps_the_wait_at_a_minute(self, rate):
        # deficit / 1e-300 is finite but 1e300 s: a 301-digit header.
        now = [0.0]
        bucket = TokenBucket(rate=rate, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after_seconds() == 60.0
        assert _retry_after_header(bucket.retry_after_seconds()) == "60"

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rate_is_refused_before_serving(self, rate, capsys):
        from repro.cli import main

        with pytest.raises(OptimizationError):
            TokenBucket(rate=rate, burst=1.0)
        with pytest.raises(OptimizationError):
            TenantQuotas(rate)
        assert main(["serve", "--port", "0", f"--quota={rate}"]) == 1
        assert "quota rate must be finite" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Backpressure and crash recovery
# ----------------------------------------------------------------------


class TestBackpressureAndCrashes:
    def test_saturated_shard_queue_returns_429(self):
        async def body():
            async with door_on(shards=2, queue_limit=2) as door:
                document = request_document(seed=13, n=5)
                target = door._route(envelope(document)["request"])
                client = door.shards.clients[target]
                # Hold the shard busy, then fill its queue with sleepers.
                blockers = [client.submit({"op": "sleep", "seconds": 1.5})]
                await asyncio.sleep(0.1)  # let the drain task take it
                blockers += [
                    client.submit({"op": "sleep", "seconds": 0.1})
                    for _ in range(2)  # 1 in flight + 2 queued = full
                ]
                status, headers, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 429
                assert reply["error"]["code"] == "over_capacity"
                assert reply["error"]["retryable"] is True
                assert headers.get("retry-after") == "1"
                await asyncio.gather(*blockers)
                # Once drained, the same request is served normally.
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())

    def test_shard_crash_is_typed_and_recycled_without_hurting_others(self):
        async def body():
            async with door_on(shards=2) as door:
                document = request_document(seed=17, n=5)
                target = door._route(envelope(document)["request"])
                victim = door.shards.clients[target]
                other = door.shards.clients[1 - target]
                restarts_before = victim.restarts
                # Queue real work behind the crash on the same shard: it
                # must survive the respawn.
                crash_future = victim.submit({"op": "crash"}, deadline_seconds=10.0)
                after_future = victim.submit(
                    {
                        "op": "optimize",
                        "request": document,
                        "request_id": "after-crash",
                    },
                    deadline_seconds=30.0,
                )
                crash_payload = await crash_future
                crash_reply = json.loads(crash_payload["body"])
                assert crash_reply["kind"] == "error"
                assert crash_reply["shard"] == target
                assert crash_reply["error"]["code"] == "shard_crashed"
                assert crash_payload["error"] == crash_reply["error"]
                assert crash_payload["status"] == 503
                after_payload = await after_future
                assert after_payload["status"] == 200
                after_reply = json.loads(after_payload["body"])
                assert after_reply["kind"] == "optimize_reply"
                assert after_reply["request_id"] == "after-crash"
                assert after_reply["shard"] == target
                assert victim.restarts == restarts_before + 1
                assert victim.alive
                assert other.restarts == 0
                # The whole front door still serves over HTTP.
                status, _, health = await http_request(
                    door.port, "GET", "/v1/healthz"
                )
                assert status == 200 and health["status"] == "ok"

        run(body())

    def test_a_failed_respawn_fails_one_job_and_the_shard_keeps_serving(self):
        async def body():
            async with door_on(shards=1) as door:
                client = door.shards.clients[0]
                respawn = client._restart

                def fork_fails_once():
                    # The dead process is reaped, but no new one starts.
                    client._restart = respawn
                    client._worker.stop(graceful=False)
                    raise BlockingIOError(errno.EAGAIN, "fork: try again")

                client._restart = fork_fails_once
                crash = await asyncio.wait_for(client.submit({"op": "crash"}), 5.0)
                assert crash["status"] == 503
                reply = json.loads(crash["body"])
                assert reply["error"]["code"] == "shard_crashed"
                assert not client.alive
                # The drain survived: the next op respawns the shard first.
                ping = await asyncio.wait_for(client.submit({"op": "ping"}), 5.0)
                assert ping["ok"] and ping["pid"] == client._worker.process.pid
                assert client.alive and client.restarts == 1
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=31, n=5)),
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())

    def test_deadline_blown_shard_is_killed_and_typed_504(self):
        async def body():
            async with door_on(shards=1, deadline_seconds=0.3) as door:
                client = door.shards.clients[0]
                payload = await client.submit(
                    {"op": "sleep", "seconds": 10.0}, deadline_seconds=0.3
                )
                assert payload["status"] == 504
                reply = json.loads(payload["body"])
                assert reply["kind"] == "error" and reply["shard"] == 0
                assert reply["error"]["code"] == "deadline_exceeded"
                assert reply["error"]["retryable"] is True
                assert client.restarts == 1
                # Respawned shard serves again.
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=19, n=5)),
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())


    def test_request_and_reply_larger_than_the_pipe_buffer(self):
        # A 64 KiB pipe buffer cannot hold either message whole, so the
        # door's send and the shard's reply both cross it in pieces.
        async def body():
            async with door_on(shards=2) as door:
                document = request_document(seed=23, n=6)
                document["tag"] = "t" * (96 * 1024)
                for hit in (False, True, True):
                    status, _, reply = await http_request(
                        door.port, "POST", "/v1/optimize",
                        envelope(document, request_id="big"),
                    )
                    assert status == 200, reply
                    assert reply["request_id"] == "big"
                    assert reply["result"]["tag"] == document["tag"]
                    assert reply["result"]["cache_hit"] is hit
                assert all(client.restarts == 0 for client in door.shards.clients)

        run(body())

    def test_three_deadline_recycles_in_a_row_then_twenty_requests(self):
        async def body():
            async with door_on(shards=1) as door:
                client = door.shards.clients[0]
                for recycle in range(1, 4):
                    payload = await client.submit(
                        {"op": "sleep", "seconds": 10.0}, deadline_seconds=0.3
                    )
                    assert payload["status"] == 504
                    reply = json.loads(payload["body"])
                    assert reply["kind"] == "error"
                    assert reply["error"]["code"] == "deadline_exceeded"
                    assert client.restarts == recycle
                for index in range(20):
                    document = request_document(seed=29 + index % 4, n=5)
                    status, _, reply = await http_request(
                        door.port, "POST", "/v1/optimize", envelope(document)
                    )
                    assert status == 200, reply
                    assert reply["result"]["cache_hit"] is (index >= 4)
                assert client.restarts == 3 and client.alive

        run(body())


# ----------------------------------------------------------------------
# Observability endpoints and cache warming
# ----------------------------------------------------------------------


class TestObservabilityAndWarming:
    def test_a_failed_stats_op_reports_its_error_code(self, monkeypatch):
        # Patched before the shards fork, so each shard's stats op raises.
        def broken(self):
            raise RuntimeError("stats down")

        monkeypatch.setattr(OptimizerService, "stats_snapshot", broken)

        async def body():
            async with door_on(shards=2) as door:
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                assert status == 200
                for shard in stats["shards"]:
                    assert shard["unavailable"] == "internal"
                    assert "stats" not in shard
                status, _, text = await http_request(
                    door.port, "GET", "/metrics"
                )
                assert status == 200
                exposition = text.decode()
                assert "repro_shard" not in exposition
                assert "repro_frontdoor_requests_total" in exposition

        run(body())

    def test_stats_healthz_and_metrics_shapes(self):
        async def body():
            async with door_on(shards=2) as door:
                document = request_document(seed=23)
                await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                assert status == 200
                assert stats["version"] == 1
                assert len(stats["shards"]) == 2
                owner = door._route(document)
                shard_stats = stats["shards"][owner]["stats"]
                assert shard_stats["cache"]["size"] == 1
                assert shard_stats["totals"]["cache_hits"] == 1
                front = stats["frontdoor"]
                assert front["requests_total"]["/v1/optimize"] == 2
                assert front["route_memo"]["hits"] >= 1
                status, _, health = await http_request(
                    door.port, "GET", "/v1/healthz"
                )
                assert status == 200
                assert all(shard["alive"] for shard in health["shards"])
                status, headers, text = await http_request(
                    door.port, "GET", "/metrics"
                )
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                exposition = text.decode()
                assert "repro_frontdoor_requests_total" in exposition
                assert f"repro_shard{owner}_requests_total" in exposition
                assert "repro_frontdoor_shard_queue_depth" in exposition
                # The replay was served through the shard's digest memo.
                assert shard_stats["digest_memo"]["hits"] == 1
                assert f"repro_shard{owner}_digest_memo_hits_total" in exposition

        run(body())

    def test_shards_warm_from_snapshot_by_ring_ownership(self, tmp_path):
        snapshot_path = str(tmp_path / "cache.json")

        async def seed_snapshot():
            # One shard sees everything, so its cache holds every plan.
            async with door_on(shards=1) as door:
                for seed in range(6):
                    status, _, _reply = await http_request(
                        door.port, "POST", "/v1/optimize",
                        envelope(request_document(seed=seed, n=5)),
                    )
                    assert status == 200
                payload = await door.shards.clients[0].submit(
                    {"op": "save_cache", "path": snapshot_path},
                    deadline_seconds=10.0,
                )
                assert payload["ok"] and payload["entries"] == 6

        async def warm_start():
            async with door_on(
                shards=2, warm_cache_path=snapshot_path
            ) as door:
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                assert status == 200
                warmed = [s["warmed_entries"] for s in stats["shards"]]
                # Entries are split by ring ownership, none duplicated.
                assert sum(warmed) == 6
                sizes = [s["stats"]["cache"]["size"] for s in stats["shards"]]
                assert sizes == warmed
                # A replayed request is a warm hit on its owning shard.
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=0, n=5)),
                )
                assert status == 200
                assert reply["result"]["cache_hit"] is True

        run(seed_snapshot())
        run(warm_start())


class TestDrainAndCooperativeDeadlines:
    def test_draining_door_refuses_work_but_answers_healthz(self):
        async def body():
            async with door_on(shards=1) as door:
                door._draining = True
                try:
                    status, headers, reply = await http_request(
                        door.port, "POST", "/v1/optimize",
                        envelope(request_document(seed=1, n=5)),
                    )
                    assert status == 503
                    assert reply["error"]["code"] == "draining"
                    assert headers.get("retry-after") == "1"
                    status, _, health = await http_request(
                        door.port, "GET", "/v1/healthz"
                    )
                    assert status == 200
                    assert health["status"] == "draining"
                finally:
                    door._draining = False

        run(body())

    def test_drain_persists_shard_caches_for_the_next_boot(self, tmp_path):
        snapshot_path = str(tmp_path / "cache.json")

        async def first_life():
            async with door_on(shards=1, snapshot_path=snapshot_path) as door:
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=3, n=6)),
                )
                assert status == 200
                assert reply["result"]["cache_hit"] is False
                await door.drain(grace_seconds=5.0)
                # drain() already closed everything; __aexit__'s close()
                # must be a no-op.

        async def second_life():
            async with door_on(shards=1, snapshot_path=snapshot_path) as door:
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                assert status == 200
                assert stats["shards"][0]["warmed_entries"] == 1
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=3, n=6)),
                )
                assert status == 200
                assert reply["result"]["cache_hit"] is True

        run(first_life())
        assert (tmp_path / "cache.json.shard0").exists()
        run(second_life())

    def test_respawned_worker_rewarms_from_its_snapshot(self, tmp_path):
        snapshot_path = str(tmp_path / "cache.json")

        async def body():
            async with door_on(shards=1, snapshot_path=snapshot_path) as door:
                client = door.shards.clients[0]
                document = request_document(seed=5, n=6)
                status, _, _reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                assert await client.save_snapshot() == 1
                # Hard-kill the worker; the respawn warms from the
                # freshest snapshot instead of starting cold.
                payload = await client.submit(
                    {"op": "crash"}, deadline_seconds=10.0
                )
                assert payload["status"] == 503
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                assert reply["result"]["cache_hit"] is True
                assert client.restarts == 1
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                assert status == 200
                assert stats["shards"][0]["warmed_entries"] == 1

        run(body())

    def test_respawned_shard_serves_a_known_digest_with_an_empty_memo(self):
        async def body():
            async with door_on(shards=1) as door:
                client = door.shards.clients[0]
                document = request_document(seed=13, n=6)
                status, _, first = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                payload = await client.submit(
                    {"op": "crash"}, deadline_seconds=10.0
                )
                assert payload["status"] == 503
                # The door still knows the digest; the new shard's memo
                # and plan cache are empty, so it takes the full path.
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                assert reply["result"]["cache_hit"] is False
                assert reply["result"]["plan"] == first["result"]["plan"]
                assert door._route_memo.hits == 1
                status, _, stats = await http_request(
                    door.port, "GET", "/v1/stats"
                )
                memo = stats["shards"][0]["stats"]["digest_memo"]
                assert memo["hits"] == 0 and memo["misses"] == 1
                assert memo["size"] == 1

        run(body())

    def test_cooperative_deadline_salvages_instead_of_hard_kill(self):
        async def body():
            # Shard deadline of 0.4s on a clique-17: uncooperative
            # engines would be hard-killed and recycled; the cooperative
            # top-down engine returns a salvaged anytime plan within the
            # grace window instead.  Under the physical model the query
            # takes seconds even on the C kernel.
            async with door_on(shards=1, deadline_seconds=0.4) as door:
                document = request_document(
                    seed=7,
                    shape="clique",
                    n=17,
                    algorithm="tdmincutbranch",
                    cost_model=PhysicalCostModel(),
                )
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", envelope(document)
                )
                assert status == 200
                details = reply["result"]["details"]
                assert details["anytime"] == 1
                assert "salvage" in details
                client = door.shards.clients[0]
                assert client.restarts == 0
                status, _, health = await http_request(
                    door.port, "GET", "/v1/healthz"
                )
                assert status == 200
                shard = health["shards"][0]
                assert shard["alive"]
                assert shard["restarts"] == 0
                # The one request came back inside the grace window.
                assert shard["hard_kills_avoided"] == 1
                status, _, text = await http_request(
                    door.port, "GET", "/metrics"
                )
                assert status == 200
                exposition = text.decode()
                assert "repro_frontdoor_shard_hard_kills_avoided_total" in exposition

        run(body())


class TestRequestDigest:
    def test_a_replay_shares_the_digest_and_any_change_gets_a_new_one(self):
        document = request_document(seed=37, n=5)
        digest = _request_digest(document)
        # A replay decodes to an equal document in the same key order.
        replay = json.loads(json.dumps(document))
        assert _request_digest(replay) == digest

        def changed(edit):
            copy = json.loads(json.dumps(document))
            edit(copy)
            return _request_digest(copy)

        def cardinality(copy):
            copy["query"]["relations"][0]["cardinality"] *= 1.0 + 1e-12

        def selectivity(copy):
            copy["query"]["selectivities"][-1]["selectivity"] *= 0.5

        def epoch(copy):
            copy["stats_epoch"] = copy.get("stats_epoch", 0) + 1

        def tag(copy):
            copy["tag"] = "other"

        digests = {digest} | {
            changed(edit) for edit in (cardinality, selectivity, epoch, tag)
        }
        assert len(digests) == 5


class TestRequestIdTracePropagation:
    def test_request_id_lands_on_the_shard_trace_root(self):
        # Exercised at the worker layer (the trace store lives in the
        # shard process; over HTTP it is only observable via trace
        # export, which /v1/stats does not ship).
        from repro.service.core import OptimizerService
        from repro.service.sharding import _optimize_on_shard

        service = OptimizerService(cache_capacity=8)
        job = {
            "op": "optimize",
            "request": request_document(seed=29, n=5),
            "request_id": "trace-me",
        }
        body, status = _optimize_on_shard(service, job, shard=0)
        assert status == 200
        reply = json.loads(body)
        assert reply["request_id"] == "trace-me"
        trace = service.traces.get(reply["result"]["trace_id"])
        assert trace is not None
        assert trace.root.attributes["request_id"] == "trace-me"

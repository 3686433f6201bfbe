"""End-to-end tests for the sharded async HTTP front door.

Each test boots a real :class:`~repro.service.FrontDoor` (shard
processes, consistent-hash routing, the works) on an ephemeral port
inside the test's own event loop and talks to it over a raw asyncio TCP
client — the same bytes a production client would send.
"""

import asyncio
import json

import pytest

from repro.catalog.workload import WorkloadGenerator
from repro.optimizer.api import OptimizationRequest
from repro import serialize
from repro.cost.physical import PhysicalCostModel
from repro.service import (
    FrontDoor,
    FrontDoorConfig,
    OptimizerService,
    ResilienceConfig,
)

from .conftest import pin_dpconv_kernel


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run(coro):
    """Run one async test body in a fresh event loop."""
    asyncio.run(asyncio.wait_for(coro, timeout=120.0))


async def http_request(port, method, path, body=None, raw_body=None):
    """One HTTP exchange; returns (status, headers, parsed-or-raw body)."""
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
    try:
        parsed = json.loads(body_bytes)
    except ValueError:
        parsed = body_bytes
    return status, headers, parsed


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


def request_document(seed=1, shape="chain", n=7, algorithm="tdmincutbranch"):
    instance = WorkloadGenerator(seed=seed).fixed_shape(shape, n)
    request = OptimizationRequest(query=instance.catalog, algorithm=algorithm)
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
    catalog = request.resolved_catalog()
    graph = catalog.graph.relabelled(permutation)
    relations = [None] * graph.n_vertices
    for vertex in range(graph.n_vertices):
        relations[permutation[vertex]] = catalog.relations[vertex]
    selectivities = {
        (permutation[u], permutation[v]): catalog.selectivity(u, v)
        for (u, v) in catalog.graph.edges
    }
    from repro.catalog.statistics import Catalog

    relabelled = Catalog(graph, relations, selectivities)
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

    def test_missing_version_field_is_read_as_v1(self):
        async def body():
            async with door_on() as door:
                wire = {"request": request_document(seed=7)}
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize", wire
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())


# ----------------------------------------------------------------------
# Typed rejections
# ----------------------------------------------------------------------


class TestRouting:
    @pytest.mark.parametrize(
        "service_kwargs",
        [
            {},
            {"resilience": ResilienceConfig(dpconv_max_n=9)},
            {"default_cost_model": PhysicalCostModel(), "round_digits": 3},
        ],
        ids=["defaults", "dpconv_limit", "default_cost_model"],
    )
    def test_door_routes_to_the_owner_of_the_shard_signature(
        self, monkeypatch, service_kwargs
    ):
        # The door resolves "auto" with the shards' inputs, so a request
        # the shard runs on dpconv (clique-10) and one it runs on the
        # top-down kernel (chain-14) both land on the shard whose cache
        # holds the plan.  No shard process is started.
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
                assert crash_payload["reply"]["error"]["code"] == "shard_crashed"
                assert crash_payload["status"] == 503
                after_payload = await after_future
                assert after_payload["status"] == 200
                assert after_payload["reply"]["kind"] == "optimize_reply"
                assert victim.restarts == restarts_before + 1
                assert victim.alive
                assert other.restarts == 0
                # The whole front door still serves over HTTP.
                status, _, health = await http_request(
                    door.port, "GET", "/v1/healthz"
                )
                assert status == 200 and health["status"] == "ok"

        run(body())

    def test_deadline_blown_shard_is_killed_and_typed_504(self):
        async def body():
            async with door_on(shards=1, deadline_seconds=0.3) as door:
                client = door.shards.clients[0]
                payload = await client.submit(
                    {"op": "sleep", "seconds": 10.0}, deadline_seconds=0.3
                )
                assert payload["status"] == 504
                assert payload["reply"]["error"]["code"] == "deadline_exceeded"
                assert client.restarts == 1
                # Respawned shard serves again.
                status, _, reply = await http_request(
                    door.port, "POST", "/v1/optimize",
                    envelope(request_document(seed=19, n=5)),
                )
                assert status == 200 and reply["kind"] == "optimize_reply"

        run(body())


# ----------------------------------------------------------------------
# Observability endpoints and cache warming
# ----------------------------------------------------------------------


class TestObservabilityAndWarming:
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

    def test_cooperative_deadline_salvages_instead_of_hard_kill(self):
        async def body():
            # Shard deadline of 0.4s on a clique-14: uncooperative
            # engines would be hard-killed and recycled; the cooperative
            # top-down engine returns a salvaged anytime plan within the
            # grace window instead.
            async with door_on(shards=1, deadline_seconds=0.4) as door:
                document = request_document(
                    seed=7, shape="clique", n=14, algorithm="tdmincutbranch"
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
        reply, status = _optimize_on_shard(service, job, shard=0)
        assert status == 200
        trace = service.traces.get(reply["result"]["trace_id"])
        assert trace is not None
        assert trace.root.attributes["request_id"] == "trace-me"

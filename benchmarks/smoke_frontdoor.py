#!/usr/bin/env python
"""Serve-smoke: boot the CLI front door and exercise the wire API.

Unlike the ``frontdoor`` row of ``benchmarks/gates.py`` (which embeds a
FrontDoor in-process), this drives the real production entry point,
``python -m repro.cli serve``, as a subprocess on port 0, parsing the
printed ``listening on`` line.  The scripted workload asserts the
contract a deployment's load balancer and monitoring depend on:

* cold request -> 200 ``optimize_reply``; exact replay -> warm cache hit,
  served through the owning shard's digest memo (no decode, no canonical
  labeling on the shard)
* malformed JSON -> 400 with ``error.code = "malformed_json"``
* envelope version 99 -> 400 with ``error.code = "unsupported_version"``
* ``GET /v1/healthz`` -> 200, every shard alive
* ``GET /v1/stats`` -> per-shard snapshots with the expected cache hit
  and digest-memo hit
* ``GET /metrics`` -> Prometheus text with front-door and shard families,
  the digest memo's included

Exits non-zero on the first broken expectation.  Used by
``make serve-smoke`` (part of ``make verify``) and CI.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

SERVE_ARGS = [
    sys.executable,
    "-m",
    "repro.cli",
    "serve",
    "--port",
    "0",
    "--shards",
    "2",
    "--deadline",
    "30",
]


def post(port: int, path: str, payload: bytes, timeout: float = 30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def get(port: int, path: str, timeout: float = 30.0):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def request_document():
    from repro.catalog.workload import WorkloadGenerator
    from repro.optimizer.api import OptimizationRequest
    from repro import serialize

    instance = WorkloadGenerator(seed=7).fixed_shape("chain", 7)
    return serialize.request_to_dict(
        OptimizationRequest(query=instance.catalog, algorithm="tdmincutbranch")
    )


def main() -> int:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    server = subprocess.Popen(
        SERVE_ARGS,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        banner = server.stdout.readline()
        while "listening on" not in banner:
            expect(
                server.poll() is None, f"server exited early: {banner!r}"
            )
            expect(
                time.monotonic() < deadline, "server never printed its banner"
            )
            banner = server.stdout.readline()
        match = re.search(r"listening on \S+:(\d+)", banner)
        expect(match is not None, f"unparseable banner: {banner!r}")
        port = int(match.group(1))
        print(f"server up on port {port}")

        document = request_document()
        body = json.dumps(
            {"version": 1, "tenant": "smoke", "request_id": "s-1",
             "request": document}
        ).encode()

        status, raw = post(port, "/v1/optimize", body)
        reply = json.loads(raw)
        expect(status == 200, f"cold optimize returned {status}: {raw!r}")
        expect(reply["kind"] == "optimize_reply", f"unexpected kind: {reply}")
        expect(reply["version"] == 1, "reply envelope must carry version 1")
        expect(
            reply["result"]["cache_hit"] is False, "first request must be cold"
        )
        print("cold optimize ok")

        status, raw = post(port, "/v1/optimize", body)
        reply = json.loads(raw)
        expect(status == 200, f"warm optimize returned {status}")
        expect(
            reply["result"]["cache_hit"] is True,
            "exact replay must be a warm cache hit",
        )
        print("warm replay hit the plan cache")

        status, raw = post(port, "/v1/optimize", b"{broken json")
        reply = json.loads(raw)
        expect(status == 400, f"malformed JSON returned {status}, want 400")
        expect(
            reply["error"]["code"] == "malformed_json",
            f"wrong error code: {reply}",
        )
        print("malformed JSON rejected with a typed 400")

        status, raw = post(
            port,
            "/v1/optimize",
            json.dumps({"version": 99, "request": document}).encode(),
        )
        reply = json.loads(raw)
        expect(status == 400, f"version 99 returned {status}, want 400")
        expect(
            reply["error"]["code"] == "unsupported_version",
            f"wrong error code: {reply}",
        )
        print("future wire version rejected with unsupported_version")

        status, raw = get(port, "/v1/healthz")
        health = json.loads(raw)
        expect(status == 200, f"healthz returned {status}")
        expect(health["status"] == "ok", f"unhealthy: {health}")
        expect(
            all(shard["alive"] for shard in health["shards"]),
            f"dead shard in {health}",
        )
        print(f"healthz ok ({len(health['shards'])} shards alive)")

        status, raw = get(port, "/v1/stats")
        stats = json.loads(raw)
        expect(status == 200, f"stats returned {status}")
        total_hits = sum(
            shard.get("stats", {}).get("totals", {}).get("cache_hits", 0)
            for shard in stats["shards"]
        )
        expect(total_hits >= 1, f"no cache hit recorded in stats: {stats}")
        memo_hits = sum(
            shard.get("stats", {}).get("digest_memo", {}).get("hits", 0)
            for shard in stats["shards"]
        )
        expect(
            memo_hits >= 1,
            f"warm replay was not served through the digest memo: {stats}",
        )
        print("stats aggregation ok (the replay was served by the digest memo)")

        status, raw = get(port, "/metrics")
        text = raw.decode()
        expect(status == 200, f"metrics returned {status}")
        for needle in (
            "repro_frontdoor_requests_total",
            "repro_frontdoor_rejections_total",
            "repro_shard0_requests_total",
            "repro_shard0_digest_memo_hits_total",
        ):
            expect(needle in text, f"metrics exposition missing {needle}")
        print("prometheus exposition ok")

        print("serve-smoke: all checks passed")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())

"""The client process of the serve workloads.

Usage: ``python serve_load.py SPEC_JSON`` (``run.py`` writes the spec).

Starts the unmodified server (``python -m repro.cli serve --port 0
--shards 2 ...``; with ``trace`` also the :mod:`serve_launch` twin that
records spans) in its own session, drives it from one asyncio process
over one keep-alive connection, and checks every reply against the
oracle once the timed phases are over.  The client and every server
process run on one vCPU (see :func:`pin_to_one_cpu`).

Timed run, in order:

1. ``COLD_STARTS`` cold starts (``setup_s`` is their median); the last
   server stays up;
2. one untimed warm pass;
3. ``rounds`` rounds, each sending the same fixed list of requests in a
   closed loop: the connection sends the next request the moment the
   reply is in.  A request is timed from its send to its last reply
   byte, and its latency is its best over the rounds.  The percentiles
   are taken over those bests, and ``throughput_qps`` is the rate they
   give: 1 / their mean.

Peak memory is the sum of ``VmHWM`` over the door and shard processes,
read before shutdown.  The server is stopped on every exit path; the
whole process group is killed if a graceful stop does not finish.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen
from common import (
    COLD_STARTS,
    HERE,
    RUNS,
    best_per_key,
    catalog_of,
    child_env,
    close_enough,
    geomean,
    percentile,
    read_json,
    recost,
    wire_request,
    write_json,
)

clock = time.perf_counter


# ----------------------------------------------------------------------
# Processes


def _stat_fields(pid):
    """``(state, ppid, pgrp)`` of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2])


def _pids():
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def children_of(pid):
    return [p for p in _pids() if (_stat_fields(p) or ("", 0, 0))[1] == pid]


def group_members(pgid):
    """Live (non-zombie) processes of a process group."""
    out = []
    for pid in _pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[2] == pgid and fields[0] != "Z":
            out.append(pid)
    return out


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """One server process group, stopped on every exit path."""

    def __init__(self, server_args, trace_dir=None, log_name="server"):
        launcher = (
            [os.path.join(HERE, "serve_launch.py")]
            if trace_dir is not None
            else ["-m", "repro.cli", "serve"]
        )
        self.command = [
            sys.executable, *launcher, "--port", "0", "--shards", "2", *server_args
        ]
        self.trace_dir = trace_dir
        self.log_path = os.path.join(RUNS, f"{log_name}.log")
        self.process = None
        self.port = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def start(self, timeout=60.0):
        """Start the server; returns seconds until every shard is healthy."""
        log = open(self.log_path, "ab")
        began = clock()
        try:
            self.process = subprocess.Popen(
                self.command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(self.trace_dir),
                start_new_session=True,
            )
        finally:
            log.close()
        line = self._read_line(began + timeout)
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r} (see {self.log_path})")
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                status, body = self.get("/v1/healthz")
                shards = json.loads(body)["shards"]
                if status == 200 and len(shards) == 2 and all(s["alive"] for s in shards):
                    return clock() - began
            except OSError:
                pass
            if clock() > began + timeout:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def _read_line(self, deadline):
        stream = self.process.stdout
        ready, _, _ = select.select([stream], [], [], max(0.0, deadline - clock()))
        if not ready:
            raise RuntimeError("server printed nothing before the start timeout")
        return stream.readline().decode("utf-8", "replace").strip()

    def get(self, path):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self):
        return json.loads(self.get("/v1/stats")[1])

    def pids(self):
        return [self.process.pid, *children_of(self.process.pid)]

    def peak_rss_mb(self):
        return sum(vm_hwm_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self):
        """SIGTERM (graceful drain), then kill whatever is left of the group."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()
            deadline = clock() + 10
            while group_members(process.pid) and clock() < deadline:
                time.sleep(0.01)


# ----------------------------------------------------------------------
# Traffic


class Stream:
    """The seeded request sequence over pre-encoded wire documents.

    ``pick`` draws the next query, ``envelope`` wraps it with a fresh
    request id; ``queries[id]`` and ``keys[id]`` give the query and its
    oracle key for the reply check.
    """

    def __init__(self, inputs, rng):
        self.workload = inputs["workload"]
        self.rng = rng
        self.count = 0
        algorithm = inputs["algorithm"]
        self.queries = []
        self.documents = []
        self.keys = []

        def add(query, key):
            self.queries.append(query)
            self.keys.append(key)
            self.documents.append(
                json.dumps(wire_request(query, algorithm), separators=(",", ":")).encode()
            )
            return len(self.queries) - 1

        self.ids = [add(q, str(i)) for i, q in enumerate(inputs["queries"])]
        self.drifted = {int(i): add(q, f"d{i}") for i, q in inputs["drifted"].items()}
        self.classes = {
            name: (lo, gen.zipf_picker(hi - lo, inputs["zipf_s"], rng))
            for name, (lo, hi) in inputs["classes"].items()
        }
        self.mix = inputs["mix"]

    def pick(self, drifted=False):
        draw = self.rng.random()
        name = "sparse"
        if draw < self.mix["dense"]:
            name = "dense"
        elif draw < self.mix["dense"] + self.mix["physical"]:
            name = "physical"
        lo, picker = self.classes[name]
        index = lo + picker()
        if drifted and index in self.drifted:
            return self.drifted[index]
        return self.ids[index]

    def envelope(self, query_id, prefix):
        self.count += 1
        request_id = f"{prefix}{self.count}"
        body = b'{"version":1,"request_id":"%s","request":%s}' % (
            request_id.encode(),
            self.documents[query_id],
        )
        return request_id, body


class Connection:
    """One HTTP/1.1 keep-alive connection (no pipelining)."""

    HEAD = (
        b"POST /v1/optimize HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
    )

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None

    async def open(self):
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    def close(self):
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def post(self, body, timeout=60.0):
        """``(status, payload)``; a transport failure gives status 0."""
        try:
            if self.writer is None:
                await self.open()
            return await asyncio.wait_for(self._exchange(body), timeout)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
            self.close()
            return 0, repr(exc).encode()

    async def _exchange(self, body):
        self.writer.write(self.HEAD % len(body) + body)
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


async def _closed_loop(connection, stream, query_ids, prefix):
    """Send ``query_ids`` one after another.  Records are ``(request_id,
    query_id, position, sent, done, status, payload)``, with ``position``
    the index in ``query_ids``."""
    records = []
    for position, query_id in enumerate(query_ids):
        request_id, body = stream.envelope(query_id, prefix)
        sent = clock()
        status, payload = await connection.post(body)
        records.append((request_id, query_id, position, sent, clock(), status, payload))
    return records


async def _drive(port, stream, spec, on_warm):
    """The warm pass, then ``rounds`` replays of one fixed request list."""
    connection = Connection(port)
    try:
        await connection.open()
        warm = [stream.pick() for _ in range(spec["warm_count"])]
        out = {"warm": await _closed_loop(connection, stream, warm, "w"), "rounds": []}
        on_warm()
        # The statistics of a tenth of the pool drift halfway through the list.
        count = spec["round_count"]
        listed = [stream.pick(drifted=position >= count / 2) for position in range(count)]
        for index in range(spec["rounds"]):
            out["rounds"].append(await _closed_loop(connection, stream, listed, f"r{index}-"))
        return out
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Checking and metrics


def check_replies(records, stream, oracle):
    """Failures, cost ratios and rung labels of a list of request records."""
    failures = []
    ratios = []
    rungs = {}
    for request_id, query_id, _position, _sent, _done, status, payload in records:
        key = stream.keys[query_id]
        if status != 200:
            failures.append(f"{request_id}: HTTP {status} {payload[:200]!r}")
            continue
        result = json.loads(payload)["result"]
        if result.get("error") or result.get("plan") is None:
            failures.append(f"{request_id}: {result.get('error')}")
            continue
        details = result["details"]
        rung = "cached" if result["cache_hit"] else details.get("rung") or "exact"
        rungs[rung] = rungs.get(rung, 0) + 1
        best = oracle[key]
        if details.get("degraded"):
            from repro.plan.validation import validate_plan
            from repro.serialize import plan_from_dict

            query = stream.queries[query_id]
            plan = plan_from_dict(result["plan"])
            served = recost(plan, query)
            violations = validate_plan(plan, catalog_of(query))
            if violations or served < best * (1 - 1e-9):
                failures.append(f"{request_id}: degraded plan invalid or below the optimum")
                continue
        else:
            served = result["plan"]["root"]["cost"]
            if not close_enough(served, best):
                failures.append(f"{request_id}: cost {served!r} != optimum {best!r}")
                continue
        ratios.append(served / best)
    return failures, ratios, rungs


def _diff_stats(before, after):
    def cache(doc):
        total = {"hits": 0, "misses": 0, "evictions": 0}
        for shard in doc["shards"]:
            for key in total:
                total[key] += shard.get("stats", {}).get("cache", {}).get(key, 0)
        return total

    c0, c1 = cache(before), cache(after)
    memo0, memo1 = before["frontdoor"]["route_memo"], after["frontdoor"]["route_memo"]
    hits = c1["hits"] - c0["hits"]
    lookups = hits + c1["misses"] - c0["misses"]
    memo_hits = memo1["hits"] - memo0["hits"]
    memo_lookups = memo_hits + memo1["misses"] - memo0["misses"]
    return {
        "cache.hit_frac": hits / lookups if lookups else 0.0,
        "cache.evictions": c1["evictions"] - c0["evictions"],
        "frontdoor.route_memo_hit_frac": memo_hits / memo_lookups if memo_lookups else 0.0,
    }


def _load_spans(trace_dir):
    """``{request_id: {layer: seconds}}`` plus covered intervals, all processes."""
    import spans

    per_request = {}
    for name in sorted(os.listdir(trace_dir)):
        document = read_json(os.path.join(trace_dir, name))
        records = document["spans"]
        selfs = spans.self_seconds(records)
        for index, (span, request_id) in enumerate(zip(records, spans.request_ids(records))):
            if request_id is None:
                continue
            entry = per_request.setdefault(request_id, {"layers": {}, "intervals": []})
            layers = entry["layers"]
            label = span[0]
            layers[label] = layers.get(label, 0.0) + span[2] - span[1]
            if label == "service.optimize":
                layers["service.self"] = layers.get("service.self", 0.0) + selfs[index]
            entry["intervals"].append((span[1], span[2]))
    return per_request


def layer_metrics(records, trace_dir):
    """Per-layer means (ms per request) over the traced rounds."""
    import spans

    per_request = _load_spans(trace_dir)
    sums = {}
    client = uncovered = 0.0
    counted = 0
    for request_id, _query_id, _position, sent, done, status, _payload in records:
        entry = per_request.get(request_id)
        if entry is None or status != 200:
            continue
        counted += 1
        layers = entry["layers"]

        def get(label):
            return layers.get(label, 0.0)

        wall = done - sent
        client += wall
        uncovered += wall - spans.covered_seconds(entry["intervals"], sent, done)
        values = {
            "frontdoor.self_ms": wall - get("sharding.submit"),
            "frontdoor.route_ms": get("frontdoor.route"),
            "sharding.queue_wait_ms": get("sharding.submit") - get("sharding.roundtrip"),
            "sharding.ipc_ms": get("sharding.roundtrip") - get("shard.op"),
            "serialize.decode_ms": get("frontdoor.envelope") + get("serialize.decode"),
            "serialize.encode_ms": get("serialize.encode"),
            "service.self_ms": get("service.self"),
            "graph.signature_ms": get("graph.signature"),
            "cache.get_ms": get("cache.get"),
            "cache.put_ms": get("cache.put"),
            "resilience.admission_ms": get("resilience.admission"),
            "optimizer.engine_ms": get("optimizer.engine"),
            "heuristics.rung_ms": get("heuristics.rung"),
        }
        for name, seconds in values.items():
            sums[name] = sums.get(name, 0.0) + seconds
    if not counted:
        raise RuntimeError("no traced request matched a recorded span")
    metrics = {name: total / counted * 1e3 for name, total in sums.items()}
    metrics["unattributed_frac"] = uncovered / client
    return metrics


def best_latencies(rounds):
    """Each listed request's best latency over the rounds, in list order.

    A round replays the same list, so a request meets about the same
    cache contents every time; its best round is its cost in the run's
    fastest stretch of host (see ``common.best_per_key``).
    """
    return best_per_key(
        (position, done - sent)
        for records in rounds
        for _rid, _q, position, sent, done, status, _p in records
        if status == 200
    )


def _phase(spec, inputs, oracle, tracing):
    """One server lifetime: cold starts, the warm pass and the rounds."""
    # The request list is fixed per workload, like the graphs (see
    # gen.py), so two seeds differ only in the numbers the engines see,
    # and a traced phase replays the timed phase's traffic.
    stream = Stream(inputs, random.Random(f"e2e/{inputs['workload']}/requests"))
    log_name = f"server-{inputs['workload']}"
    with Server(inputs["server_args"], trace_dir=tracing, log_name=log_name) as server:
        starts = []
        if not spec["trace"]:
            for _ in range(COLD_STARTS - 1):
                starts.append(server.start())
                server.stop()
        starts.append(server.start())
        stats = {}
        out = asyncio.run(
            _drive(server.port, stream, spec, lambda: stats.update(before=server.stats()))
        )
        stats["after"] = server.stats()
        peak_rss = server.peak_rss_mb()
    timed = [record for records in out["rounds"] for record in records]
    failures = check_replies(out["warm"], stream, oracle)[0]
    timed_failures, ratios, rungs = check_replies(timed, stream, oracle)
    failures += timed_failures
    best = best_latencies(out["rounds"])
    summary = {
        "setup_s": statistics.median(starts) if not spec["trace"] else None,
        "attempted": len(out["warm"]) + len(timed),
        "failures": failures,
        "samples": f"{len(best)} requests x {len(out['rounds'])} rounds",
        "latency_p50_ms": percentile(best, 0.50, spec["min_beyond"]) * 1e3,
        "latency_p99_ms": percentile(best, 0.99, spec["min_beyond"]) * 1e3,
        # Little's law: one request is always in flight.
        "throughput_qps": 1 / statistics.mean(best),
        "peak_rss_mb": peak_rss,
        "plan_cost_ratio": geomean(ratios),
        "rungs": rungs,
    }
    if tracing is not None:
        summary["layers"] = layer_metrics(timed, tracing)
        summary["layers"].update(_diff_stats(stats["before"], stats["after"]))
        total = sum(rungs.values())
        for rung in ("cached", "exact", "dpconv", "anytime", "goo"):
            summary["layers"][f"resilience.rung_share.{rung}"] = rungs.get(rung, 0) / total
    return summary


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one vCPU.

    A request passes through the client, the door and a shard in turn.
    Spread over two vCPUs, each hop waits for the other vCPU to wake,
    and the request is fast only while both vCPUs are; on the shared
    calibration host that doubled the run-to-run spread of the p50
    (0.17 against 0.09 over six runs each).  The highest-numbered vCPU
    is taken, away from the one most interrupts go to.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(spec_path):
    """Run the timed phase (and with ``trace`` the traced one) on fresh servers."""
    pin_to_one_cpu()
    spec = read_json(spec_path)
    inputs = read_json(spec["inputs"])
    oracle = read_json(spec["oracle"])
    result = {"phases": {}}
    plans = [("timed", None)]
    if spec["trace"]:
        trace_dir = os.path.join(RUNS, f"trace-{inputs['workload']}-{inputs['seed']}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        plans.append(("traced", trace_dir))
    for phase, tracing in plans:
        summary = _phase(spec, inputs, oracle, tracing)
        failures = summary["failures"]
        summary.update(failures=failures[:20], failure_count=len(failures))
        result["phases"][phase] = summary
    write_json(spec["out"], result)


if __name__ == "__main__":
    run(sys.argv[1])

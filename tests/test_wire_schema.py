"""Tests for the v1 wire schema: typed errors, versioned envelopes,
request/result ``to_dict``/``from_dict``, signature-rounding edge cases,
and the sharding primitives (hash ring, token buckets)."""

import json
import math
import warnings

import pytest

from repro.catalog.statistics import Catalog, Relation
from repro.catalog.workload import WorkloadGenerator
from repro.cost.cout import CoutCostModel
from repro.errors import (
    AdmissionError,
    CatalogError,
    CircuitOpenError,
    DeadlineExceededError,
    DisconnectedGraphError,
    ErrorInfo,
    InvalidRequestError,
    OptimizationError,
    UnsupportedVersionError,
)
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import OptimizationRequest, OptimizationResult
from repro import serialize
from repro.service import request_signature
from repro.service.core import _round_significant
from repro.service.sharding import (
    ConsistentHashRing,
    HTTP_STATUS_BY_CODE,
    TenantQuotas,
    TokenBucket,
    http_status_for_code,
    parse_request_document,
)


def chain3_catalog() -> Catalog:
    graph = QueryGraph(3, [(0, 1), (1, 2)])
    relations = [Relation("R0", 100.0), Relation("R1", 2000.0), Relation("R2", 50.0)]
    return Catalog(graph, relations, {(0, 1): 0.1, (1, 2): 0.05})


# ----------------------------------------------------------------------
# ErrorInfo
# ----------------------------------------------------------------------


class TestErrorInfo:
    def test_is_a_string(self):
        info = ErrorInfo("boom", code="internal")
        assert isinstance(info, str)
        assert info == "boom"
        assert info.message == "boom"
        assert "boo" in info

    def test_round_trip(self):
        info = ErrorInfo("deadline blown", code="deadline_exceeded", retryable=True)
        document = info.to_dict()
        assert document == {
            "code": "deadline_exceeded",
            "message": "deadline blown",
            "retryable": True,
        }
        back = ErrorInfo.from_dict(json.loads(json.dumps(document)))
        assert back == info
        assert back.code == "deadline_exceeded"
        assert back.retryable is True

    @pytest.mark.parametrize(
        "exc,code,retryable",
        [
            (DeadlineExceededError("slow"), "deadline_exceeded", True),
            (AdmissionError("over budget"), "admission_rejected", False),
            (CircuitOpenError("open"), "breaker_open", True),
            (UnsupportedVersionError("v99"), "unsupported_version", False),
            (InvalidRequestError("junk"), "invalid_request", False),
            (DisconnectedGraphError("split"), "invalid_query", False),
            (CatalogError("bad stats"), "invalid_query", False),
            (OptimizationError("died"), "optimization_failed", False),
            (ValueError("misc"), "internal", False),
        ],
    )
    def test_from_exception_codes(self, exc, code, retryable):
        info = ErrorInfo.from_exception(exc)
        assert info.code == code
        assert info.retryable is retryable
        # Legacy "TypeName: message" shape is preserved.
        assert info == f"{type(exc).__name__}: {exc}"

    def test_coerce_legacy_string_recovers_code(self):
        info = ErrorInfo.coerce("DeadlineExceededError: too slow")
        assert info.code == "deadline_exceeded"
        assert info.retryable is True
        assert ErrorInfo.coerce("whatever happened").code == "internal"
        assert ErrorInfo.coerce(None) is None
        again = ErrorInfo.coerce(info)
        assert again is info

    def test_pickle_preserves_code_and_retryable(self):
        # Regression guard for the process-executor boundary: a pickled
        # ErrorInfo must come back as an ErrorInfo with both typed
        # attributes intact, at every protocol.  (It does out of the
        # box: ``str.__getnewargs__`` rebuilds the string value and the
        # instance ``__dict__`` restores ``code``/``retryable``.)
        import pickle

        info = ErrorInfo(
            "worker crashed", code="worker_crashed", retryable=True
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(info, protocol))
            assert type(back) is ErrorInfo, protocol
            assert back == "worker crashed"
            assert back.code == "worker_crashed", protocol
            assert back.retryable is True, protocol

    def test_copy_and_deepcopy_preserve_attributes(self):
        import copy

        info = ErrorInfo("timed out", code="deadline_exceeded", retryable=True)
        for clone in (copy.copy(info), copy.deepcopy(info)):
            assert type(clone) is ErrorInfo
            assert clone == info
            assert clone.code == "deadline_exceeded"
            assert clone.retryable is True

    def test_attributes_survive_wire_v1_result_round_trip(self):
        # Full serialize path: result -> dict -> JSON -> dict -> result.
        result = OptimizationResult(
            plan=None,
            algorithm="goo",
            elapsed_seconds=0.0,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            error=ErrorInfo(
                "CircuitOpenError: breaker tripped",
                code="breaker_open",
                retryable=True,
            ),
        )
        document = serialize.result_to_dict(result)
        back = serialize.result_from_dict(json.loads(json.dumps(document)))
        assert type(back.error) is ErrorInfo
        assert back.error == "CircuitOpenError: breaker tripped"
        assert back.error.code == "breaker_open"
        assert back.error.retryable is True

    def test_executor_style_payload_recovers_code(self):
        # The process executor ships failures as ("error", type_name,
        # message) and the parent rebuilds "TypeName: message"; coerce
        # must recover the typed code from that legacy shape.
        payload = ("error", "DeadlineExceededError", "item blew its budget")
        info = ErrorInfo.coerce(f"{payload[1]}: {payload[2]}")
        assert info.code == "deadline_exceeded"
        assert info.retryable is True

    def test_every_code_has_an_http_status(self):
        from repro.errors import _CODE_BY_EXCEPTION

        for code, _retryable in _CODE_BY_EXCEPTION.values():
            assert code in HTTP_STATUS_BY_CODE
        assert http_status_for_code("no_such_code") == 500


# ----------------------------------------------------------------------
# Versioned envelopes
# ----------------------------------------------------------------------


class TestVersioning:
    def test_documents_carry_version_1(self):
        request = OptimizationRequest(
            query=chain3_catalog(), algorithm="tdmincutbranch"
        )
        document = serialize.request_to_dict(request)
        assert document["version"] == serialize.FORMAT_VERSION == 1
        assert document["query"]["version"] == 1
        assert document["query"]["graph"]["version"] == 1

    def test_missing_version_reads_as_v1(self):
        request = OptimizationRequest(
            query=chain3_catalog(), algorithm="tdmincutbranch"
        )
        document = serialize.request_to_dict(request)
        document.pop("version")
        document["query"].pop("version")
        back = serialize.request_from_dict(document)
        assert back.algorithm == "tdmincutbranch"

    @pytest.mark.parametrize("bad", [99, 0, -1, "2", 1.5, True])
    def test_unsupported_or_malformed_version_raises_typed(self, bad):
        request = OptimizationRequest(
            query=chain3_catalog(), algorithm="tdmincutbranch"
        )
        document = serialize.request_to_dict(request)
        document["version"] = bad
        with pytest.raises(UnsupportedVersionError):
            serialize.request_from_dict(document)

    def test_unknown_extra_keys_are_tolerated(self):
        request = OptimizationRequest(
            query=chain3_catalog(), algorithm="tdmincutbranch"
        )
        document = serialize.request_to_dict(request)
        document["future_field"] = {"anything": 1}
        serialize.request_from_dict(document)

    def test_parse_request_document_wraps_garbage(self):
        with pytest.raises(InvalidRequestError):
            parse_request_document({"kind": "nonsense"})
        document = serialize.request_to_dict(
            OptimizationRequest(query=chain3_catalog(), algorithm="tdmincutbranch")
        )
        document["version"] = 99
        # Typed errors pass through unwrapped.
        with pytest.raises(UnsupportedVersionError):
            parse_request_document(document)

    @pytest.mark.parametrize(
        "cost_model",
        [
            {"kind": "cost_model", "class": "os.system", "params": {}},
            {"kind": "cost_model", "class": "NoSuchModel", "params": {}},
            {"kind": "cost_model", "class": ["PhysicalCostModel"], "params": {}},
            {
                "kind": "cost_model",
                "class": "PhysicalCostModel",
                "params": {"implementations": [{"class": "NoSuchJoin"}]},
            },
        ],
    )
    def test_unknown_cost_model_class_is_invalid_request(self, cost_model):
        # Cost-model classes are looked up by name among live subclasses;
        # a name that matches none is the client's error, never an import.
        document = serialize.request_to_dict(
            OptimizationRequest(query=chain3_catalog(), algorithm="tdmincutbranch")
        )
        document["cost_model"] = cost_model
        with pytest.raises(InvalidRequestError, match="unknown") as caught:
            parse_request_document(document)
        info = ErrorInfo.from_exception(caught.value)
        assert info.code == "invalid_request"
        assert http_status_for_code(info.code) == 400


# ----------------------------------------------------------------------
# to_dict / from_dict on the API dataclasses
# ----------------------------------------------------------------------


class TestApiDictMethods:
    def test_request_round_trip(self):
        request = OptimizationRequest(
            query=chain3_catalog(),
            algorithm="tdmincutbranch",
            cost_model=CoutCostModel(),
            enable_pruning=True,
            tag="q1",
        )
        back = OptimizationRequest.from_dict(request.to_dict())
        assert back.algorithm == "tdmincutbranch"
        assert back.enable_pruning is True
        assert back.tag == "q1"
        assert back.query.graph.edges == request.query.graph.edges

    def test_result_round_trip_with_typed_error(self):
        result = OptimizationResult(
            plan=None,
            algorithm="tdmincutbranch",
            elapsed_seconds=0.5,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            error=ErrorInfo("slow", code="deadline_exceeded", retryable=True),
            tag="q9",
        )
        document = result.to_dict()
        assert document["error"] == {
            "code": "deadline_exceeded",
            "message": "slow",
            "retryable": True,
        }
        back = OptimizationResult.from_dict(json.loads(json.dumps(document)))
        assert back.error == "slow"
        assert back.error.code == "deadline_exceeded"
        assert back.error_info.retryable is True

    def test_result_reader_accepts_legacy_string_error(self):
        result = OptimizationResult(
            plan=None,
            algorithm="goo",
            elapsed_seconds=0.0,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
        )
        document = result.to_dict()
        document["error"] = "DeadlineExceededError: way too slow"
        back = OptimizationResult.from_dict(document)
        assert back.error_info.code == "deadline_exceeded"

    def test_service_error_results_carry_codes(self):
        from repro.service import OptimizerService

        service = OptimizerService(cache_capacity=4)
        # Two disconnected components without cross products: a typed,
        # deterministic failure the batch isolates into an error result.
        disconnected = Catalog(
            QueryGraph(4, [(0, 1), (2, 3)]),
            [Relation(f"R{i}", 10.0) for i in range(4)],
            {(0, 1): 0.5, (2, 3): 0.5},
        )
        results = service.optimize_batch(
            [
                OptimizationRequest(
                    query=disconnected, algorithm="tdmincutbranch", tag="bad"
                )
            ],
            executor="serial",
        )
        assert results[0].error is not None
        assert results[0].error_info.code == "invalid_query"
        assert results[0].error_info.retryable is False


# ----------------------------------------------------------------------
# _round_significant edge cases + pinned signatures
# ----------------------------------------------------------------------


class TestRounding:
    def test_zero_and_negative_zero_normalize(self):
        assert _round_significant(0.0, 4) == 0.0
        assert math.copysign(1.0, _round_significant(-0.0, 4)) == 1.0
        assert json.dumps(_round_significant(-0.0, 4)) == "0.0"

    def test_negative_values_round_by_magnitude(self):
        assert _round_significant(-123456.0, 3) == -123000.0
        assert _round_significant(-0.0012349, 3) == pytest.approx(-0.00123)

    def test_denormals_do_not_collapse_to_zero(self):
        tiny = 5e-324  # smallest positive subnormal
        rounded = _round_significant(tiny, 4)
        assert rounded != 0.0
        assert _round_significant(2e-308, 4) != 0.0

    def test_huge_int_statistics_round_exactly(self):
        value = 10**400 + 12345
        rounded = _round_significant(value, 4)
        assert rounded == 10**400
        with pytest.raises(OverflowError):
            math.isfinite(value)  # the guard this exercises

    def test_signature_accepts_huge_int_cardinality(self):
        graph = QueryGraph(2, [(0, 1)])
        catalog = Catalog(
            graph,
            [Relation("R0", 10**400), Relation("R1", 10.0)],
            {(0, 1): 0.5},
        )
        signature, _ = request_signature(catalog, "tdmincutbranch")
        assert len(signature) == 64

    def test_signature_rejects_non_finite_statistics(self):
        graph = QueryGraph(2, [(0, 1)])
        catalog = Catalog(
            graph,
            [Relation("R0", float("inf")), Relation("R1", 10.0)],
            {(0, 1): 0.5},
        )
        with pytest.raises(OptimizationError, match="non-finite cardinality"):
            request_signature(catalog, "tdmincutbranch")

    def test_rounding_never_underflows_a_nonzero_stat_to_zero(self):
        # A rounded value of exactly 0.0 would collide with true zero in
        # the signature payload; the guard keeps the original instead.
        for value in (5e-324, -5e-324, 1e-320):
            assert _round_significant(value, 4) != 0.0


#: Pinned request signatures — these are cache keys and shard-routing
#: keys; changing them silently invalidates every persisted cache
#: snapshot and reshuffles shard ownership.  If a change here is
#: intentional, bump FORMAT_VERSION thinking and re-pin.
PINNED_SIGNATURES = {
    "chain3": "db5060e8039b672951765a0d6fa504ac885d2fd7eed788292cce29c337197a18",
    "denormal_sel": "640d7d90e4c74e2f0c95aa75c45ecc4ab17dc047654d69d135464d2083dc5402",
    "huge_int_card": "de7a58d2becfe08a9ce33862876dea9d25924257c44b30cffbdddad2af4db21f",
    # Re-pinned when the cost model key became module + qualified name.
    "star4_pruned": "eae7b49b1524a84888194aa89c5e6a435a420e4f3312f9e32b231fe6428a497c",
    "cycle4_cross": "abf17645f89a90e70036b1335019f0c67e2edc3b4ed7a6b64dd5debb45b5ed80",
}


def _pinned_corpus():
    g3 = QueryGraph(3, [(0, 1), (1, 2)])
    g4 = QueryGraph(4, [(0, 1), (0, 2), (0, 3)])
    gc = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def catalog(graph, cards, sels):
        return Catalog(
            graph, [Relation(f"R{i}", c) for i, c in enumerate(cards)], sels
        )

    yield "chain3", catalog(
        g3, [100.0, 2000.0, 50.0], {(0, 1): 0.1, (1, 2): 0.05}
    ), {}
    yield "denormal_sel", catalog(
        g3, [100.0, 2000.0, 50.0], {(0, 1): 5e-324, (1, 2): 0.05}
    ), {}
    yield "huge_int_card", catalog(
        g3, [10**400, 2000.0, 50.0], {(0, 1): 0.1, (1, 2): 0.05}
    ), {}
    yield "star4_pruned", catalog(
        g4, [1000.0, 10.0, 20.0, 30.0],
        {(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3},
    ), {"cost_model": CoutCostModel(), "enable_pruning": True}
    yield "cycle4_cross", catalog(
        gc, [5.0, 6.0, 7.0, 8.0],
        {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 0.125, (3, 0): 0.0625},
    ), {"allow_cross_products": True}


@pytest.mark.parametrize(
    "name,catalog,kwargs",
    [pytest.param(*item, id=item[0]) for item in _pinned_corpus()],
)
def test_pinned_signature_corpus(name, catalog, kwargs):
    signature, _ = request_signature(catalog, "tdmincutbranch", **kwargs)
    assert signature == PINNED_SIGNATURES[name]


# ----------------------------------------------------------------------
# Consistent hash ring
# ----------------------------------------------------------------------


class TestConsistentHashRing:
    def test_deterministic_and_in_range(self):
        ring = ConsistentHashRing(4, replicas=32)
        again = ConsistentHashRing(4, replicas=32)
        for i in range(200):
            key = f"sig-{i}"
            owner = ring.owner(key)
            assert 0 <= owner < 4
            assert owner == again.owner(key)

    def test_all_shards_get_traffic(self):
        ring = ConsistentHashRing(4, replicas=64)
        owners = {ring.owner(f"sig-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_resize_moves_a_minority_of_keys(self):
        before = ConsistentHashRing(4, replicas=64)
        after = ConsistentHashRing(5, replicas=64)
        keys = [f"sig-{i}" for i in range(1000)]
        moved = sum(1 for k in keys if before.owner(k) != after.owner(k))
        # Naive modulo hashing would move ~80%; consistent hashing ~1/5.
        assert moved < 500

    def test_validates_arguments(self):
        with pytest.raises(OptimizationError):
            ConsistentHashRing(0)
        with pytest.raises(OptimizationError):
            ConsistentHashRing(2, replicas=0)

    def test_single_shard_owns_everything(self):
        ring = ConsistentHashRing(1)
        assert {ring.owner(f"s{i}") for i in range(50)} == {0}


# ----------------------------------------------------------------------
# Token buckets / tenant quotas
# ----------------------------------------------------------------------


class TestQuotas:
    def test_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()
        assert bucket.retry_after_seconds() == pytest.approx(0.5)
        now[0] += 1.0  # refills 2 tokens
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_zero_rate_never_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        now[0] += 1e6
        assert not bucket.try_acquire()
        assert bucket.retry_after_seconds() > 0

    def test_quotas_disabled_when_rate_is_none(self):
        quotas = TenantQuotas(None)
        assert all(quotas.try_acquire("t") for _ in range(1000))
        assert quotas.rejections == 0

    def test_tenants_are_isolated(self):
        now = [0.0]
        quotas = TenantQuotas(rate=0.0, burst=2.0, clock=lambda: now[0])
        assert quotas.try_acquire("a") and quotas.try_acquire("a")
        assert not quotas.try_acquire("a")
        assert quotas.try_acquire("b")  # unaffected by a's exhaustion
        assert quotas.rejections == 1

    def test_tenant_registry_is_bounded(self):
        quotas = TenantQuotas(rate=1.0, burst=1.0, max_tenants=10)
        for i in range(50):
            quotas.try_acquire(f"tenant-{i}")
        assert len(quotas._buckets) == 10

"""JSON-friendly serialization of query graphs, catalogs, and plans.

A downstream system needs to persist optimizer inputs and outputs: test
fixtures, regression corpora, plan caches — and the service layer's
process-pool executor ships whole optimization jobs across process
boundaries in this format.  This module round-trips the library's core
objects through plain dicts (``json.dumps``-able, no custom encoder
needed):

* :func:`graph_to_dict` / :func:`graph_from_dict`
* :func:`catalog_to_dict` / :func:`catalog_from_dict`
* :func:`plan_to_dict` / :func:`plan_from_dict`
* :func:`plan_cache_to_dict` / :func:`plan_cache_from_dict`
* :func:`cost_model_to_dict` / :func:`cost_model_from_dict`
* :func:`request_to_dict` / :func:`request_from_dict`
* :func:`result_to_dict` / :func:`result_from_dict`

The wire writes these documents as compact JSON
(``separators=(",", ":")``); :func:`reply_to_json` does so for a reply
envelope, splicing in a plan already encoded by :func:`plan_to_json`.

All ``*_from_dict`` functions validate through the ordinary constructors,
so a corrupted document raises the library's usual typed errors rather
than producing a half-built object.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.statistics import Catalog, Relation
from repro.errors import ErrorInfo, ReproError, UnsupportedVersionError
from repro.graph.query_graph import QueryGraph
from repro.plan.jointree import JoinTree, _node

__all__ = [
    "FORMAT_VERSION",
    "graph_to_dict",
    "graph_from_dict",
    "catalog_to_dict",
    "catalog_from_dict",
    "plan_to_dict",
    "plan_from_dict",
    "plan_cache_to_dict",
    "plan_cache_from_dict",
    "plan_cache_from_dict_tolerant",
    "plan_cache_entry_checksum",
    "cost_model_to_dict",
    "cost_model_from_dict",
    "request_to_dict",
    "request_from_dict",
    "result_to_dict",
    "result_from_dict",
    "plan_to_json",
    "reply_to_json",
]

#: Current wire-schema version.  Every document this module emits carries
#: ``"version": FORMAT_VERSION``; readers accept documents at or below it
#: (and tolerate a missing field — pre-versioning documents are v1) and
#: raise :class:`~repro.errors.UnsupportedVersionError` beyond it.
FORMAT_VERSION = 1

#: ``json.dumps`` separators of the wire's compact JSON.
_COMPACT = (",", ":")


def _check_kind(document: Dict[str, Any], kind: str) -> None:
    """Validate the ``kind`` tag and wire version of one document.

    Readers are *tolerant*: unknown extra keys are ignored everywhere and
    a missing ``version`` is read as 1 (documents written before the
    field existed).  A version beyond :data:`FORMAT_VERSION` raises the
    typed :class:`~repro.errors.UnsupportedVersionError` — the serving
    layer maps it to the stable ``unsupported_version`` error code
    instead of a traceback.
    """
    if not isinstance(document, dict):
        raise ReproError(f"expected a dict for {kind}, got {type(document).__name__}")
    found = document.get("kind")
    if found != kind:
        raise ReproError(f"expected kind={kind!r}, found {found!r}")
    version = document.get("version", FORMAT_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise UnsupportedVersionError(
            f"{kind} document carries a malformed version {version!r}; "
            f"expected an integer >= 1"
        )
    if version > FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{kind} document is wire version {version}, but this reader "
            f"supports versions 1..{FORMAT_VERSION}"
        )


# ----------------------------------------------------------------------
# Query graphs
# ----------------------------------------------------------------------

def graph_to_dict(graph: QueryGraph) -> Dict[str, Any]:
    """Serialize a query graph."""
    return {
        "kind": "query_graph",
        "version": FORMAT_VERSION,
        "n_vertices": graph.n_vertices,
        "edges": [list(edge) for edge in graph.edges],
    }


def graph_from_dict(document: Dict[str, Any]) -> QueryGraph:
    """Deserialize a query graph."""
    _check_kind(document, "query_graph")
    return QueryGraph(
        document["n_vertices"],
        [tuple(edge) for edge in document["edges"]],
    )


# ----------------------------------------------------------------------
# Catalogs
# ----------------------------------------------------------------------

def catalog_to_dict(catalog: Catalog) -> Dict[str, Any]:
    """Serialize a catalog (graph + relations + selectivities)."""
    return {
        "kind": "catalog",
        "version": FORMAT_VERSION,
        "graph": graph_to_dict(catalog.graph),
        "relations": [
            {"name": r.name, "cardinality": r.cardinality}
            for r in catalog.relations
        ],
        "selectivities": [
            {"edge": [u, v], "selectivity": catalog.selectivity(u, v)}
            for (u, v) in catalog.graph.edges
        ],
    }


def catalog_from_dict(document: Dict[str, Any]) -> Catalog:
    """Deserialize a catalog."""
    _check_kind(document, "catalog")
    graph = graph_from_dict(document["graph"])
    relations = [
        Relation(name=r["name"], cardinality=r["cardinality"])
        for r in document["relations"]
    ]
    selectivities = {
        tuple(item["edge"]): item["selectivity"]
        for item in document["selectivities"]
    }
    return Catalog(graph, relations, selectivities)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

def plan_to_dict(plan: JoinTree) -> Dict[str, Any]:
    """Serialize a join tree (recursively)."""

    def encode(node: JoinTree) -> Dict[str, Any]:
        if node.is_leaf:
            return {
                "relation": node.relation,
                "vertex_set": node.vertex_set,
                "cardinality": node.cardinality,
                "cost": node.cost,
            }
        return {
            "implementation": node.implementation,
            "vertex_set": node.vertex_set,
            "cardinality": node.cardinality,
            "cost": node.cost,
            "left": encode(node.left),
            "right": encode(node.right),
        }

    return {
        "kind": "join_tree",
        "version": FORMAT_VERSION,
        "root": encode(plan),
    }


def plan_from_dict(document: Dict[str, Any]) -> JoinTree:
    """Deserialize a join tree; structural invariants are re-validated."""
    _check_kind(document, "join_tree")

    def decode(node: Dict[str, Any]) -> JoinTree:
        if "relation" in node:
            return _node(
                node["vertex_set"],
                node["cardinality"],
                node["cost"],
                node["relation"],
                None,
                None,
                None,
            )
        return _node(
            node["vertex_set"],
            node["cardinality"],
            node["cost"],
            None,
            decode(node["left"]),
            decode(node["right"]),
            node.get("implementation"),
        )

    plan = decode(document["root"])
    plan.validate()
    return plan


# ----------------------------------------------------------------------
# Plan caches (the service layer's warm state)
# ----------------------------------------------------------------------

def plan_cache_entry_checksum(item: Dict[str, Any]) -> str:
    """SHA-256 over one entry's canonical JSON, ``checksum`` field excluded.

    The checksum detects torn or bit-rotted entries at load time; it is
    computed over ``json.dumps(..., sort_keys=True)`` so key order and
    whitespace cannot change it.
    """
    import hashlib

    stripped = {key: value for key, value in item.items() if key != "checksum"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_cache_to_dict(cache) -> Dict[str, Any]:
    """Serialize a :class:`repro.service.PlanCache`.

    Entries are emitted least- to most-recently used so a reload
    reconstructs the LRU order.  Plans are stored in the cache's own
    canonical vertex space; signatures are opaque keys.  Every entry
    carries a ``checksum`` (see :func:`plan_cache_entry_checksum`) so a
    partially written or corrupted file can be detected entry by entry.
    """
    entries = []
    for entry in cache.entries():
        item = {
            "signature": entry.signature,
            "algorithm": entry.algorithm,
            "memo_entries": entry.memo_entries,
            "cost_evaluations": entry.cost_evaluations,
            "cardinality_estimations": entry.cardinality_estimations,
            "details": dict(entry.details),
            "plan": plan_to_dict(entry.plan),
        }
        item["checksum"] = plan_cache_entry_checksum(item)
        entries.append(item)
    return {
        "kind": "plan_cache",
        "version": FORMAT_VERSION,
        "capacity": cache.capacity,
        "entries": entries,
    }


def _plan_cache_entry_from_dict(item: Dict[str, Any]):
    """Decode and verify one plan-cache entry (checksum when present)."""
    from repro.service.cache import CacheEntry

    if not isinstance(item, dict):
        raise ReproError(
            f"plan cache entry must be an object, got {type(item).__name__}"
        )
    stored = item.get("checksum")
    if stored is not None and stored != plan_cache_entry_checksum(item):
        raise ReproError(
            f"plan cache entry {item.get('signature', '<unknown>')!r} "
            "failed its checksum (torn write or corruption)"
        )
    return CacheEntry(
        signature=item["signature"],
        plan=plan_from_dict(item["plan"]),
        algorithm=item["algorithm"],
        memo_entries=item.get("memo_entries", 0),
        cost_evaluations=item.get("cost_evaluations", 0),
        cardinality_estimations=item.get("cardinality_estimations", 0),
        details=dict(item.get("details", {})),
    )


def plan_cache_from_dict(document: Dict[str, Any]) -> List:
    """Deserialize plan-cache entries (plans re-validated on the way in).

    Returns a list of :class:`repro.service.CacheEntry` in the stored
    recency order; feed them to :meth:`repro.service.PlanCache.put` (or
    use :meth:`repro.service.PlanCache.load`, which does).  Entries with
    checksums are verified; any corruption raises :class:`ReproError`.
    For quarantine-and-continue semantics use
    :func:`plan_cache_from_dict_tolerant`.
    """
    _check_kind(document, "plan_cache")
    return [_plan_cache_entry_from_dict(item) for item in document["entries"]]


def plan_cache_from_dict_tolerant(
    document: Dict[str, Any],
) -> "Tuple[List, List[Dict[str, Any]]]":
    """Deserialize a plan cache, skipping (not raising on) bad entries.

    Returns ``(entries, rejected)``: ``entries`` are the good
    :class:`~repro.service.cache.CacheEntry` objects in stored recency
    order; ``rejected`` holds one ``{"error": ..., "entry": ...}`` record
    per entry that failed its checksum or could not be decoded —
    :meth:`repro.service.PlanCache.load` quarantines those to a sidecar
    file and keeps going.  A document that is not a plan-cache at all
    still raises.
    """
    _check_kind(document, "plan_cache")
    items = document.get("entries")
    if not isinstance(items, list):
        raise ReproError("plan cache document has no 'entries' list")
    entries: List = []
    rejected: List[Dict[str, Any]] = []
    for item in items:
        try:
            entries.append(_plan_cache_entry_from_dict(item))
        except Exception as exc:
            rejected.append(
                {"error": f"{type(exc).__name__}: {exc}", "entry": item}
            )
    return entries, rejected


# ----------------------------------------------------------------------
# Cost models (for shipping requests to worker processes)
# ----------------------------------------------------------------------

def _subclasses_named(base: type, name: Any) -> List[type]:
    """Every subclass of ``base``, at any depth, whose ``__qualname__`` is ``name``."""
    matches = []
    seen = set()
    stack = list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if cls.__qualname__ == name:
            matches.append(cls)
        stack.extend(cls.__subclasses__())
    return matches


def _live_class(base: type, name: Any, what: str) -> type:
    """The one live subclass of ``base`` whose ``__qualname__`` is ``name``.

    Walks ``base.__subclasses__()`` recursively, so a class defined
    anywhere in this process — the built-ins, a plugin, a local class in
    a test — is found by name alone; nothing is imported or unpickled,
    which keeps this safe on input decoded from the wire.  A forked
    worker holds every class its parent defined; a worker started
    without ``fork`` sees only the built-ins.  No match raises "unknown
    ... class"; two or more live classes with the name raise an
    ambiguity error rather than guess.
    """
    if len(_subclasses_named(base, name)) > 1:
        # A local class from a call that has returned is unreachable but
        # stays in __subclasses__() until the cycle collector runs.
        gc.collect()
    matches = _subclasses_named(base, name)
    if not matches:
        raise ReproError(
            f"unknown {what} class {name!r} (a worker started without "
            "fork knows only the built-in classes)"
        )
    if len(matches) > 1:
        raise ReproError(
            f"{what} class name {name!r} is ambiguous: {len(matches)} "
            "live classes share that qualified name"
        )
    return matches[0]


def cost_model_to_dict(cost_model) -> Dict[str, Any]:
    """Serialize a cost model as its class ``__qualname__`` plus signature fields.

    The receiver rebuilds it as ``cls(**params)`` from the one live
    :class:`~repro.cost.base.CostModel` subclass of that name (see
    :func:`cost_model_from_dict`), so a custom model crosses to a forked
    process-pool worker as long as its
    :meth:`~repro.cost.base.CostModel.signature_fields` are constructor
    keywords.  The name is checked here first, so a model the receiver
    could not resolve fails before anything is shipped.
    """
    from repro.cost.base import CostModel

    name = type(cost_model).__qualname__
    try:
        resolved = _live_class(CostModel, name, "cost model")
    except ReproError as exc:
        raise ReproError(
            f"cost model {name!r} cannot be shipped to a worker process: {exc}"
        ) from exc
    if resolved is not type(cost_model):
        raise ReproError(
            f"cost model {name!r} cannot be shipped to a worker process: "
            "its name resolves to a different CostModel subclass"
        )
    return {
        "kind": "cost_model",
        "version": FORMAT_VERSION,
        "class": name,
        "params": cost_model.signature_fields(),
    }


def cost_model_from_dict(document: Dict[str, Any]):
    """Deserialize a cost model serialized by :func:`cost_model_to_dict`.

    Classes are looked up by name among the live subclasses of
    :class:`~repro.cost.base.CostModel` and
    :class:`~repro.cost.base.JoinImplementation`; a name that is unknown
    or ambiguous raises :class:`~repro.errors.ReproError`.
    """
    from repro.cost.base import CostModel, JoinImplementation

    _check_kind(document, "cost_model")
    cls = _live_class(CostModel, document["class"], "cost model")
    params = dict(document.get("params", {}))
    if "implementations" in params:
        implementations = []
        for item in params["implementations"]:
            implementation = _live_class(
                JoinImplementation, item.get("class"), "join implementation"
            )
            kwargs = {k: v for k, v in item.items() if k != "class"}
            implementations.append(implementation(**kwargs))
        params["implementations"] = implementations
    return cls(**params)


# ----------------------------------------------------------------------
# Optimization requests and results (the process executor's wire format)
# ----------------------------------------------------------------------

def request_to_dict(request) -> Dict[str, Any]:
    """Serialize an :class:`~repro.optimizer.api.OptimizationRequest`.

    ``query`` may be a catalog, a bare graph, or a workload
    :class:`~repro.catalog.workload.QueryInstance` (whose shape/seed
    provenance is preserved).  The cost model must be serializable per
    :func:`cost_model_to_dict`; ``None`` round-trips as ``None``.
    """
    from repro.catalog.workload import QueryInstance

    query = request.query
    if isinstance(query, QueryInstance):
        query_document: Dict[str, Any] = {
            "kind": "query_instance",
            "version": FORMAT_VERSION,
            "catalog": catalog_to_dict(query.catalog),
            "shape": query.shape,
            "seed": query.seed,
        }
    elif isinstance(query, Catalog):
        query_document = catalog_to_dict(query)
    elif isinstance(query, QueryGraph):
        query_document = graph_to_dict(query)
    else:
        raise ReproError(
            f"cannot serialize query of type {type(query).__name__}"
        )
    return {
        "kind": "optimization_request",
        "version": FORMAT_VERSION,
        "query": query_document,
        "algorithm": request.algorithm,
        "cost_model": (
            cost_model_to_dict(request.cost_model)
            if request.cost_model is not None
            else None
        ),
        "enable_pruning": request.enable_pruning,
        "allow_cross_products": request.allow_cross_products,
        "tag": request.tag,
        "deadline_seconds": request.deadline_seconds,
        "node_budget": request.node_budget,
        "stats_epoch": request.stats_epoch,
    }


def request_from_dict(document: Dict[str, Any]):
    """Deserialize an :class:`~repro.optimizer.api.OptimizationRequest`."""
    _check_kind(document, "optimization_request")
    from repro.catalog.workload import QueryInstance
    from repro.optimizer.api import OptimizationRequest

    query_document = document["query"]
    if not isinstance(query_document, dict):
        raise ReproError("request query must be a serialized document")
    query_kind = query_document.get("kind")
    if query_kind == "query_instance":
        _check_kind(query_document, "query_instance")
        catalog = catalog_from_dict(query_document["catalog"])
        query: Any = QueryInstance(
            graph=catalog.graph,
            catalog=catalog,
            shape=query_document.get("shape", "unknown"),
            seed=query_document.get("seed"),
        )
    elif query_kind == "catalog":
        query = catalog_from_dict(query_document)
    elif query_kind == "query_graph":
        query = graph_from_dict(query_document)
    else:
        raise ReproError(f"unknown request query kind {query_kind!r}")
    cost_model_document = document.get("cost_model")
    return OptimizationRequest(
        query=query,
        algorithm=document["algorithm"],
        cost_model=(
            cost_model_from_dict(cost_model_document)
            if cost_model_document is not None
            else None
        ),
        enable_pruning=document.get("enable_pruning", False),
        allow_cross_products=document.get("allow_cross_products", False),
        tag=document.get("tag"),
        # Cooperative-budget fields arrived after version 1 shipped;
        # tolerant readers default them off, so old documents (and old
        # readers seeing new documents) keep working.
        deadline_seconds=document.get("deadline_seconds"),
        node_budget=document.get("node_budget"),
        stats_epoch=document.get("stats_epoch", 0),
    )


def result_to_dict(result) -> Dict[str, Any]:
    """Serialize an :class:`~repro.optimizer.api.OptimizationResult`.

    ``error`` is emitted as a typed payload —
    ``{"code", "message", "retryable"}`` per
    :class:`~repro.errors.ErrorInfo` — never a bare exception repr.
    Legacy plain-string errors are coerced (their code recovered from the
    ``"TypeName: message"`` prefix when it names a library error).
    """
    error = ErrorInfo.coerce(result.error)
    return {
        "kind": "optimization_result",
        "version": FORMAT_VERSION,
        "plan": plan_to_dict(result.plan) if result.plan is not None else None,
        "algorithm": result.algorithm,
        "elapsed_seconds": result.elapsed_seconds,
        "memo_entries": result.memo_entries,
        "cost_evaluations": result.cost_evaluations,
        "cardinality_estimations": result.cardinality_estimations,
        "details": dict(result.details),
        "cache_hit": result.cache_hit,
        "signature": result.signature,
        "error": error.to_dict() if error is not None else None,
        "tag": result.tag,
        "trace_id": result.trace_id,
    }


def plan_to_json(plan: JoinTree) -> str:
    """:func:`plan_to_dict` as compact JSON, the text it takes inside
    any compact JSON document that embeds it."""
    return json.dumps(plan_to_dict(plan), separators=_COMPACT)


def reply_to_json(envelope: Dict[str, Any], result, plan_json: str) -> bytes:
    """Compact UTF-8 JSON of ``envelope`` with the result under ``"result"``.

    ``plan_json`` is :func:`plan_to_json` of ``result.plan``, which a
    caller may keep encoded across replies: it is spliced in as text.
    JSON encoding is compositional, so the bytes are those of
    ``json.dumps({**envelope, "result": result_to_dict(result)},
    separators=(",", ":"))``.
    """
    fields = json.dumps(
        result_to_dict(dataclasses.replace(result, plan=None)),
        separators=_COMPACT,
    )
    # Only the constant "kind" and "version" come before "plan", so the
    # first null plan in the text is the result's own.
    before, _, after = fields.partition('"plan":null')
    head = json.dumps(envelope, separators=_COMPACT)[:-1]
    if envelope:
        head += ","
    return f'{head}"result":{before}"plan":{plan_json}{after}}}'.encode("utf-8")


def result_from_dict(document: Dict[str, Any]):
    """Deserialize an :class:`~repro.optimizer.api.OptimizationResult`.

    The tolerant reader accepts both the typed error payload and the
    legacy bare-string form; either way ``result.error`` comes back as an
    :class:`~repro.errors.ErrorInfo` (a str subclass), so string-treating
    callers are unaffected.
    """
    _check_kind(document, "optimization_result")
    from repro.optimizer.api import OptimizationResult

    plan_document: Optional[Dict[str, Any]] = document.get("plan")
    return OptimizationResult(
        plan=plan_from_dict(plan_document) if plan_document is not None else None,
        algorithm=document["algorithm"],
        elapsed_seconds=document.get("elapsed_seconds", 0.0),
        memo_entries=document.get("memo_entries", 0),
        cost_evaluations=document.get("cost_evaluations", 0),
        cardinality_estimations=document.get("cardinality_estimations", 0),
        details=dict(document.get("details", {})),
        cache_hit=document.get("cache_hit", False),
        signature=document.get("signature"),
        error=ErrorInfo.coerce(document.get("error")),
        tag=document.get("tag"),
        trace_id=document.get("trace_id"),
    )

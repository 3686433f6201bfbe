"""Developer-facing schema and query-building layer.

Downstream users rarely hold bitsets and selectivity dicts; they hold a
schema and a query.  This package maps that world onto the optimizer
substrate:

* :class:`~repro.frontend.schema.Database` / `Table` / `ForeignKey` —
  a catalog of base tables with row counts and join keys,
* :class:`~repro.frontend.query.QueryBuilder` — accumulate the tables a
  query touches and the predicates between them ("t1.a = t2.b" strings
  or explicit selectivities), then hand a ready
  :class:`~repro.catalog.statistics.Catalog` to any optimizer.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "Column": "repro.frontend.schema",
    "Database": "repro.frontend.schema",
    "ForeignKey": "repro.frontend.schema",
    "Table": "repro.frontend.schema",
    "QueryBuilder": "repro.frontend.query",
    "parse_select": "repro.frontend.sql",
    "SqlError": "repro.frontend.sql",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)

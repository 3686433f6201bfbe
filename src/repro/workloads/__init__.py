"""Realistic benchmark workloads built on the schema front end."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "tpch_database": "repro.workloads.tpch",
    "tpch_query": "repro.workloads.tpch",
    "tpch_query_names": "repro.workloads.tpch",
    "TPCH_QUERIES": "repro.workloads.tpch",
    "ssb_database": "repro.workloads.ssb",
    "ssb_query": "repro.workloads.ssb",
    "ssb_query_names": "repro.workloads.ssb",
    "SSB_QUERIES": "repro.workloads.ssb",
    "job_database": "repro.workloads.joblite",
    "job_query": "repro.workloads.joblite",
    "job_query_names": "repro.workloads.joblite",
    "JOB_QUERIES": "repro.workloads.joblite",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)

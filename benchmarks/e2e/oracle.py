"""Independent optimal costs for every generated query, cached by content.

The oracle never runs the engine under test.  DPccp (bottom-up csg-cmp
enumeration) prices every sparse query and every query with n <= 11.
Larger dense C_out queries go to the pure-python DPconv engine
(``native_backend="off"``): the reference the native C and numpy rungs
must match bit for bit, and ~10x cheaper than DPccp there (DPccp needs
~3 s on a 14-clique).  The work runs outside any timed window, split
over two worker processes (``python oracle.py TASK OUT``).

Costs are cached per workload under ``runs/oracle/``, keyed by the
sha256 of each query's own JSON, so a query is priced once per
checkout however many seeds draw it (``gen.STAT_VARIANTS``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from common import HERE, RUNS, catalog_of, child_env, cost_model_of, read_json, write_json


def oracle_engine(query):
    n = query["n"]
    density = len(query["edges"]) / (n * (n - 1) / 2)
    if query["model"] == "cout" and n > 11 and density > 0.5:
        return "dpconv-python"
    return "dpccp"


def optimal_cost(query):
    catalog = catalog_of(query)
    if oracle_engine(query) == "dpccp":
        from repro.optimizer.dpccp import DPccp

        plan = DPccp(catalog, cost_model=cost_model_of(query)).optimize()
    else:
        from repro.optimizer.dpconv import DPconvPlanGenerator

        plan = DPconvPlanGenerator(catalog, native_backend="off").optimize()
    return plan.cost


def query_key(query):
    """The cache key of a query: the sha256 of its canonical JSON."""
    blob = json.dumps(query, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def oracle_items(inputs):
    """``(key, query)`` for every distinct query a run may send."""
    items = [(str(i), q) for i, q in enumerate(inputs["queries"])]
    items += [(f"d{i}", q) for i, q in inputs.get("drifted", {}).items()]
    return items


def cache_path(workload):
    return os.path.join(RUNS, "oracle", f"{workload}.json")


def _price(queries, path, workers):
    """``{query key: optimal cost}`` for ``queries``, computed now."""
    # Largest first, dealt round-robin, so the workers finish together.
    items = sorted(queries.items(), key=lambda i: (-i[1]["n"], -len(i[1]["edges"])))
    tasks = []
    for worker in range(workers):
        task = f"{path}.task{worker}"
        write_json(task, items[worker::workers])
        tasks.append(task)
    processes = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "oracle.py"), task, f"{task}.out"],
            env=child_env(),
        )
        for task in tasks
    ]
    costs = {}
    try:
        for process, task in zip(processes, tasks):
            if process.wait() != 0:
                raise RuntimeError(f"oracle worker for {task} failed")
            costs.update(read_json(f"{task}.out"))
    finally:
        for process in processes:
            process.kill()
            process.wait()
        for task in tasks:
            for name in (task, f"{task}.out"):
                if os.path.exists(name):
                    os.remove(name)
    return costs


def oracle_costs(inputs, workers=2):
    """``{key: optimal cost}`` of a run's inputs, pricing only unseen queries."""
    path = cache_path(inputs["workload"])
    try:
        known = read_json(path)
    except (OSError, ValueError):
        known = {}
    keys = {key: query_key(query) for key, query in oracle_items(inputs)}
    unseen = {
        keys[key]: query for key, query in oracle_items(inputs) if keys[key] not in known
    }
    if unseen:
        known.update(_price(unseen, path, workers))
        write_json(path, known)
    return {key: known[digest] for key, digest in keys.items()}


if __name__ == "__main__":
    write_json(sys.argv[2], {key: optimal_cost(q) for key, q in read_json(sys.argv[1])})

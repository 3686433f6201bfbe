"""The import chain: a request loads only the code it runs.

Every package ``__init__`` resolves its re-exports on first use
(:mod:`repro._lazy`), and the optimizer's modules import only what they
call, so ``import repro.optimizer.api`` loads neither the service layer
(asyncio, shards, the front door) nor the hypergraph and tracer code.
The chain checks run in a fresh interpreter each: this test process has
long since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.bench",
    "repro.catalog",
    "repro.cost",
    "repro.enumeration",
    "repro.exec",
    "repro.frontend",
    "repro.graph",
    "repro.heuristics",
    "repro.optimizer",
    "repro.plan",
    "repro.service",
    "repro.workloads",
)

#: Modules no optimize call reaches.
NOT_ON_THE_OPTIMIZER_PATH = (
    "asyncio",
    "repro.graph.hypergraph",
    "repro.catalog.hyper",
    "repro.optimizer.dphyp",
    "repro.enumeration.hyper_partition",
    "repro.heuristics.hyper_goo",
    "repro.enumeration.trace",
    "repro.enumeration.trace_lazy",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _off_path(loaded):
    return sorted(
        m
        for m in loaded
        if m in NOT_ON_THE_OPTIMIZER_PATH or m.split(".")[:2] == ["repro", "service"]
    )


def test_optimizer_api_loads_no_service_asyncio_or_hypergraph_code():
    report = _fresh(
        """
        import json, sys
        import repro.optimizer.api as api
        loaded = sorted(sys.modules)
        from repro.catalog.workload import attach_random_statistics
        from repro.graph.random import random_cyclic_graph
        from repro.graph.shapes import clique_graph
        costs = []
        for graph in (random_cyclic_graph(9, 14, seed=3), clique_graph(7)):
            catalog = attach_random_statistics(graph, seed=3)
            costs.append([
                api.optimize_query(catalog, algorithm="auto").cost,
                api.optimize_query(catalog, algorithm="dpsub").cost,
            ])
        print(json.dumps({"loaded": loaded, "costs": costs}))
        """
    )
    assert _off_path(report["loaded"]) == []
    for auto, dpsub in report["costs"]:
        assert auto == pytest.approx(dpsub, rel=1e-9)


def test_cli_import_loads_no_service_or_asyncio():
    # The serve subcommands import the service layer when they run.
    report = _fresh(
        """
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert _off_path(report) == []


def test_bare_import_loads_no_subpackage():
    report = _fresh(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert report == ["repro", "repro._lazy", "repro.errors"]


@pytest.mark.parametrize("package", PACKAGES)
def test_public_surface_resolves_lazily(package):
    """``dir`` lists ``__all__``, unknown names import nothing, and every
    ``__all__`` name resolves through ``import *`` and ``getattr``."""
    report = _fresh(
        f"""
        import json, sys
        import {package} as package
        listed = sorted(set(package.__all__) - set(dir(package)))
        before = set(sys.modules)
        probe = getattr(package, "no_such_name", None)
        added = sorted(set(sys.modules) - before)
        namespace = {{}}
        exec("from {package} import *", namespace)
        unbound = [n for n in package.__all__ if n not in namespace]
        differ = [n for n in package.__all__ if getattr(package, n) is not namespace.get(n)]
        print(json.dumps({{
            "listed": listed, "probe": repr(probe), "added": added,
            "unbound": unbound, "differ": differ,
        }}))
        """
    )
    assert report == {
        "listed": [],
        "probe": "None",
        "added": [],
        "unbound": [],
        "differ": [],
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_name_their_defining_module(package):
    module = importlib.import_module(package)
    for name, home in module._EXPORTS.items():
        value = getattr(importlib.import_module(home), name)
        assert getattr(value, "__module__", home) == home, name


def test_src_imports_from_defining_modules():
    """``src/`` never imports a name from a package ``__init__``: a
    package import names a submodule, so no re-export table sits on a
    code path."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            package = SRC.joinpath(*node.module.split("."))
            if not (package / "__init__.py").exists():
                continue
            for alias in node.names:
                target = package / alias.name
                if not (target.with_suffix(".py").exists() or target.is_dir()):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"from {node.module} import {alias.name}"
                    )
    assert offenders == []

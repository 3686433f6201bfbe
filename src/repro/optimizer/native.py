"""Compiled C rung for the DPconv exact tier.

One optional rung sits behind the pure-python layered convolution in
:class:`~repro.optimizer.dpconv.DPconvPlanGenerator`: a cffi-compiled
transcription of the pure scalar loop (see
:mod:`repro.optimizer._native_build`).  It is never required — built
on demand, cached on disk, and any failure degrades silently to the
pure engine.

Selection (:func:`resolve_backend`) takes the ``native_backend=``
constructor argument (``"auto"``, ``"c"`` or ``"off"``) and only ever
engages for the plain ``C_out`` cost model — generic symmetric models
price through a Python callback the C loop cannot call, so they stay on
the pure engine even when ``"c"`` is requested.  ``auto`` uses an
**already-compiled** kernel only (no compile latency on the serving
path; deploy with ``repro-optimize backends --build``); ``"c"``
compiles eagerly.

Exactness contract (gated by ``tests/test_dpconv_equivalence.py``): the
C loop performs every float operation in the pure loop's order and
breaks ties the same way (descending submask scan, strict ``<``), so
costs, cardinalities, memo contents and the extracted plan tree are
**bit-identical** to the pure engine's on every input.  A C host and a
pure-python host therefore cache the same plan under one signature.

Budgets stay cooperative: the rung charges the
:class:`~repro.optimizer.budget.Budget` between bounded chunks of the
mask range (``check()`` before, ``charge(settled)`` after), so expiry
flushes every fully-settled set for salvage exactly like the pure
engine, with overshoot bounded by one chunk instead of one submask scan.
"""

from __future__ import annotations

import math
import struct
from itertools import repeat
from typing import Optional

from repro.cost.cout import CoutCostModel
from repro.errors import OptimizationError
from repro.optimizer import _native_build
from repro.optimizer.budget import BudgetExpired

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "native_backend_status",
    "run_c_convolution",
]

#: Recognized values for the ``native_backend`` argument.
BACKENDS = ("auto", "c", "off")

#: Size ceiling of the C rung (its ``O(2^n)`` state arrays).  Beyond it
#: the pure engine takes over — same asymptotics, worse constant.
C_MAX_N = 20

#: memoized numpy module (or None when unavailable).  numpy selects no
#: rung; it only speeds up collecting the settled sets after a C run.
_NUMPY: list = []


def _numpy():
    if not _NUMPY:
        try:
            import numpy
        except Exception:
            numpy = None
        _NUMPY.append(numpy)
    return _NUMPY[0]


# ----------------------------------------------------------------------
# Selection


def resolve_backend(cost_model, requested=None, n=None):
    """Pick the rung for this run: ``"c"``, or ``None`` for pure python.

    ``requested`` is ``None`` (same as ``"auto"``) or one of
    :data:`BACKENDS`; anything else raises.  ``off``, a cost model
    other than exactly :class:`CoutCostModel`, no loadable kernel, or
    ``n`` above :data:`C_MAX_N` all resolve to ``None``.
    """
    mode = "auto" if requested is None else requested
    if mode not in BACKENDS:
        raise OptimizationError(
            f"native_backend must be one of {BACKENDS}, got {requested!r}"
        )
    if mode == "off":
        return None
    # Only the plain C_out model has the split-independent local term
    # and callback-free pricing the C loop implements; subclasses may
    # override join_cost, so require the exact type (mirrors the pure
    # engine's own ``cout_fast`` check).
    if cost_model is not None and type(cost_model) is not CoutCostModel:
        return None
    kernel = _native_build.load_c_kernel(build=(mode == "c"))
    if kernel is not None and (n is None or n <= C_MAX_N):
        return "c"
    return None


def native_backend_status() -> dict:
    """Operator-facing report: what imported, what compiled, what runs.

    Served by ``repro.cli backends``, the service ``stats_snapshot``
    (hence ``/v1/stats`` per shard), and bench environment stanzas, so
    a slow host explains itself at a glance.
    """
    numpy = _numpy()
    try:
        import cffi
        cffi_version: Optional[str] = cffi.__version__
    except Exception:
        cffi_version = None
    compiler = _native_build.compiler_available()
    kernel_path = _native_build.cached_kernel_path()
    return {
        "numpy": {
            "available": numpy is not None,
            "version": getattr(numpy, "__version__", None),
        },
        "cffi": {"available": cffi_version is not None, "version": cffi_version},
        "compiler": {"available": compiler is not None, "cc": compiler},
        "c_kernel": {
            "built": kernel_path is not None,
            "path": kernel_path,
            "tag": _native_build.KERNEL_TAG,
        },
        "resolved": resolve_backend(CoutCostModel()) or "python",
        "max_n": {"c": C_MAX_N},
    }


# ----------------------------------------------------------------------
# Driver


def run_c_convolution(generator, full: int) -> None:
    """Fill ``generator``'s memo with the compiled kernel.

    Only called after :func:`resolve_backend` returned ``"c"``; a loaded
    kernel stays loaded for the life of the process.  Same contract as
    ``DPconvPlanGenerator._convolve``: flush every settled connected set
    through ``memo.bulk_load``, mirror the ``cost_evaluations`` /
    ``estimations`` accounting, and on budget expiry mark the root
    unsolved and re-raise :class:`BudgetExpired` so the driver's salvage
    path takes over.
    """
    module = _native_build.load_c_kernel()
    ffi, lib = module.ffi, module.lib
    graph = generator.graph
    catalog = generator.catalog
    builder = generator.builder
    memo = builder.memo
    budget = generator.budget
    n = graph.n_vertices
    size = full + 1

    adj_list = [graph.neighbors_of_vertex(v) for v in range(n)]
    adj = ffi.new("unsigned long long[]", adj_list)
    sel_offsets = [0]
    sel_nbits: list = []
    sel_vals: list = []
    for vertex in range(n):
        for neighbor_bit, sel in catalog._vertex_selectivity[vertex]:
            sel_nbits.append(neighbor_bit)
            sel_vals.append(sel)
        sel_offsets.append(len(sel_nbits))
    sel_off = ffi.new("int[]", sel_offsets)
    sel_nbit = ffi.new("unsigned long long[]", sel_nbits)
    sel_val = ffi.new("double[]", sel_vals)

    dp = ffi.new("double[]", size)
    ffi.buffer(dp)[:] = struct.pack("=d", math.inf) * size
    card = ffi.new("double[]", size)
    card[0] = 1.0
    nbr = ffi.new("unsigned long long[]", size)
    conn = ffi.new("unsigned char[]", size)
    best_left = ffi.new("unsigned long long[]", size)
    best_right = ffi.new("unsigned long long[]", size)
    priced = ffi.new("long long *", 0)

    for entry in memo.entries():
        leaf = entry.vertex_set
        vertex = leaf.bit_length() - 1
        dp[leaf] = entry.cost
        card[leaf] = entry.cardinality
        conn[leaf] = 1
        nbr[leaf] = adj_list[vertex]

    # A set's submask scan costs up to 2^(n-1) iterations, so size the
    # mask range per call to bound budget overshoot to ~4M iterations.
    chunk = max(256, (1 << 22) >> max(0, n - 1)) if budget is not None else size
    aborted = False
    s_set = 3
    while s_set < size:
        end = min(size, s_set + chunk)
        if budget is not None:
            try:
                budget.check()
            except BudgetExpired:
                aborted = True
                break
        settled = lib.dpconv_cout_range(
            s_set, end, adj, sel_off, sel_nbit, sel_val,
            dp, card, nbr, conn, best_left, best_right, priced,
        )
        builder.estimator.estimations += settled
        s_set = end
        if budget is not None and settled:
            try:
                budget.charge(settled)
            except BudgetExpired:
                aborted = True
                break
    builder.cost_evaluations += priced[0]

    conn_bytes = bytes(ffi.buffer(conn))
    np = _numpy()
    if np is not None:
        flags = np.frombuffer(conn_bytes, dtype=np.uint8)
        sets = np.flatnonzero(flags)
        set_list = sets[(sets & (sets - 1)) != 0].tolist()
    else:
        set_list = [
            m for m in range(3, size) if conn_bytes[m] and m & (m - 1)
        ]
    if set_list:
        # Leaves are pre-seeded with identical values, so skipping them
        # leaves the memo byte-identical to the pure engine's flush.
        # ``zip`` + ``repeat`` builds each row tuple in C, keeping the
        # interpreter out of this loop.
        card_all = ffi.unpack(card, size)
        dp_all = ffi.unpack(dp, size)
        left_all = ffi.unpack(best_left, size)
        right_all = ffi.unpack(best_right, size)
        memo.bulk_load(
            zip(
                set_list,
                [card_all[m] for m in set_list],
                [dp_all[m] for m in set_list],
                [left_all[m] for m in set_list],
                [right_all[m] for m in set_list],
                repeat("join"),
                repeat(True),
            )
        )
    if aborted:
        if not conn_bytes[full]:
            memo.bulk_load(((full, None, math.inf, 0, 0, None, False),))
        raise BudgetExpired(budget.reason or "budget expired")

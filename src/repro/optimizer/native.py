"""Compiled C engines behind the DPconv tier and the top-down driver.

One cffi-compiled module (see :mod:`repro.optimizer._native_build`)
carries two engines, each a transcription of a pure-python loop:

* **C dpconv** -- the ``C_out`` hot path of
  :meth:`~repro.optimizer.dpconv.DPconvPlanGenerator._convolve`, run by
  :func:`run_c_convolution` for ``n`` <= :data:`C_MAX_N` (its
  ``O(2^n)`` state arrays);
* **C top-down** -- MinCutBranch (Figs. 4-6) driving the iterative
  TDPGSUB of :mod:`repro.optimizer.kernel`, run by :func:`run_c_topdown`
  for ``n`` <= :data:`TOPDOWN_MAX_N` (one ``uint64`` mask per set; the
  memo is an open-addressing table keyed by mask).  The top-down driver
  takes it only for exactly ``MinCutBranch(use_optimizations=True)``,
  unpruned; every other partitioner, pruning and ``n`` > 64 stay on the
  python kernel, which remains the oracle.  It prices ``C_out`` and the
  physical model (both orientations per ccp, the cheapest of its join
  implementations, the winner's name in the memo).

Neither is ever required -- built on demand, cached on disk, and any
failure degrades silently to the pure engine.  The same module also
counts #ccp up to a cap (:func:`count_ccps_c`), the count behind
:func:`estimate_ccps`, the one price that admission control and
``auto`` put on a request.

Selection (:func:`resolve_backend`, one function for both engines) takes
the ``native_backend=`` constructor argument (``"auto"``, ``"c"`` or
``"off"``) and only ever engages for cost models the C loops transcribe:
exactly :class:`~repro.cost.cout.CoutCostModel` for both engines, and
for top-down also exactly
:class:`~repro.cost.physical.PhysicalCostModel` over exactly the three
bundled join implementations.  Other models (subclasses, custom
implementations) price through a Python callback the C loops cannot
call, so they stay on the pure engines even when ``"c"`` is requested.
``auto`` uses an **already-compiled** kernel only (no compile latency on
the serving path; deploy with ``repro-optimize backends --build``);
``"c"`` compiles eagerly.

Exactness contract (gated by ``tests/test_dpconv_equivalence.py`` and
``tests/test_kernel_equivalence.py``): each C loop performs every float
operation in its pure loop's order and breaks ties the same way, so
costs, cardinalities, memo contents after first read (implementation
names included), counters and the plan tree are **bit-identical** to
the pure engine's on every input whose statistics and parameters are
floats, or ints whose products stay exact in a double (python
multiplies and adds ints exactly, C rounds each step).  A C host and a
pure-python host therefore cache the same plan under one signature.

Budgets stay cooperative: C dpconv runs in bounded chunks with the
:class:`~repro.optimizer.budget.Budget` charged and checked between
them; C top-down returns to python to charge expansions and calls the
deadline check back from inside its loop (``td_check``), so one dense
set's enumeration cannot outrun a deadline.  Expiry flushes every
finished set for salvage exactly like the pure engine.

A run that finishes hands its plan out itself: C top-down walks the
root's best splits in C (``td_plan``, at most ``2n - 1`` rows) and C
dpconv walks its best-split arrays, so neither builds the memo to
extract one plan.  The memo's rows are deferred
(:meth:`~repro.plan.memo.MemoTable.defer`): its length is exact at
once, and after its first read it is the memo the pure engine fills.

C top-down's python shell is thin: ``td_new`` is the whole set-up
(graph, leaves, pricing, root), ``td_plan`` writes into the context,
nodes come from :func:`~repro.plan.jointree._node`, and no step reads
the memo.  Per request on ``compile_sparse``'s p50 band, in µs, before
-> after (``docs/ALGORITHMS.md`` has the method): ``td_run`` 88 -> 88,
plan assembly 60 -> 24, generator construction 17 -> 6, connectivity
and eligibility 14 -> 9, set-up and leaves 19 -> 10, memo rows 10 -> 6,
``td_plan`` 3 -> 1; the shell around ``td_run``, 133 -> 65.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

from repro.bitset import format_set
from repro.cost.cout import CoutCostModel
from repro.cost.physical import (
    HashJoin,
    NestedLoopJoin,
    PhysicalCostModel,
    SortMergeJoin,
)
from repro.enumeration.counting import count_ccps
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import OptimizationError
from repro.optimizer import _native_build
from repro.optimizer.budget import BudgetExpired
from repro.optimizer.kernel import next_charge_chunk
from repro.plan.jointree import JoinTree, _node

__all__ = [
    "AdmissionEstimate",
    "BACKENDS",
    "check_backend",
    "count_ccps_c",
    "estimate_ccps",
    "resolve_backend",
    "native_backend_status",
    "run_c_convolution",
    "run_c_topdown",
]

#: Recognized values for the ``native_backend`` argument.
BACKENDS = ("auto", "c", "off")

#: Size ceiling of C dpconv (its ``O(2^n)`` state arrays).  Beyond it
#: the pure engine takes over — same asymptotics, worse constant.
C_MAX_N = 20

#: Size ceiling of C top-down: a relation set is one ``uint64`` mask.
TOPDOWN_MAX_N = 64

_MAX_N = {"dpconv": C_MAX_N, "topdown": TOPDOWN_MAX_N}

#: C top-down's node-charging stride.  A C expansion is ~100x cheaper
#: than a python one, so the python kernel's stride of 32 would make
#: the return to python the dominant cost; a node cap still lands on its
#: exact expansion (:func:`~repro.optimizer.kernel.next_charge_chunk`).
#: Deadlines are checked from inside the C loop instead (``td_check``,
#: every 16k ccps, ~0.3 ms of C work).
_TOPDOWN_CHARGE_STRIDE = 1 << 12

#: Cap on C top-down's state: memo sets, and frames on its work stack
#: (each ~64 bytes, so ~0.5 GiB apiece at the cap).  A dense query of
#: ~23+ relations reaches it; with a budget the run then salvages what
#: it finished, as on expiry, and without one it raises
#: :class:`~repro.errors.OptimizationError`.
_TOPDOWN_MAX_ITEMS = 1 << 23

#: A countdown no run can reach: an unbudgeted run is one call.
_UNLIMITED = 1 << 62

#: The join implementations C top-down prices, by exact type: its kind
#: code in the C source (``TD_NESTED_LOOP``, ``TD_HASH``,
#: ``TD_SORT_MERGE``) and the two parameters it reads.
_C_IMPLEMENTATIONS = {
    NestedLoopJoin: lambda impl: (0, impl.buffer_pages, 0.0),
    HashJoin: lambda impl: (1, impl.build_factor, impl.probe_factor),
    SortMergeJoin: lambda impl: (2, 0.0, 0.0),
}

#: C top-down's pricing of ``C_out``: one implementation name, no table.
_COUT_PRICING = (("join",), 0, (), (), (), 0.0)

#: A ``td_row`` of the C source (set, card, cost, left, right, impl),
#: unpacked as the plan rows :func:`_assemble` reads: set, card, cost,
#: impl.
_ROW = struct.Struct("Qdd16xq")


#: memoized numpy module (or None when unavailable).  numpy selects no
#: engine; it only speeds up collecting the settled sets after a C
#: dpconv run.
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


def check_backend(requested) -> str:
    """Validate a ``native_backend`` value; ``None`` means ``"auto"``.

    The engines call it at construction, so a typo fails there rather
    than deep inside a request.
    """
    mode = "auto" if requested is None else requested
    if mode not in BACKENDS:
        raise OptimizationError(
            f"native_backend must be one of {BACKENDS}, got {requested!r}"
        )
    return mode


def _pricing(cost_model):
    """How C top-down prices ``cost_model``, or ``None`` when it cannot:
    the implementation names the plan and memo carry, then ``td_new``'s
    table -- ``count`` implementations' kinds and two parameters each,
    and the output weight.  It is empty for exactly
    :class:`CoutCostModel`; exactly :class:`PhysicalCostModel` over the
    three bundled implementations (any order, any parameters) has one
    row per implementation."""
    model = type(cost_model)
    if model is CoutCostModel:
        return _COUT_PRICING
    if model is not PhysicalCostModel:
        return None
    implementations = cost_model.implementations
    rows = []
    for implementation in implementations:
        row = _C_IMPLEMENTATIONS.get(type(implementation))
        if row is None:
            return None
        rows.append(row(implementation))
    names = tuple(implementation.name for implementation in implementations)
    return (names, len(rows), *zip(*rows), cost_model.output_weight)


def resolve_backend(cost_model, requested=None, n=None, engine="dpconv"):
    """Pick the engine for this run: ``"c"``, or ``None`` for pure python.

    ``requested`` is ``None`` (same as ``"auto"``) or one of
    :data:`BACKENDS`; anything else raises.  ``engine`` is ``"dpconv"``
    or ``"topdown"`` and sets the size ceiling (:data:`C_MAX_N`,
    :data:`TOPDOWN_MAX_N`).  ``off``, a cost model the engine cannot
    price, no loadable kernel, or ``n`` above the engine's ceiling all
    resolve to ``None``.  Both engines price exactly
    :class:`CoutCostModel`; top-down also prices exactly
    :class:`PhysicalCostModel` whose implementations are exactly
    :class:`NestedLoopJoin`, :class:`HashJoin` and
    :class:`SortMergeJoin`.
    """
    mode = check_backend(requested)
    if mode == "off":
        return None
    # The C loops transcribe these models' pricing instead of calling
    # join_cost; a subclass may override it, so require the exact types
    # (mirrors the pure engines' own ``cout_fast`` check).
    if cost_model is not None and type(cost_model) is not CoutCostModel:
        if engine != "topdown" or _pricing(cost_model) is None:
            return None
    if n is not None and n > _MAX_N[engine]:
        return None
    if _native_build.load_c_kernel(build=(mode == "c")) is not None:
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
        "max_n": {"dpconv": C_MAX_N, "topdown": TOPDOWN_MAX_N},
    }


# ----------------------------------------------------------------------
# Drivers


def _edges(catalog):
    """The catalog's edges flattened (``u0, v0, u1, v1, ...``) and their
    selectivities, in the order its per-vertex selectivity lists were
    built: what the C ``graph_layout`` rebuilds those lists from."""
    selectivity = catalog._selectivity
    return len(selectivity), list(chain.from_iterable(selectivity)), list(
        selectivity.values()
    )


def _assemble(rows, names, relations) -> JoinTree:
    """The plan tree from a compiled engine's plan rows.

    ``rows`` yields ``(vertex_set, cardinality, cost, implementation)``
    per node, children before parents and the left subtree first, with
    implementation -1 for a leaf and else an index into ``names``; the
    nodes equal the ones :meth:`~repro.plan.memo.MemoTable.extract_plan`
    builds from the memo.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for vertex_set, cardinality, cost, implementation in rows:
        if implementation < 0:
            name = relations[vertex_set.bit_length() - 1].name
            push(_node(vertex_set, cardinality, cost, name, None, None, None))
        else:
            right = pop()
            push(
                _node(
                    vertex_set, cardinality, cost, None, pop(), right,
                    names[implementation],
                )
            )
    return stack[0]


def _no_plan(vertex_set: int) -> OptimizationError:
    return OptimizationError(f"no plan was found for {format_set(vertex_set)}")


def run_c_convolution(generator, full: int) -> JoinTree:
    """Run the compiled kernel over ``generator``'s query; return the plan.

    Only called after :func:`resolve_backend` returned ``"c"``; a loaded
    kernel stays loaded for the life of the process.  Same contract as
    ``DPconvPlanGenerator._convolve`` followed by ``extract_plan``: the
    plan is walked from the best-split arrays, and every settled
    connected set goes to the memo, deferred (:meth:`MemoTable.defer
    <repro.plan.memo.MemoTable.defer>`), so after its first read the memo
    equals the pure engine's flush.  The ``cost_evaluations`` /
    ``estimations`` accounting is mirrored, and on budget expiry the
    sets are flushed at once, the root is marked unsolved and
    :class:`BudgetExpired` is re-raised so the driver's salvage path
    takes over.
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

    m, edges, sels = _edges(catalog)
    adj = ffi.new("unsigned long long[]", n)
    sel_off = ffi.new("int[]", n + 1)
    sel_nbit = ffi.new("unsigned long long[]", 2 * m)
    sel_val = ffi.new("double[]", 2 * m)
    lib.graph_layout(n, m, edges, sels, adj, sel_off, sel_nbit, sel_val)

    dp = ffi.new("double[]", size)
    ffi.buffer(dp)[:] = struct.pack("=d", math.inf) * size
    card = ffi.new("double[]", size)
    card[0] = 1.0
    nbr = ffi.new("unsigned long long[]", size)
    conn = ffi.new("unsigned char[]", size)
    best_left = ffi.new("unsigned long long[]", size)
    best_right = ffi.new("unsigned long long[]", size)
    priced = ffi.new("long long *", 0)

    # The leaves as the memo holds them, read without loading it.
    for vertex, relation in enumerate(catalog.relations):
        leaf = 1 << vertex
        dp[leaf] = memo._leaf_cost
        card[leaf] = relation.cardinality
        conn[leaf] = 1
        nbr[leaf] = adj[vertex]

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

    def settled_rows():
        # Runs on the memo's first read, if any; the generator keeps the
        # state arrays alive until then.
        np = _numpy()
        if np is not None:
            flags = np.frombuffer(conn_bytes, dtype=np.uint8)
            sets = np.flatnonzero(flags)
            set_list = sets[(sets & (sets - 1)) != 0].tolist()
        else:
            set_list = [
                m for m in range(3, size) if conn_bytes[m] and m & (m - 1)
            ]
        if not set_list:
            return
        # Leaves are pre-seeded with identical values, so skipping them
        # leaves the memo byte-identical to the pure engine's flush.
        # ``zip`` + ``repeat`` builds each row tuple in C, keeping the
        # interpreter out of this loop.
        card_all = ffi.unpack(card, size)
        dp_all = ffi.unpack(dp, size)
        left_all = ffi.unpack(best_left, size)
        right_all = ffi.unpack(best_right, size)
        yield from zip(
            set_list,
            [card_all[m] for m in set_list],
            [dp_all[m] for m in set_list],
            [left_all[m] for m in set_list],
            [right_all[m] for m in set_list],
            repeat("join"),
            repeat(True),
        )

    if aborted:
        memo.bulk_load(settled_rows())
        if not conn_bytes[full]:
            memo.bulk_load(((full, None, math.inf, 0, 0, None, False),))
        raise BudgetExpired(budget.reason or "budget expired")
    # Every connected set but the n leaves, which the memo already holds.
    memo.defer(settled_rows(), conn_bytes.count(1) - n)

    # The plan: walk the best splits from the root, children before
    # parents and the left subtree first, checking each set for a plan
    # in the order extract_plan does.
    rows = []
    stack = [(full, False)]
    while stack:
        vertex_set, expanded = stack.pop()
        if expanded:
            rows.append((vertex_set, card[vertex_set], dp[vertex_set], 0))
        elif dp[vertex_set] == math.inf:
            raise _no_plan(vertex_set)
        elif vertex_set & (vertex_set - 1):
            stack.append((vertex_set, True))
            stack.append((best_right[vertex_set], False))
            stack.append((best_left[vertex_set], False))
        else:
            rows.append((vertex_set, card[vertex_set], dp[vertex_set], -1))
    return _assemble(rows, ("join",), catalog.relations)


def run_c_topdown(driver, root_set: int) -> Optional[JoinTree]:
    """Run the compiled kernel over a top-down driver's query; return the plan.

    Returns ``None`` without running when the kernel cannot run this
    driver: a partitioner other than exactly the optimized
    ``MinCutBranch`` (a subclass may change emission), or whatever
    :func:`resolve_backend` refuses; otherwise ``driver.last_backend``
    becomes ``"c"``.  The driver calls it only without pruning.  Same
    contract as :func:`~repro.optimizer.kernel.run_fast_kernel` without
    a bound followed by ``extract_plan(root_set)``: the plan is the same
    tree, built from the ``2n - 1`` rows ``td_plan`` walks out of the
    kernel's own state; after its first read the memo holds the same
    entries (implementation names included) in the same order -- the
    kernel's rows are deferred behind the leaves (:meth:`MemoTable.defer
    <repro.plan.memo.MemoTable.defer>`), and ``len`` is exact before
    that read; and the partitioner's
    :class:`~repro.enumeration.base.PartitionStats`,
    ``cost_evaluations`` and ``estimations`` advance by the same
    amounts.  ``td_new`` seeds the leaves from the catalog, so the run
    never reads the memo.

    With a budget the C loop returns when its node countdown reaches an
    expansion (the budget is charged before that expansion runs, as in
    the python kernel, so a node cap expires at exactly the capped
    expansion), and it calls the budget's deadline check every 16k ccps,
    also inside one set's enumeration.  On expiry -- or on reaching
    :data:`_TOPDOWN_MAX_ITEMS` -- every finished set is flushed at once,
    the root is marked unsolved, ``driver.unfinished_sets`` counts the
    other sets left on the work stack, and :class:`BudgetExpired` is
    raised, as the python kernel does.  Without a budget, the state cap raises
    :class:`~repro.errors.OptimizationError`.
    """
    partitioner = driver.partitioner
    builder = driver.builder
    pricing = _pricing(builder.cost_model)
    n = driver.graph.n_vertices
    if (
        pricing is None
        or type(partitioner) is not MinCutBranch
        or not partitioner.use_optimizations
        or resolve_backend(None, driver.native_backend, n, "topdown") is None
    ):
        return None
    driver.last_backend = "c"
    memo = builder.memo
    if not root_set & (root_set - 1):
        return memo.extract_plan(root_set)  # a leaf: nothing to enumerate

    module = _native_build.load_c_kernel()
    ffi, lib = module.ffi, module.lib
    budget = driver.budget
    catalog = driver.catalog
    names, count = pricing[:2]
    ctx = lib.td_new(
        n,
        *_edges(catalog),
        [relation.cardinality for relation in catalog.relations],
        memo._leaf_cost,
        *pricing[1:],
        root_set,
        _TOPDOWN_MAX_ITEMS,
    )
    if ctx == ffi.NULL:
        raise MemoryError("cannot allocate the C top-down kernel's state")
    try:
        expired = None
        if budget is None:
            ctx.countdown = _UNLIMITED
            status = lib.td_run(ctx)
        else:

            def deadline_passed():
                try:
                    budget.check()
                except BudgetExpired:
                    return 1
                return 0

            handle = ffi.new_handle(deadline_passed)
            ctx.check_arg = handle
            chunk = ctx.countdown = next_charge_chunk(budget, _TOPDOWN_CHARGE_STRIDE)
            while True:
                status = lib.td_run(ctx)
                if status != 1:
                    break
                try:
                    budget.charge(chunk)
                except BudgetExpired:
                    break
                chunk = ctx.countdown = next_charge_chunk(
                    budget, _TOPDOWN_CHARGE_STRIDE
                )
            if status == 1 or status == 2:
                expired = budget.reason or "budget expired"
            elif status == -1:
                expired = "C top-down state limit"
        if status == -1 and expired is None:
            raise OptimizationError(
                "C top-down kernel out of memory or past its state limit "
                f"({_TOPDOWN_MAX_ITEMS} sets)"
            )
        if status == -2:
            raise OptimizationError("C top-down kernel priced an unfinished set")

        stats = partitioner.stats
        stats.calls += ctx.calls
        stats.loop_iterations += ctx.loops
        stats.emitted += ctx.emitted
        stats.reachable_calls += ctx.reachable_calls
        stats.reachable_iterations += ctx.reachable_iterations
        builder.estimator.estimations += ctx.estimations
        # One C_out or two physical evaluations (both orientations) per
        # emitted ccp, derived as the python kernel derives it (an upper
        # bound on an aborted run).
        builder.cost_evaluations += (2 if count else 1) * ctx.emitted

        # The memo's rows: the finish order is the python kernel's
        # ``done`` insertion order, so the memo's iteration order
        # matches too.  ``td_rows`` copies them out of the C state.
        finished = ffi.new("td_row[]", ctx.o_len)
        lib.td_rows(ctx, finished)
        rows = _finished_rows(ffi.buffer(finished), names, ctx.o_unnamed)
        if expired is not None:
            # Salvage reads the whole memo: flush now.  Only the root
            # becomes a placeholder row; the other unfinished sets are
            # counted for the salvage report.
            driver.unfinished_sets = lib.td_unfinished(ctx) - 1
            memo.bulk_load(rows)
            memo.bulk_load(((root_set, None, math.inf, 0, 0, None, False),))
            raise BudgetExpired(expired)
        memo.defer(rows, len(finished))

        nodes = lib.td_plan(ctx, root_set)
        if nodes == -1:
            raise _no_plan(ctx.p_rows[0].set)
        if nodes < 0:
            raise OptimizationError("C top-down kernel lost a set of the plan")
        plan = ffi.buffer(ctx.p_rows, nodes * _ROW.size)
        return _assemble(_ROW.iter_unpack(plan), names, catalog.relations)
    finally:
        lib.td_free(ctx)


def count_ccps_c(graph, cap: Optional[int] = None) -> Optional[int]:
    """:func:`~repro.enumeration.counting.count_ccps` in C, in O(min(#ccp,
    cap)); ``None`` without a loaded kernel (it never compiles one) or
    above :data:`TOPDOWN_MAX_N` relations."""
    n = graph.n_vertices
    module = _native_build.load_c_kernel()
    if module is None or n > TOPDOWN_MAX_N:
        return None
    adjacency = [graph.neighbors_of_vertex(v) for v in range(n)]
    cap = _UNLIMITED if cap is None else min(cap, _UNLIMITED)
    return module.lib.ccp_count(n, adjacency, cap)


@dataclass(frozen=True)
class AdmissionEstimate:
    """Search-space size of one query graph, as :func:`estimate_ccps`
    prices it for admission control and ``auto``.

    ``method`` records how the number was obtained: ``"closed-form:<shape>"``
    (Table-I formula) or ``"counted"`` (csg-cmp enumeration, counting
    only).  A count that passed its cap stopped there, and ``ccps`` is
    then ``cap + 1``, a lower bound.
    """

    ccps: int
    method: str


def estimate_ccps(graph, cap: Optional[int] = None) -> AdmissionEstimate:
    """#ccp for ``graph``, or ``cap + 1`` once it is known to exceed ``cap``.

    Chains, stars, cycles and cliques get their Table-I closed form at
    any size.  Every other graph, disconnected ones included, is counted
    exactly, stopping as soon as the count passes ``cap``: in C when a
    kernel is built (:func:`count_ccps_c`), else in python
    (:func:`repro.enumeration.counting.count_ccps`).

    Admission control passes its budget as ``cap``, and ``auto``
    (:func:`repro.optimizer.api.choose_algorithm`) the break-even count
    for the graph's size, so one count prices a request for both.  The
    count is of ``graph`` as given: for a cross-product request both
    pass the stitched graph the engine searches
    (:meth:`~repro.optimizer.api.OptimizationRequest.resolved_catalog`).
    """
    # Deferred: repro.analysis imports the API, which imports this module.
    from repro.analysis.formulas import ccp_count

    shape = graph.shape_name()
    if shape in ("chain", "star", "cycle", "clique"):
        return AdmissionEstimate(
            ccps=ccp_count(shape, graph.n_vertices), method=f"closed-form:{shape}"
        )
    ccps = count_ccps_c(graph, cap)
    if ccps is None:
        ccps = count_ccps(graph, cap)
    return AdmissionEstimate(ccps=ccps, method="counted")


def _finished_rows(data, names, unnamed: int):
    """The :meth:`~repro.plan.memo.MemoTable.bulk_load` rows of C
    top-down's finish order, read lazily from its ``td_row`` array as
    strided columns.  A set no candidate won (every total inf or NaN)
    has no split and no implementation (index -1), as in python;
    ``unnamed`` counts them."""
    view = memoryview(data)
    words, floats = view.cast("Q"), view.cast("d")
    if len(names) == 1 and not unnamed:
        named = repeat(names[0])
    else:
        named = map((names + (None,)).__getitem__, view.cast("q")[5::6])
    yield from zip(
        words[0::6], floats[1::6], floats[2::6], words[3::6], words[4::6],
        named, repeat(True),
    )

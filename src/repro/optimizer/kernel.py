"""Allocation-free enumeration kernel for the top-down driver.

The paper proves MinCutBranch's amortized cost per emitted ccp is O(1);
in CPython the constant factor of the reference driver is dominated by
work the paper never pays for: a ``MemoEntry`` object per relation set
(created, hashed, and attribute-dereferenced on every pricing), a
recursive TDPGSUB (one interpreter frame per memo level — which also
hard-crashes with ``RecursionError`` on chains beyond ~490 relations),
an eagerly materialized ccp list per ``partitions`` call, and
tuple-returning ``join_cost`` calls per ccp.

This module removes all four without changing a single emitted ccp or
priced candidate:

* **Struct-of-arrays memo** — the hot pricing path reads exactly one
  dict, ``done``, mapping each *finished* relation set to its
  ``(cardinality, cost)`` pair; best-split bookkeeping (winning operand
  sets, implementation tag) lives in a second dict written only when a
  candidate wins, and the in-flight target's state lives in plain
  locals.  No ``MemoEntry`` object exists while the kernel runs; the
  classic :class:`~repro.plan.memo.MemoTable` is rebuilt once at the end
  (via ``bulk_load``) so plan extraction, validation, and explain keep
  their unchanged compatibility view.
* **Iterative TDPGSUB** — an explicit work stack replaces the recursive
  driver.  Popping ``(S, None, ...)`` *explores* a set (runs the
  partitioner); popping ``(S, pairs, ...)`` *finishes* it (prices the
  ccps deferred because an operand was still unexplored on first sight,
  resuming from the partial best carried in the stack entry).  No
  Python recursion remains in the driver, so enumeration depth is bound
  by memory, not ``sys.getrecursionlimit()``.
* **Fused pricing** — the partitioner emits straight into the pricing
  callback (``partitions_into(S, emit)``, two ints per ccp — no tuple,
  no intermediate list), so a ccp whose operands already hold finished
  plans is priced the moment it is discovered.  For cost models that
  declare themselves symmetric (``is_symmetric()``, e.g. C_out) the
  second orientation is skipped — provably identical under strict ``<``
  comparison — and for C_out itself the pricing is inlined
  (``cost = |out| + subtree costs``), avoiding the tuple-returning
  ``join_cost`` call altogether.

Equivalence with the reference driver is *exact*, not approximate: per
relation set, ccps are priced in emission order (immediately priceable
pairs form a prefix; once one pair defers, all later pairs defer and are
priced in order when the set is finished), operand costs are always
final when a pair is priced, and the first-priced pair — the one whose
operands seed the set's cardinality estimate — is always the first
emitted pair.  Costs, best splits, tie-breaks, counter totals, and
extracted plan shapes are therefore bit-identical to the recursive
reference path; ``tests/test_kernel_equivalence.py`` enforces this on
every graph shape.

**Branch-and-bound** (``bound=``, e.g. a greedy plan's cost) is
accumulated-cost bounding on an explicit stack of suspended per-set
searches: a ccp is cut as soon as one operand provably cannot fit the
cost left for it.  The unbounded run never takes this path, so its hot
loop carries no bound checks.
"""

from __future__ import annotations

import math

from repro import bitset
from repro.cost.cout import CoutCostModel
from repro.optimizer.budget import BudgetExpired

__all__ = ["next_charge_chunk", "run_fast_kernel"]

#: Sets at or above this popcount route their ccp emission through the
#: budget-checking wrapper: a single ``partitions_into`` call on such a
#: set can emit thousands of ccps (2^(k-1) on a clique), long enough to
#: blow through a tens-of-milliseconds deadline unchecked.  Smaller sets
#: keep the raw pricing callback, so the cooperative-check overhead on
#: typical workloads stays within the ≤1% benchmark gate.
_EMIT_CHECK_POPCOUNT = 13

#: Clock-read stride inside the checking wrapper: bounds deadline
#: overshoot to a few hundred emissions without a ``monotonic()`` call
#: per ccp.
_EMIT_CHECK_STRIDE = 256

#: Node-expansion charging stride: expansions are batched into one
#: ``Budget.charge(n)`` call so the per-expansion cost is a local
#: decrement instead of a Python call plus a clock read.  Chunks are
#: sized to land exactly on any node cap, so cap expiry stays
#: deterministic at precisely the capped expansion.
_CHARGE_STRIDE = 32

#: Any set with popcount >= _EMIT_CHECK_POPCOUNT has integer value
#: >= 2**_EMIT_CHECK_POPCOUNT - 1; comparing against this floor filters
#: most sets without calling ``popcount`` at all.
_EMIT_CHECK_SET_FLOOR = (1 << _EMIT_CHECK_POPCOUNT) - 1

#: Relative slack on every branch-and-bound limit.  Two estimates of one
#: set multiply its k factors (relations, edges) in different orders and
#: differ by ~2k ulps; the margin covers k up to ~4000, so rounding can
#: only raise a limit, never cut the optimum or an equal-cost earlier
#: candidate.  Small, because under a huge root bound it is absolute.
_BOUND_SLACK = 1.0 + 1e-12

#: C-level population count for the budgeted hot loop (the
#: ``bitset.popcount`` wrapper costs a Python frame per call).
try:
    _bit_count = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover — Python 3.9
    _bit_count = bitset.popcount


def next_charge_chunk(budget, stride: int = _CHARGE_STRIDE) -> int:
    """Expansions to run before the next ``budget.charge``.

    Sized so a node cap is hit exactly at its capped expansion, never
    overshot by the stride.
    """
    if budget.node_cap is None:
        return stride
    return max(1, min(stride, budget.node_cap - budget.nodes))


def run_fast_kernel(driver, root_set: int, bound=None) -> None:
    """Fill the driver's memo for ``root_set`` using the fast kernel.

    ``driver`` is a :class:`~repro.optimizer.topdown.TopDownPlanGenerator`.
    Without ``bound``, on return its ``builder.memo`` holds exactly the
    entries :func:`~repro.optimizer.topdown.tdpgsub_reference` would have
    produced (same keys, same costs, same best splits) and
    ``builder.cost_evaluations`` / ``builder.estimator.estimations``
    carry the same totals.

    With ``bound`` (an upper bound on the optimal cost) the run branches
    and bounds: only sets proven optimal are flushed as explored, and
    ``cost_evaluations`` / ``driver.pruned_sets`` count pairs priced and
    sets cut.  A set's cost is bounded from below by the model's
    :meth:`~repro.cost.base.CostModel.output_floor` times its estimated
    cardinality, which is sound for every model with non-negative local
    costs.
    """
    builder = driver.builder
    memo = builder.memo
    cost_model = builder.cost_model
    symmetric = cost_model.is_symmetric()
    cout_fast = type(cost_model) is CoutCostModel
    join_cost = cost_model.join_cost
    combine = builder.estimator.combine
    inf = math.inf

    # ---- kernel state ----------------------------------------------
    # ``done[S]`` = (cardinality, cost) for every set whose plan is
    # final — the only structure the pricing hot path reads.  ``best``
    # records the winning split per joined set; leaves seed both from
    # the MemoTable so the final flush can rebuild it losslessly.
    done = {}
    best = {}
    for entry in memo.entries():
        done[entry.vertex_set] = (entry.cardinality, entry.cost)
        best[entry.vertex_set] = (
            entry.best_left, entry.best_right, entry.implementation
        )
    done_get = done.get

    if root_set in done:
        return

    # In-flight target state: plain locals shared with the callback.
    t_card = None   # cardinality estimate (made on the first priced pair)
    t_cost = inf    # best total cost so far
    t_left = 0      # winning split
    t_right = 0
    t_impl = None
    deferring = False  # latched by the first pair with an unfinished operand
    pending = None     # deferred (left, right) pairs of the current set
    pending_append = None
    children = None    # unfinished operand sets, in first-sight order
    children_append = None
    scheduled = None   # dedup guard for ``children``

    def emit(left_set, right_set):
        # Fused pricing: called by the partitioner for each discovered
        # ccp of the current target set.  Prices in place while every
        # operand seen so far holds a finished plan; the first pair that
        # cannot be priced latches ``deferring``, and from then on pairs
        # are only recorded — the per-set pricing order (immediate
        # prefix, then deferred remainder) matches the reference
        # driver's emission order exactly.
        nonlocal deferring, t_card, t_cost, t_left, t_right, t_impl
        if not deferring:
            dl = done_get(left_set)
            if dl is not None:
                dr = done_get(right_set)
                if dr is not None:
                    lc, lcost = dl
                    rc, rcost = dr
                    oc = t_card
                    if oc is None:
                        oc = combine(left_set, lc, right_set, rc)
                        t_card = oc
                    subtree = lcost + rcost
                    if cout_fast:
                        total = oc + subtree
                        if total < t_cost:
                            t_cost = total
                            t_left = left_set
                            t_right = right_set
                            t_impl = "join"
                        return
                    local, name = join_cost(lc, rc, oc)
                    total = local + subtree
                    if total < t_cost:
                        t_cost = total
                        t_left = left_set
                        t_right = right_set
                        t_impl = name
                    if symmetric:
                        return
                    local, name = join_cost(rc, lc, oc)
                    total = local + subtree
                    if total < t_cost:
                        t_cost = total
                        t_left = right_set
                        t_right = left_set
                        t_impl = name
                    return
            deferring = True
        pending_append((left_set, right_set))
        if left_set not in done and left_set not in scheduled:
            scheduled.add(left_set)
            children_append(left_set)
        if right_set not in done and right_set not in scheduled:
            scheduled.add(right_set)
            children_append(right_set)

    if bound is not None:

        def emit(left_set, right_set):
            # Branch-and-bound's callback: record the ccp (right = S ^ left).
            pending_append(left_set)

    budget = getattr(driver, "budget", None)
    if budget is not None:
        charge_chunk = charge_countdown = next_charge_chunk(budget)
        emit_countdown = _EMIT_CHECK_STRIDE
        # Subsets of root_set are numerically <= root_set, so when the
        # whole query is too small to ever reach the routing popcount
        # the floor is set unreachable and the hot-loop routing test
        # collapses to one always-false integer comparison.
        if bitset.popcount(root_set) >= _EMIT_CHECK_POPCOUNT:
            emit_floor = _EMIT_CHECK_SET_FLOOR
        else:
            emit_floor = root_set + 1
        emit_popcount = _EMIT_CHECK_POPCOUNT

        def emit_checked(left_set, right_set):
            # Same pricing callback, plus a strided deadline check —
            # selected only for large sets, where one partitioning call
            # emits enough ccps to matter against the deadline.
            nonlocal emit_countdown
            emit_countdown -= 1
            if not emit_countdown:
                emit_countdown = _EMIT_CHECK_STRIDE
                budget.check()
            emit(left_set, right_set)

    partitions_into = driver.partitioner.partitions_into
    stats = driver.partitioner.stats
    emitted_before = stats.emitted
    bit_count = _bit_count
    aborted = False

    def flush(priced, unsolved):
        # Solved sets become explored entries (their best splits only
        # reference solved sets), ``unsolved`` ones placeholders.
        builder.cost_evaluations += priced if symmetric else 2 * priced
        memo.bulk_load(
            (s, card, cost) + best[s] + (True,)
            for s, (card, cost) in done.items()
        )
        memo.bulk_load(
            (s, None, inf, 0, 0, None, False)
            for s in unsolved
            if s not in done
        )
        if aborted:
            raise BudgetExpired(budget.reason or "budget expired")

    if bound is not None:
        # ``search(S, limit)`` ends with S in ``done`` iff its optimum is
        # at most ``limit``, else in ``partial`` with the limit proven
        # too small.  ``lower`` (plan-cost lower bounds: the model's
        # output floor times the estimated cardinality) decides cuts and
        # never prices.
        estimate = builder.catalog.estimate
        scale = cost_model.output_floor()
        lower = dict.fromkeys(done, 0.0)  # a base relation costs nothing
        partial = {}  # S -> [card, proven-too-small limit, ccp lefts]
        pruned = priced = 0

        def floor(s_set):
            lb = lower.get(s_set)
            if lb is None:
                # A zero floor skips the estimate: 0 * inf would be NaN.
                lb = lower[s_set] = scale * estimate(s_set) if scale else 0.0
            return lb

        def admit(s_set, limit):
            nonlocal pruned
            rec = partial.get(s_set)
            if floor(s_set) > limit or (rec is not None and rec[1] >= limit):
                pruned += 1
                return False
            return True

        def search(s_set, limit):
            nonlocal pending_append, priced
            if budget is not None:
                budget.charge()
            rec = partial.get(s_set)
            if rec is None:  # enumerate once; a re-search replays the ccps
                lefts = []
                pending_append = lefts.append
                partitions_into(s_set, emit_checked if (
                    budget is not None
                    and s_set >= emit_floor
                    and bit_count(s_set) >= emit_popcount
                ) else emit)
                rec = partial[s_set] = [None, 0.0, lefts]
            # Every search prices in emission order from scratch, as the
            # plain run does, so equal-cost ties break the same way.
            card, _, lefts = rec
            cost, t_left, t_right, t_impl = inf, 0, 0, None
            lb = floor(s_set)
            for index, left_set in enumerate(lefts):
                if budget is not None and index & 255 == 255:
                    budget.check()
                right_set = s_set ^ left_set
                # Cost left for the operands; the slack means rounding
                # can only loosen a limit (see _BOUND_SLACK).
                ceiling = min(limit, cost) * _BOUND_SLACK - lb
                room = ceiling - floor(right_set)
                left = done_get(left_set)
                if left is None and admit(left_set, room):
                    yield search(left_set, room)
                    left = done_get(left_set)
                if left is None or left[1] > room:
                    continue
                room = ceiling - left[1]
                right = done_get(right_set)
                if right is None and admit(right_set, room):
                    yield search(right_set, room)
                    right = done_get(right_set)
                if right is None or right[1] > room:
                    continue
                priced += 1
                (lc, lcost), (rc, rcost) = left, right
                if card is None:
                    card = combine(left_set, lc, right_set, rc)
                local, name = join_cost(lc, rc, card)
                total = local + (lcost + rcost)
                if total < cost:
                    cost, t_impl = total, name
                    t_left, t_right = left_set, right_set
                if not symmetric:
                    local, name = join_cost(rc, lc, card)
                    total = local + (lcost + rcost)
                    if total < cost:
                        cost, t_impl = total, name
                        t_left, t_right = right_set, left_set
            if cost <= limit:
                del partial[s_set]
                done[s_set] = (card, cost)
                best[s_set] = (t_left, t_right, t_impl)
            else:
                rec[:2] = card, limit

        # Trampoline: a search yields the operand search it waits on.
        searches = [search(root_set, bound * _BOUND_SLACK)]
        try:
            while searches:
                try:
                    searches.append(next(searches[-1]))
                except StopIteration:
                    searches.pop()
        except BudgetExpired:
            aborted = True
        driver.pruned_sets += pruned
        return flush(priced, partial)

    # ---- iterative TDPGSUB -----------------------------------------
    # Stack entries: (S, None, 0, inf, 0, 0, None) = explore S;
    # (S, pairs, card, cost, left, right, impl) = finish S, resuming
    # pricing of the deferred pairs from the carried partial best.
    # Unexplored operands are pushed above their parent's finish entry
    # even when already scheduled deeper in the stack, so operand plans
    # are always final by the time the parent's pairs are priced (the
    # duplicate entry later pops as a finished no-op).
    stack = [(root_set, None, None, inf, 0, 0, None)]
    stack_pop = stack.pop
    stack_append = stack.append
    while stack:
        s_set, finish, t_card, t_cost, t_left, t_right, t_impl = stack_pop()
        if finish is not None:
            for left_set, right_set in finish:
                lc, lcost = done[left_set]
                rc, rcost = done[right_set]
                oc = t_card
                if oc is None:
                    oc = combine(left_set, lc, right_set, rc)
                    t_card = oc
                subtree = lcost + rcost
                if cout_fast:
                    total = oc + subtree
                    if total < t_cost:
                        t_cost = total
                        t_left = left_set
                        t_right = right_set
                        t_impl = "join"
                    continue
                local, name = join_cost(lc, rc, oc)
                total = local + subtree
                if total < t_cost:
                    t_cost = total
                    t_left = left_set
                    t_right = right_set
                    t_impl = name
                if symmetric:
                    continue
                local, name = join_cost(rc, lc, oc)
                total = local + subtree
                if total < t_cost:
                    t_cost = total
                    t_left = right_set
                    t_right = left_set
                    t_impl = name
            done[s_set] = (t_card, t_cost)
            best[s_set] = (t_left, t_right, t_impl)
            continue
        if s_set in done:
            continue
        deferring = False
        pending = []
        pending_append = pending.append
        children = []
        children_append = children.append
        scheduled = set()
        if budget is None:
            partitions_into(s_set, emit)
        else:
            try:
                charge_countdown -= 1
                if not charge_countdown:
                    budget.charge(charge_chunk)
                    charge_chunk = charge_countdown = next_charge_chunk(budget)
                if s_set >= emit_floor and bit_count(s_set) >= emit_popcount:
                    emitted_at_call = stats.emitted
                    partitions_into(s_set, emit_checked)
                    if (
                        s_set == root_set
                        and stats.emitted - emitted_at_call < _EMIT_CHECK_STRIDE
                    ):
                        # Popcount over-approximates emission counts on
                        # sparse graphs (a popcount-15 chain interval
                        # emits 14 ccps, not 2^14).  The root is the
                        # largest set and is expanded first: when even it
                        # emits less than one check stride, no descendant
                        # can blow through a deadline inside a single
                        # partitioning call, so the per-emission wrapper
                        # is disabled for the rest of the run.
                        emit_floor = root_set + 1
                else:
                    partitions_into(s_set, emit)
            except BudgetExpired:
                aborted = True
                break
        if not deferring:
            done[s_set] = (t_card, t_cost)
            best[s_set] = (t_left, t_right, t_impl)
            continue
        stack_append(
            (s_set, pending, t_card, t_cost, t_left, t_right, t_impl)
        )
        for child in reversed(children):
            stack_append((child, None, None, inf, 0, 0, None))

    # Every emitted ccp was priced exactly once (immediately or on
    # finish), with one join_cost evaluation for symmetric models and
    # two for asymmetric ones — the same per-ccp count the reference
    # driver's build_trees performs, so the counter is derived instead
    # of incremented on the hot path.  On an aborted run the derived
    # count is an upper bound (deferred pairs of unfinished sets were
    # emitted but never priced).  On expiry the finished sets are all
    # salvage needs: only the root becomes a placeholder row, and the
    # other unfinished sets on the work stack are counted for the
    # salvage report (rows for them would cost more than the search).
    if aborted:
        in_flight = {s_set}
        in_flight.update(frame[0] for frame in stack)
        driver.unfinished_sets = sum(1 for s in in_flight if s not in done) - 1
    flush(stats.emitted - emitted_before, (root_set,) if aborted else ())

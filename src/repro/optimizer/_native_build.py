"""Lazy cffi build/load machinery for the compiled C engines.

One C source, one module, two engines:

* ``dpconv_cout_range`` is a line-for-line transcription of the
  ``C_out`` hot path in
  :meth:`repro.optimizer.dpconv.DPconvPlanGenerator._convolve`: same
  ascending set order, same descending-submask split scan with a strict
  ``<`` winner, same ``(left_card * right_card) * selectivity``
  multiplication order.
* ``td_run`` (with ``td_new`` / ``td_physical`` / ``td_seed`` /
  ``td_push`` / ``td_unfinished`` / ``td_free``) transcribes MinCutBranch
  (:mod:`repro.enumeration.mincutbranch`) and the iterative TDPGSUB of
  :mod:`repro.optimizer.kernel`, pricing ``C_out`` inline or, after
  ``td_physical``, :class:`repro.cost.physical.PhysicalCostModel` with
  both orientations per ccp (``td_price``, libm's ``log2`` as CPython's
  ``math.log2``): same ccp emission order, same deferral, same
  first-priced pair seeding the cardinality, strict ``<`` ties, same
  operation order, the winning implementation's index out in ``o_impl``.  A
  set is one ``uint64`` mask (n <= 64); the memo is an open-addressing
  table keyed by mask, and the state lives in a C-owned ``td_ctx`` so
  the python driver can charge node budgets between calls; deadlines are
  checked through ``td_check``, an ``extern "Python"`` callback the
  driver defines (see :func:`repro.optimizer.native.run_c_topdown`).
  ``td_plan`` then walks the root's best splits and writes only the
  plan's rows, so the driver builds the plan without the memo.

Both share a ``sel_between`` that replicates
:meth:`repro.catalog.statistics.Catalog.selectivity_between` exactly —
smaller-side swap first, then the smaller side's vertices low-bit first,
each vertex's selectivity list in stored order.  Because every float
operation happens in the same order on IEEE-754 doubles (SSE2 — no x87
extended precision on any platform we build for; ``-ffp-contract=off``
rules out fused multiply-adds), each compiled engine is
**bit-identical** to its pure engine, not merely close, and the same
equivalence corpora gate both.

Build strategy (out-of-line API mode):

* the module name embeds a hash of the C source, so editing the kernel
  invalidates the cache automatically;
* compilation happens in a per-process scratch dir and the finished
  extension is moved into the cache dir with ``os.replace`` — two
  processes racing to build the same kernel both succeed;
* *any* failure (no cffi, no compiler, read-only filesystem, ...)
  degrades silently: callers get ``None`` and both engines run in pure
  python, which returns the same plans — a host without a C toolchain
  behaves byte-identically to a tree without this module.

Cache location: ``$REPRO_NATIVE_BUILD_DIR`` when set, else
``~/.cache/repro-native``, else a per-user temp dir.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
import threading
from typing import Optional, Sequence

__all__ = [
    "build_dir",
    "cached_kernel_path",
    "load_c_kernel",
    "compiler_available",
    "KERNEL_TAG",
]

_CDEF = """
long long dpconv_cout_range(
    unsigned long long start,
    unsigned long long end,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    double *dp,
    double *card,
    unsigned long long *nbr,
    unsigned char *conn,
    unsigned long long *best_left,
    unsigned long long *best_right,
    long long *priced_out);

typedef struct {
    void *check_arg;
    long long countdown;
    long long calls;
    long long loops;
    long long emitted;
    long long reachable_calls;
    long long reachable_iterations;
    long long estimations;
    long long o_len;
    unsigned long long *o_set;
    unsigned long long *o_left;
    unsigned long long *o_right;
    double *o_card;
    double *o_cost;
    int *o_impl;
    long long o_unnamed;
    ...;
} td_ctx;

td_ctx *td_new(
    int n,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    long long max_items);
void td_free(td_ctx *ctx);
int td_physical(
    td_ctx *ctx,
    int count,
    const int *kinds,
    const double *first,
    const double *second,
    double output_weight);
int td_seed(td_ctx *ctx, unsigned long long set, double card, double cost);
int td_push(td_ctx *ctx, unsigned long long set);
int td_run(td_ctx *ctx);
long long td_unfinished(td_ctx *ctx);
int td_plan(
    td_ctx *ctx,
    unsigned long long root,
    int cap,
    unsigned long long *sets,
    double *cards,
    double *costs,
    int *impls);
extern "Python" int td_check(void *);
"""

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#  define POPCOUNT64(x) ((int)__builtin_popcountll(x))
#  define CTZ64(x) ((int)__builtin_ctzll(x))
#else
static int POPCOUNT64(unsigned long long x) {
    int count = 0;
    while (x) { x &= x - 1; count++; }
    return count;
}
static int CTZ64(unsigned long long x) {
    int index = 0;
    while (!(x & 1ULL)) { x >>= 1; index++; }
    return index;
}
#endif

/* Catalog.selectivity_between, transcribed: swap so the popcount-smaller
 * side is walked, then low-bit-first over its vertices, multiplying the
 * stored per-vertex (neighbor-bit, selectivity) list in order whenever
 * the neighbor lands in the other side.  Multiplication order matches
 * the python walk exactly, so the product is bit-identical. */
static double sel_between(
    unsigned long long left, unsigned long long right,
    const int *sel_off, const unsigned long long *sel_nbit,
    const double *sel_val)
{
    if (POPCOUNT64(left) > POPCOUNT64(right)) {
        unsigned long long swap = left; left = right; right = swap;
    }
    double product = 1.0;
    unsigned long long walk = left;
    while (walk) {
        unsigned long long lowbit = walk & (~walk + 1ULL);
        walk ^= lowbit;
        int vertex = CTZ64(lowbit);
        int stop = sel_off[vertex + 1];
        for (int i = sel_off[vertex]; i < stop; i++) {
            if (sel_nbit[i] & right) product *= sel_val[i];
        }
    }
    return product;
}

/* Process s_set in [start, end) against caller-persistent state arrays
 * (all sized full+1, leaves pre-seeded).  Returns the number of sets
 * settled (connected, non-singleton) and accumulates the ccp count into
 * *priced_out — the python driver mirrors both into the PlanBuilder
 * counters so accounting matches the pure engine.  Ranges let the
 * driver charge the cooperative Budget between calls with bounded
 * overshoot, same contract as the pure engine's per-set charge. */
long long dpconv_cout_range(
    unsigned long long start,
    unsigned long long end,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    double *dp,
    double *card,
    unsigned long long *nbr,
    unsigned char *conn,
    unsigned long long *best_left,
    unsigned long long *best_right,
    long long *priced_out)
{
    long long settled = 0;
    long long priced_total = 0;
    for (unsigned long long s_set = start; s_set < end; s_set++) {
        unsigned long long low = s_set & (~s_set + 1ULL);
        if (s_set == low || s_set < 3ULL) continue;  /* singleton / empty */
        unsigned long long rest = s_set ^ low;
        nbr[s_set] = nbr[rest] | adj[CTZ64(low)];
        unsigned long long reach = low;
        for (;;) {
            unsigned long long grown = (reach | nbr[reach]) & s_set;
            if (grown == reach) break;
            reach = grown;
        }
        if (reach != s_set) continue;
        conn[s_set] = 1;
        double best = INFINITY;
        unsigned long long b_left = 0, b_right = 0;
        long long priced = 0;
        unsigned long long sub = (rest - 1ULL) & rest;
        for (;;) {
            unsigned long long left = low | sub;
            unsigned long long right = s_set ^ left;
            if (conn[left] && conn[right]) {
                priced++;
                double total = dp[left] + dp[right];
                if (total < best) {
                    best = total;
                    b_left = left;
                    b_right = right;
                }
            }
            if (!sub) break;
            sub = (sub - 1ULL) & rest;
        }
        double output_card = (card[b_left] * card[b_right])
            * sel_between(b_left, b_right, sel_off, sel_nbit, sel_val);
        card[s_set] = output_card;
        dp[s_set] = output_card + best;
        best_left[s_set] = b_left;
        best_right[s_set] = b_right;
        settled++;
        priced_total += priced;
    }
    *priced_out += priced_total;
    return settled;
}

/* ---------------------------------------------------------------------
 * Top-down: MinCutBranch (Figs. 4-6) feeding the iterative TDPGSUB of
 * repro/optimizer/kernel.py, one uint64 per set, pricing either C_out
 * (inlined) or PhysicalCostModel (td_price).
 *
 * Every step mirrors the python kernel: a work stack of explore and
 * finish frames; per explored set the ccps priceable on sight form a
 * prefix and the first unpriceable one latches deferral, after which
 * pairs are only recorded (and their unfinished operands scheduled once,
 * in first-sight order) and priced in order when the set is finished;
 * the first priced pair seeds the cardinality with
 * (lc * rc) * sel_between(l, r); a candidate wins on strict <.  Costs,
 * splits, implementations, the finish order and every counter are
 * therefore equal to the python kernel's.
 *
 * A budgeted run calls back into python (``td_check``, the budget's
 * deadline check) every TD_CHECK_STRIDE ccps emitted or priced, also in
 * the middle of one set's enumeration: a single clique set emits
 * 2^(k-1) ccps, far too many to run unchecked.  An expiry, or state past
 * ``max_items`` sets or frames, halts the run: the enumeration unwinds
 * and the interrupted frame stays on the stack, unfinished.
 * ------------------------------------------------------------------ */

#define TD_SEEN 1u   /* scheduled as an operand, not finished yet */
#define TD_DONE 2u   /* finished: card and cost are final */

#define TD_CHECK_STRIDE (1 << 14)
#define TD_EXPIRED 1  /* halt: td_check reported the budget expired */
#define TD_NOMEM 2    /* halt: out of memory or past max_items */

/* Calls back into python (defined with ffi.def_extern on load): nonzero
 * means stop. */
static int td_check(void *arg);

typedef struct {
    unsigned long long key;    /* 0 marks an empty slot */
    double card;
    double cost;
    unsigned int state;
    union {
        unsigned int stamp;    /* unfinished: last exploration that scheduled it */
        unsigned int row;      /* settled by the run: its index in the o_* arrays */
    };
} td_slot;

typedef struct {
    unsigned long long set;
    long long pend_off;        /* -1: explore the set; else finish it */
    long long pend_cnt;
    double card;
    double cost;
    unsigned long long left;
    unsigned long long right;
    int has_card;
    int impl;
} td_frame;

/* The join implementations of repro/cost/physical.py, by kind. */
#define TD_NESTED_LOOP 0   /* first: buffer_pages */
#define TD_HASH 1          /* first: build_factor, second: probe_factor */
#define TD_SORT_MERGE 2

typedef struct {
    int kind;
    double first;
    double second;
} td_impl;

typedef struct {
    /* shared with the python driver (declared in _CDEF) */
    void *check_arg;           /* td_check's argument; NULL: unbudgeted */
    long long countdown;
    long long calls;
    long long loops;
    long long emitted;
    long long reachable_calls;
    long long reachable_iterations;
    long long estimations;
    long long o_len;
    unsigned long long *o_set;
    unsigned long long *o_left;
    unsigned long long *o_right;
    double *o_card;
    double *o_cost;
    int *o_impl;               /* index of the winning implementation; -1 none */
    long long o_unnamed;       /* settled sets with index -1 */
    /* private */
    long long sp;
    int n_impl;                /* 0: C_out; else PhysicalCostModel's table */
    td_impl *impls;
    double output_weight;
    unsigned long long adj[64];
    int sel_off[65];
    unsigned long long *sel_nbit;
    double *sel_val;
    td_slot *slots;
    unsigned long long slot_mask;
    int slot_shift;
    long long used;
    td_frame *stack;
    long long stack_cap;
    unsigned long long *pend;  /* deferred pairs, two words each */
    long long pend_len;
    long long pend_cap;
    unsigned long long *kids;
    long long kids_len;
    long long kids_cap;
    long long o_cap;
    long long max_items;       /* cap on table sets and stack frames */
    long long tick;            /* ccps until the next td_check */
    unsigned int stamp;
    int charged;
    int halt;                  /* 0, TD_EXPIRED or TD_NOMEM */
    /* the set being explored */
    int deferring;
    int has_card;
    double t_card;
    double t_cost;
    unsigned long long t_left;
    unsigned long long t_right;
    int t_impl;
} td_ctx;

/* ``buffer`` with room for ``need`` items (doubling), or NULL when out
 * of memory (``buffer`` is then left as it was). */
static void *td_grow(void *buffer, long long *cap, long long need, size_t item)
{
    if (need <= *cap) return buffer;
    long long size = *cap ? *cap : 64;
    while (size < need) size *= 2;
    void *grown = realloc(buffer, (size_t)size * item);
    if (grown) *cap = size;
    return grown;
}

static inline unsigned long long td_home(const td_ctx *c, unsigned long long key)
{
    return (key * 0x9E3779B97F4A7C15ULL) >> c->slot_shift;
}

static td_slot *td_find(const td_ctx *c, unsigned long long key)
{
    unsigned long long i = td_home(c, key);
    for (;;) {
        td_slot *slot = &c->slots[i];
        if (slot->key == key) return slot;
        if (!slot->key) return NULL;
        i = (i + 1) & c->slot_mask;
    }
}

static int td_rehash(td_ctx *c, int shift)
{
    unsigned long long size = 1ULL << (64 - shift);
    td_slot *old = c->slots;
    unsigned long long old_size = old ? c->slot_mask + 1 : 0;
    td_slot *slots = (td_slot *)calloc((size_t)size, sizeof(td_slot));
    if (!slots) return -1;
    c->slots = slots;
    c->slot_mask = size - 1;
    c->slot_shift = shift;
    for (unsigned long long j = 0; j < old_size; j++) {
        if (!old[j].key) continue;
        unsigned long long i = td_home(c, old[j].key);
        while (slots[i].key) i = (i + 1) & c->slot_mask;
        slots[i] = old[j];
    }
    free(old);
    return 0;
}

/* The slot of ``key``, created (TD_SEEN) when absent; NULL when out of
 * memory or at ``max_items`` sets.  The table stays at most half full. */
static td_slot *td_insert(td_ctx *c, unsigned long long key)
{
    if ((unsigned long long)(c->used + 1) * 2 > c->slot_mask + 1) {
        if (td_rehash(c, c->slot_shift - 1)) return NULL;
    }
    unsigned long long i = td_home(c, key);
    for (;;) {
        td_slot *slot = &c->slots[i];
        if (slot->key == key) return slot;
        if (!slot->key) {
            if (c->used >= c->max_items) return NULL;
            slot->key = key;
            slot->state = TD_SEEN;
            c->used++;
            return slot;
        }
        i = (i + 1) & c->slot_mask;
    }
}

static int td_push_frame(td_ctx *c, const td_frame *frame)
{
    if (c->sp >= c->max_items) return -1;
    td_frame *stack = (td_frame *)td_grow(
        c->stack, &c->stack_cap, c->sp + 1, sizeof(td_frame));
    if (!stack) return -1;
    c->stack = stack;
    c->stack[c->sp++] = *frame;
    return 0;
}

/* Record a finished set: final in the table, appended to the finish
 * order the python driver hands to the MemoTable, and its row in that
 * order kept in the slot for td_plan. */
static int td_settle(td_ctx *c, unsigned long long set, double card,
                     double cost, unsigned long long left,
                     unsigned long long right, int impl)
{
    td_slot *slot = td_insert(c, set);
    if (!slot) return -1;
    slot->state = TD_DONE;
    slot->card = card;
    slot->cost = cost;
    slot->row = (unsigned int)c->o_len;
    if (c->o_len == c->o_cap) {
        long long cap = c->o_cap ? 2 * c->o_cap : 64;
        unsigned long long *o_set = (unsigned long long *)realloc(
            c->o_set, (size_t)cap * sizeof(unsigned long long));
        if (o_set) c->o_set = o_set;
        unsigned long long *o_left = (unsigned long long *)realloc(
            c->o_left, (size_t)cap * sizeof(unsigned long long));
        if (o_left) c->o_left = o_left;
        unsigned long long *o_right = (unsigned long long *)realloc(
            c->o_right, (size_t)cap * sizeof(unsigned long long));
        if (o_right) c->o_right = o_right;
        double *o_card = (double *)realloc(c->o_card, (size_t)cap * sizeof(double));
        if (o_card) c->o_card = o_card;
        double *o_cost = (double *)realloc(c->o_cost, (size_t)cap * sizeof(double));
        if (o_cost) c->o_cost = o_cost;
        int *o_impl = (int *)realloc(c->o_impl, (size_t)cap * sizeof(int));
        if (o_impl) c->o_impl = o_impl;
        if (!o_set || !o_left || !o_right || !o_card || !o_cost || !o_impl) return -1;
        c->o_cap = cap;
    }
    c->o_set[c->o_len] = set;
    c->o_left[c->o_len] = left;
    c->o_right[c->o_len] = right;
    c->o_card[c->o_len] = card;
    c->o_cost[c->o_len] = cost;
    c->o_impl[c->o_len] = impl;
    if (impl < 0) c->o_unnamed++;
    c->o_len++;
    return 0;
}

static void td_schedule(td_ctx *c, unsigned long long set)
{
    td_slot *slot = td_insert(c, set);
    if (!slot) { c->halt = TD_NOMEM; return; }
    if (slot->state == TD_DONE || slot->stamp == c->stamp) return;
    slot->stamp = c->stamp;
    unsigned long long *kids = (unsigned long long *)td_grow(
        c->kids, &c->kids_cap, c->kids_len + 1, sizeof(unsigned long long));
    if (!kids) { c->halt = TD_NOMEM; return; }
    c->kids = kids;
    c->kids[c->kids_len++] = set;
}

/* Count one ccp emitted or priced; every TD_CHECK_STRIDE of them a
 * budgeted run asks python whether its budget has expired. */
static inline void td_tick(td_ctx *c)
{
    if (--c->tick) return;
    c->tick = TD_CHECK_STRIDE;
    if (c->check_arg && td_check(c->check_arg)) c->halt = TD_EXPIRED;
}

/* SortMergeJoin's sort_cost: log2 is libm's, as CPython's math.log2. */
static inline double td_sort_cost(double card)
{
    return card > 1.0 ? card * log2(card) : card;
}

/* PhysicalCostModel.join_cost: the first implementation with the
 * smallest cost on strict < (the first one when none is below inf),
 * plus output_weight * |out|; each cost() in physical.py's operation
 * order. */
static inline double td_join_cost(const td_ctx *c, double lc, double rc,
                                  double oc, int *impl)
{
    double best = INFINITY;
    int pick = 0;
    for (int i = 0; i < c->n_impl; i++) {
        const td_impl *m = &c->impls[i];
        double cost;
        if (m->kind == TD_NESTED_LOOP) {
            cost = lc + lc * rc / m->first;
        } else if (m->kind == TD_HASH) {
            cost = m->first * lc + m->second * rc;
        } else {
            cost = td_sort_cost(lc) + td_sort_cost(rc) + lc + rc;
        }
        if (cost < best) {
            best = cost;
            pick = i;
        }
    }
    *impl = pick;
    return best + c->output_weight * oc;
}

/* The python kernel's asymmetric pricing of one ccp: L join R, then
 * R join L, each candidate local + (l cost + r cost) and winning only on
 * strict < against the best so far. */
static inline void td_price(const td_ctx *c, unsigned long long left,
                            unsigned long long right, const td_slot *l,
                            const td_slot *r, double oc, double *cost,
                            unsigned long long *b_left,
                            unsigned long long *b_right, int *b_impl)
{
    double subtree = l->cost + r->cost;
    int impl;
    double total = td_join_cost(c, l->card, r->card, oc, &impl) + subtree;
    if (total < *cost) {
        *cost = total;
        *b_left = left;
        *b_right = right;
        *b_impl = impl;
    }
    total = td_join_cost(c, r->card, l->card, oc, &impl) + subtree;
    if (total < *cost) {
        *cost = total;
        *b_left = right;
        *b_right = left;
        *b_impl = impl;
    }
}

/* The kernel's ``emit``: price on sight until the first pair with an
 * unfinished operand, then record every remaining pair. */
static void td_emit(td_ctx *c, unsigned long long left, unsigned long long right)
{
    td_tick(c);
    if (!c->deferring) {
        const td_slot *l = td_find(c, left);
        if (l && l->state == TD_DONE) {
            const td_slot *r = td_find(c, right);
            if (r && r->state == TD_DONE) {
                double oc;
                if (c->has_card) {
                    oc = c->t_card;
                } else {
                    oc = (l->card * r->card)
                        * sel_between(left, right, c->sel_off, c->sel_nbit, c->sel_val);
                    c->t_card = oc;
                    c->has_card = 1;
                    c->estimations++;
                }
                if (c->n_impl) {
                    td_price(c, left, right, l, r, oc, &c->t_cost,
                             &c->t_left, &c->t_right, &c->t_impl);
                    return;
                }
                double total = oc + (l->cost + r->cost);
                if (total < c->t_cost) {
                    c->t_cost = total;
                    c->t_left = left;
                    c->t_right = right;
                    c->t_impl = 0;
                }
                return;
            }
        }
        c->deferring = 1;
    }
    unsigned long long *pend = (unsigned long long *)td_grow(
        c->pend, &c->pend_cap, c->pend_len + 1, 2 * sizeof(unsigned long long));
    if (!pend) { c->halt = TD_NOMEM; return; }
    c->pend = pend;
    c->pend[2 * c->pend_len] = left;
    c->pend[2 * c->pend_len + 1] = right;
    c->pend_len++;
    td_schedule(c, left);
    td_schedule(c, right);
}

/* MINCUTBRANCH (Fig. 5) with the Sec. III-C optimizations, REACHABLE
 * (Fig. 6) inlined at case (3): the transcription of
 * MinCutBranch.partitions_into, line for line, so ccps are emitted in
 * the same order and the work counters advance the same way.  Once the
 * run halts, every active call returns at its next recursion or emit. */
static unsigned long long td_mincut(
    td_ctx *c, unsigned long long s_set, unsigned long long c_set,
    unsigned long long x_set, unsigned long long l_set,
    unsigned long long c_neighbors)
{
    const unsigned long long *adj = c->adj;
    c->calls++;
    unsigned long long neighbors_of_l = adj[CTZ64(l_set)] & s_set & ~c_set;
    unsigned long long n_l = neighbors_of_l & ~x_set;             /* line 3 */
    unsigned long long n_x = neighbors_of_l & x_set;              /* line 4 */
    unsigned long long n_b = c_neighbors & ~n_l & ~x_set;         /* line 5 */
    unsigned long long r_set = 0, r_tmp = 0, x_prime = x_set;
    while (n_l || n_x || (n_b & r_tmp)) {                         /* line 6 */
        c->loops++;
        unsigned long long v_bit;
        unsigned long long in_region = (n_b | n_l) & r_tmp;
        if (in_region) {                                          /* case (1) */
            v_bit = in_region & (~in_region + 1ULL);
            unsigned long long child_c = c_set | v_bit;
            td_mincut(c, s_set, child_c, x_prime, v_bit,
                      (c_neighbors | (adj[CTZ64(v_bit)] & s_set)) & ~child_c);
            if (c->halt) return 0;
            n_l &= ~v_bit;                                        /* line 10 */
            n_b &= ~v_bit;                                        /* line 11 */
        } else {
            x_prime = x_set;                                      /* line 12 */
            if (n_l) {                                            /* case (2) */
                v_bit = n_l & (~n_l + 1ULL);
                unsigned long long child_c = c_set | v_bit;
                r_tmp = td_mincut(
                    c, s_set, child_c, x_prime, v_bit,
                    (c_neighbors | (adj[CTZ64(v_bit)] & s_set)) & ~child_c);
                if (c->halt) return 0;
                n_l &= ~v_bit;                                    /* line 16 */
            } else {                                              /* case (3) */
                v_bit = n_x & (~n_x + 1ULL);
                c->reachable_calls++;
                unsigned long long blocked = c_set | v_bit;
                unsigned long long region = v_bit;
                unsigned long long frontier = adj[CTZ64(v_bit)] & s_set & ~blocked;
                while (frontier) {
                    c->reachable_iterations++;
                    region |= frontier;
                    unsigned long long grow = 0, rest = frontier;
                    while (rest) {
                        unsigned long long low = rest & (~rest + 1ULL);
                        grow |= adj[CTZ64(low)];
                        rest ^= low;
                    }
                    frontier = grow & s_set & ~blocked & ~region;
                }
                r_tmp = region;                                   /* line 18 */
            }
            n_x &= ~r_tmp;                                        /* line 19 */
            if (r_tmp & x_set) {                                  /* lines 20-23 */
                n_x |= n_l & ~r_tmp;
                n_l &= r_tmp;
                n_b &= r_tmp;
            }
            if ((s_set & ~r_tmp) & x_set) {                       /* line 24 */
                n_l &= ~r_tmp;                                    /* lines 25-26 */
                n_b &= ~r_tmp;
            } else {
                c->emitted++;
                td_emit(c, s_set & ~r_tmp, r_tmp);                /* line 27 */
                if (c->halt) return 0;
            }
            r_set |= r_tmp;                                       /* line 28 */
        }
        x_prime |= v_bit;                                         /* line 29 */
    }
    return r_set | l_set;                                         /* line 30 */
}

td_ctx *td_new(
    int n,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    long long max_items)
{
    if (n < 1 || n > 64) return NULL;
    td_ctx *c = (td_ctx *)calloc(1, sizeof(td_ctx));
    if (!c) return NULL;
    int count = sel_off[n];
    memcpy(c->adj, adj, (size_t)n * sizeof(unsigned long long));
    memcpy(c->sel_off, sel_off, (size_t)(n + 1) * sizeof(int));
    c->max_items = max_items;
    c->tick = TD_CHECK_STRIDE;
    c->sel_nbit = (unsigned long long *)malloc(
        (size_t)(count ? count : 1) * sizeof(unsigned long long));
    c->sel_val = (double *)malloc((size_t)(count ? count : 1) * sizeof(double));
    if (!c->sel_nbit || !c->sel_val || td_rehash(c, 64 - 8)) {
        free(c->sel_nbit);
        free(c->sel_val);
        free(c->slots);
        free(c);
        return NULL;
    }
    memcpy(c->sel_nbit, sel_nbit, (size_t)count * sizeof(unsigned long long));
    memcpy(c->sel_val, sel_val, (size_t)count * sizeof(double));
    return c;
}

/* Price with PhysicalCostModel: ``count`` implementations, each a kind
 * (TD_NESTED_LOOP, TD_HASH, TD_SORT_MERGE) and its parameters, in the
 * model's order.  Without this call the context prices C_out. */
int td_physical(
    td_ctx *c,
    int count,
    const int *kinds,
    const double *first,
    const double *second,
    double output_weight)
{
    if (count < 1) return -1;
    td_impl *impls = (td_impl *)malloc((size_t)count * sizeof(td_impl));
    if (!impls) return -1;
    for (int i = 0; i < count; i++) {
        impls[i].kind = kinds[i];
        impls[i].first = first[i];
        impls[i].second = second[i];
    }
    free(c->impls);
    c->impls = impls;
    c->n_impl = count;
    c->output_weight = output_weight;
    return 0;
}

void td_free(td_ctx *c)
{
    if (!c) return;
    free(c->impls);
    free(c->sel_nbit);
    free(c->sel_val);
    free(c->slots);
    free(c->stack);
    free(c->pend);
    free(c->kids);
    free(c->o_set);
    free(c->o_left);
    free(c->o_right);
    free(c->o_card);
    free(c->o_cost);
    free(c->o_impl);
    free(c);
}

/* A set that is final before the run starts (a leaf): in the table,
 * not in the finish order. */
int td_seed(td_ctx *c, unsigned long long set, double card, double cost)
{
    td_slot *slot = td_insert(c, set);
    if (!slot) return -1;
    slot->state = TD_DONE;
    slot->card = card;
    slot->cost = cost;
    return 0;
}

/* Schedule ``set`` for exploration (the root). */
int td_push(td_ctx *c, unsigned long long set)
{
    if (!td_insert(c, set)) return -1;
    td_frame frame = {set, -1, 0, 0.0, 0.0, 0, 0, 0, -1};
    return td_push_frame(c, &frame);
}

/* Run the work stack.  Returns 0 once it is empty; 1 when the node
 * countdown reaches zero at an exploration (the frame stays on top and
 * is explored, uncounted, by the next call: the driver charges the
 * budget in between, as the python kernel charges before that
 * expansion); 2 when td_check reported expiry; -1 out of memory or past
 * ``max_items``; -2 a deferred pair whose operand is unfinished (never
 * expected).  On 2 and -1 the interrupted frame stays on the stack, its
 * set unfinished. */
int td_run(td_ctx *c)
{
    while (c->sp > 0) {
        td_frame *top = &c->stack[c->sp - 1];
        if (top->pend_off >= 0) {
            td_frame f = *top;
            double card = f.card, cost = f.cost;
            unsigned long long b_left = f.left, b_right = f.right;
            int has_card = f.has_card, impl = f.impl;
            const unsigned long long *pair = c->pend + 2 * f.pend_off;
            for (long long i = 0; i < f.pend_cnt; i++, pair += 2) {
                td_tick(c);
                if (c->halt) return c->halt == TD_EXPIRED ? 2 : -1;
                const td_slot *l = td_find(c, pair[0]);
                const td_slot *r = td_find(c, pair[1]);
                if (!l || !r || l->state != TD_DONE || r->state != TD_DONE)
                    return -2;
                double oc;
                if (has_card) {
                    oc = card;
                } else {
                    oc = (l->card * r->card)
                        * sel_between(pair[0], pair[1], c->sel_off, c->sel_nbit, c->sel_val);
                    card = oc;
                    has_card = 1;
                    c->estimations++;
                }
                if (c->n_impl) {
                    td_price(c, pair[0], pair[1], l, r, oc, &cost,
                             &b_left, &b_right, &impl);
                    continue;
                }
                double total = oc + (l->cost + r->cost);
                if (total < cost) {
                    cost = total;
                    b_left = pair[0];
                    b_right = pair[1];
                    impl = 0;
                }
            }
            if (td_settle(c, f.set, card, cost, b_left, b_right, impl)) return -1;
            c->sp--;
            c->pend_len = f.pend_off;
            continue;
        }
        unsigned long long s_set = top->set;
        const td_slot *known = td_find(c, s_set);
        if (known && known->state == TD_DONE) {
            c->sp--;
            continue;
        }
        if (!c->charged) {
            if (--c->countdown == 0) {
                c->charged = 1;
                return 1;
            }
        }
        c->charged = 0;
        long long pend_off = c->pend_len;
        c->deferring = 0;
        c->has_card = 0;
        c->t_card = 0.0;
        c->t_cost = INFINITY;
        c->t_left = 0;
        c->t_right = 0;
        c->t_impl = -1;
        c->kids_len = 0;
        c->stamp++;
        unsigned long long start = s_set & (~s_set + 1ULL);
        td_mincut(c, s_set, start, 0, start,
                  c->adj[CTZ64(start)] & s_set & ~start);
        if (c->halt) {
            c->pend_len = pend_off;
            return c->halt == TD_EXPIRED ? 2 : -1;
        }
        c->sp--;
        if (!c->deferring) {
            if (td_settle(c, s_set, c->t_card, c->t_cost, c->t_left,
                          c->t_right, c->t_impl))
                return -1;
            continue;
        }
        td_frame finish = {
            s_set, pend_off, c->pend_len - pend_off, c->t_card,
            c->t_cost, c->t_left, c->t_right, c->has_card, c->t_impl
        };
        if (td_push_frame(c, &finish)) return -1;
        for (long long k = c->kids_len - 1; k >= 0; k--) {
            td_frame kid = {c->kids[k], -1, 0, 0.0, 0.0, 0, 0, 0, -1};
            if (td_push_frame(c, &kid)) return -1;
        }
    }
    return 0;
}

/* The plan of the finished set ``root``: one row per node into the
 * caller's arrays of ``cap`` (2n - 1) rows, children before parents and
 * the left subtree first -- a post-order walk of the best splits --
 * with implementation -1 for a leaf.  The python driver assembles the
 * tree from these rows with a stack.  Returns the row count; -1, with the set
 * in sets[0], when a set on the walk has no plan (cost inf), checked in
 * the order MemoTable.extract_plan checks them; -2 when a set on the
 * walk is not finished or the rows overflow ``cap`` (never expected).
 * A set's row is settled, so ``max_items`` (< 2^32) bounds it. */
int td_plan(td_ctx *c, unsigned long long root, int cap,
            unsigned long long *sets, double *cards, double *costs, int *impls)
{
    /* A pending entry is a node to visit, or (expanded) one whose
     * subtrees are written; at most 2 * depth + 1 <= 127 are pending. */
    unsigned long long stack[128];
    unsigned char expanded[128];
    int sp = 0, count = 0;
    stack[sp] = root;
    expanded[sp++] = 0;
    while (sp > 0) {
        unsigned long long set = stack[--sp];
        const td_slot *slot = td_find(c, set);
        if (!slot || slot->state != TD_DONE || count == cap) return -2;
        if (expanded[sp]) {
            sets[count] = set;
            cards[count] = slot->card;
            costs[count] = slot->cost;
            impls[count] = c->o_impl[slot->row];
            count++;
            continue;
        }
        if (slot->cost == INFINITY) {
            sets[0] = set;
            return -1;
        }
        if (!(set & (set - 1))) {
            sets[count] = set;
            cards[count] = slot->card;
            costs[count] = slot->cost;
            impls[count] = -1;
            count++;
            continue;
        }
        if (sp > 125) return -2;
        stack[sp] = set;
        expanded[sp++] = 1;
        stack[sp] = c->o_right[slot->row];
        expanded[sp++] = 0;
        stack[sp] = c->o_left[slot->row];
        expanded[sp++] = 0;
    }
    return count;
}

/* Distinct unfinished sets on the stack: after a halt, the sets the
 * search had scheduled but not finished (the root among them). */
long long td_unfinished(td_ctx *c)
{
    long long count = 0;
    c->stamp++;
    for (long long i = 0; i < c->sp; i++) {
        td_slot *slot = td_find(c, c->stack[i].set);
        if (!slot || slot->state == TD_DONE || slot->stamp == c->stamp) continue;
        slot->stamp = c->stamp;
        count++;
    }
    return count;
}
"""

#: Bump to invalidate every cached build regardless of source diffs.
KERNEL_TAG = "v1"

_source_hash = hashlib.sha256(
    (KERNEL_TAG + _CDEF + _C_SOURCE).encode()
).hexdigest()[:12]
MODULE_BASENAME = f"_repro_native_{_source_hash}"

#: Per-process memo: a successful load sticks for the life of the
#: process, and a *failed* compile sticks too (``native_backend="c"`` on
#: a compiler-less host must not retry the toolchain probe on every
#: request).  The lock keeps concurrent first loads from racing: without
#: it a batch worker that arrives while another thread is mid-import
#: sees ``load_tried`` set with no module yet and silently falls back to
#: pure python for that request.
_STATE = {"module": None, "load_tried": False, "build_tried": False}
_STATE_LOCK = threading.Lock()


def build_dir() -> str:
    """Resolve the kernel cache directory (not created until needed)."""
    override = os.environ.get("REPRO_NATIVE_BUILD_DIR")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-native")
    return os.path.join(tempfile.gettempdir(), "repro-native")


def compiler_available() -> Optional[str]:
    """Path of a usable C compiler, or ``None``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            found = shutil.which(candidate)
            if found:
                return found
    return None


def cached_kernel_path(directory: Optional[str] = None) -> Optional[str]:
    """Path of an already-compiled kernel for this source, or ``None``."""
    from importlib.machinery import EXTENSION_SUFFIXES

    base = directory or build_dir()
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(base, MODULE_BASENAME + suffix)
        if os.path.exists(path):
            return path
    return None


def _import_extension(path: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(MODULE_BASENAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ffi = module.ffi

    # ``td_check(arg)`` returns what the python callable behind the
    # handle ``arg`` returns; one that raises counts as 1 (stop the run).
    @ffi.def_extern(name="td_check", error=1)
    def _td_check(handle):
        return ffi.from_handle(handle)()

    return module


#: Compile flags of the serving build.
CFLAGS = ("-O2", "-ffp-contract=off")


def _compile(
    cflags: Sequence[str] = CFLAGS, directory: Optional[str] = None
) -> Optional[str]:
    """Compile the kernel with ``cflags`` into ``directory`` (default: the
    cache dir); return its path.

    Other flags serve checks of the C source itself, e.g. a sanitizer
    build into a scratch directory that ``REPRO_NATIVE_BUILD_DIR`` then
    points at.
    """
    import cffi

    base = directory or build_dir()
    os.makedirs(base, exist_ok=True)
    scratch = os.path.join(base, f"build-{os.getpid()}")
    try:
        ffibuilder = cffi.FFI()
        ffibuilder.cdef(_CDEF)
        ffibuilder.set_source(
            MODULE_BASENAME,
            _C_SOURCE,
            extra_compile_args=list(cflags),
            # log2 lives in libm on POSIX; MSVC's CRT carries it.
            libraries=[] if sys.platform == "win32" else ["m"],
        )
        built = ffibuilder.compile(tmpdir=scratch, verbose=False)
        target = os.path.join(base, os.path.basename(built))
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_c_kernel(build: bool = False):
    """Return the compiled kernel module, or ``None``.

    With ``build=False`` only an already-cached extension is loaded (no
    compiler invoked — this is what ``auto`` selection uses, so a cold
    host never pays compile latency on the serving path).  With
    ``build=True`` a missing kernel is compiled first.  Every failure
    path returns ``None`` silently; ``sys.stderr`` stays clean because
    degradation is an expected state, not an error.
    """
    if _STATE["module"] is not None:
        return _STATE["module"]
    with _STATE_LOCK:
        if _STATE["module"] is not None:
            return _STATE["module"]
        if _STATE["build_tried"] or (_STATE["load_tried"] and not build):
            return None
        _STATE["load_tried"] = True
        if build:
            _STATE["build_tried"] = True
        module = None
        try:
            path = cached_kernel_path()
            if path is None and build:
                path = _compile()
            if path is not None:
                module = _import_extension(path)
        except Exception:
            module = None
        _STATE["module"] = module
        return module


if __name__ == "__main__":  # manual: python -m repro.optimizer._native_build
    kernel = load_c_kernel(build=True)
    if kernel is None:
        print("native kernel build failed (cffi or compiler missing?)")
        sys.exit(1)
    print(f"native kernel ready: {cached_kernel_path()}")

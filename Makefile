# Development targets. `make verify` is the PR gate: the full test
# suite, the benchmark gates (except batch) and the serve smoke.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test chaos bench-service bench-batch bench-resilience bench-observability bench-kernel bench-dpconv bench-native bench-anytime bench-frontdoor serve-smoke profile importtime verify

test:
	$(PYTHON) -m pytest -x -q

# Chaos suite: scripted worker crashes/hangs/corrupted payloads through
# the fault-injection layer, breaker and admission behaviour, crash-safe
# cache persistence, and the front door's shard crash, failed respawn,
# deadline kill, restart (three in a row), messages larger than the pipe
# buffer, and cooperative-deadline salvage (shards and batch workers
# share one supervisor and one round trip, Worker.roundtrip).
chaos:
	$(PYTHON) -m pytest -x -q tests/test_resilience.py \
		tests/test_frontdoor.py::TestBackpressureAndCrashes \
		tests/test_frontdoor.py::TestDrainAndCooperativeDeadlines::test_cooperative_deadline_salvages_instead_of_hard_kill

# Benchmark gates: each target runs the rows of one gate in
# benchmarks/gates.py, the single table that holds every workload,
# threshold and parity check (the shared core is repro.bench.gate).
# Each gate writes BENCH_<name>.json.
#
# Warm plan-cache hit >= 10x faster than the cold miss on clique-14,
# with consistent cache counters.
bench-service:
	$(PYTHON) benchmarks/gates.py service

# Process batch executor >= 1.5x over serial (enforced on >= 2 cores);
# result parity across executors is always enforced.
bench-batch:
	$(PYTHON) benchmarks/gates.py batch

# An over-budget clique answered by the degradation ladder in < 10% of
# the exact enumeration time.
bench-resilience:
	$(PYTHON) benchmarks/gates.py resilience

# Enabled tracing costs < 5% on a warm-cache batch, with every request
# still producing a retained trace.
bench-observability:
	$(PYTHON) benchmarks/gates.py observability

# Fast kernel >= 1.3x geometric-mean speedup over the paper's recursion
# with bit-identical plans, and chain-200 optimizes and extracts
# without RecursionError.
bench-kernel:
	$(PYTHON) benchmarks/gates.py kernel

# DPconv >= 1.5x over the fast kernel on clique-14 with bit-identical
# cost and matching ccp counts (skipped with a notice when one kernel
# run takes over 120s).
bench-dpconv:
	$(PYTHON) benchmarks/gates.py dpconv

# Compiled C dpconv rung >= 5x geometric mean over pure python, and the
# C top-down kernel >= 10x over the python kernel under C_out and under
# the physical cost model, each with the same plan trees, costs, counts
# and memo sizes; a far-future budget costs the C top-down kernel <= 1%.  Skipped with a notice on hosts where no
# C kernel can be loaded or built.
bench-native:
	$(PYTHON) benchmarks/gates.py native

# A 50ms-deadline clique-16 returns a valid salvaged plan, never
# costlier than GOO, within 50 + 20 ms; the cooperative budget checks
# cost <= 1% on the kernel (skipped with a notice when a plain-vs-plain
# control probe shows the machine cannot resolve 1%).
bench-anytime:
	$(PYTHON) benchmarks/gates.py anytime

# Front door: warm p99 <= 250ms with zero transport errors; 4 shards
# >= 2x the 1-shard throughput (enforced on >= 4 cores).
bench-frontdoor:
	$(PYTHON) benchmarks/gates.py frontdoor

# Black-box serve smoke: boots `repro.cli serve` as a subprocess and
# exercises the v1 wire API (cold/warm optimize, typed 400s, healthz,
# stats, Prometheus exposition) over real HTTP.
serve-smoke:
	$(PYTHON) benchmarks/smoke_frontdoor.py

# Where the time goes when bench-kernel regresses: top-25 cProfile
# lines of the kernel path on clique-14.
profile:
	$(PYTHON) -c "from benchmarks.gates import profile_kernel; profile_kernel()"

# Cold-start report: modules loaded and the 15 largest cumulative
# `python -X importtime` entries for `import repro.optimizer.api`,
# `import repro.cli` and `import repro.serialize` (a shard's request
# path).  Report only; tests/test_import_chain.py pins what the
# optimizer's chain must not load and what serialize adds to it.
importtime:
	$(PYTHON) benchmarks/importtime.py

verify: test bench-service bench-resilience bench-observability bench-kernel bench-dpconv bench-native bench-anytime serve-smoke bench-frontdoor
	@echo "verify: ok"

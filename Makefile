# Development targets. `make verify` is the PR gate: the full test
# suite plus the service-cache smoke benchmark (which enforces the
# >= 10x warm-cache speedup floor and counter consistency).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test chaos bench-service bench-batch bench-resilience bench-observability bench-kernel bench-dpconv bench-native bench-anytime bench-frontdoor serve-smoke replay replay-smoke profile verify

test:
	$(PYTHON) -m pytest -x -q

# Chaos suite: scripted worker crashes/hangs/corrupted payloads through
# the fault-injection layer, breaker and admission behaviour, crash-safe
# cache persistence, and the front door's shard crash, deadline kill,
# restart and cooperative-deadline salvage (shards and batch workers
# share one supervisor).
chaos:
	$(PYTHON) -m pytest -x -q tests/test_resilience.py \
		tests/test_frontdoor.py::TestBackpressureAndCrashes \
		tests/test_frontdoor.py::TestDrainAndCooperativeDeadlines::test_cooperative_deadline_salvages_instead_of_hard_kill

bench-service:
	$(PYTHON) benchmarks/bench_service_cache.py

# Multi-core speedup demo: process vs. thread batch backends.  Asserts
# the >= 1.5x floor only on multi-core hosts (pass --require-speedup in
# CI); result parity across backends is always enforced.
bench-batch:
	$(PYTHON) benchmarks/bench_batch_parallel.py

# Admission-control demo: an over-budget clique must be answered from
# the degradation ladder in < 10% of the exact enumeration time.
bench-resilience:
	$(PYTHON) benchmarks/bench_resilience.py

# Tracing overhead gate: enabled tracing must cost < 5% on a
# warm-cache batch, with every request still producing a retained trace.
bench-observability:
	$(PYTHON) benchmarks/bench_observability.py

# Fast-kernel gate: >= 1.3x geometric-mean speedup over the reference
# driver with bit-identical plans, and a deep chain (chain-200 smoke by
# default; --deep-chain for the full chain-600) must optimize and
# extract without RecursionError.  Writes BENCH_kernel.json.
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel_speedup.py

# DPconv fast-exact tier gate: >= 1.5x over the fast kernel on
# clique-14 with bit-identical optimal cost and matching ccp counts
# (skips the speedup gate with a notice on machines too slow to time
# it).  Writes BENCH_dpconv.json.
bench-dpconv:
	$(PYTHON) benchmarks/bench_dpconv.py

# Native-backend gate: the compiled C rung must beat the pure-python
# dpconv engine by a >= 5x geometric mean on the dense gate shapes,
# with the same plan trees, bit-identical costs and ccp parity against
# the reference enumerator.  Skips with a notice on hosts where no C
# kernel can be loaded or built (silent degradation is supported).
# Writes BENCH_native.json.
bench-native:
	$(PYTHON) benchmarks/bench_native_kernel.py

# Anytime gate: a 50ms-deadline clique-16 must return a *valid*
# salvaged plan within deadline + 20ms, never costlier than pure GOO,
# and the cooperative budget checks must cost <= 1% on the kernel's
# hot loops (geomean over everyday shapes; skipped with a notice when
# a plain-vs-plain control probe shows the machine cannot resolve 1%).
# Writes BENCH_anytime.json.
bench-anytime:
	$(PYTHON) benchmarks/bench_anytime.py

# Front-door serving gate: warm p99 must stay under the 250ms SLO with
# zero transport errors.  The 2x 4-shard scaling floor is enforced only
# on hosts with >= 4 cores (CI passes --require-scaling there).
bench-frontdoor:
	$(PYTHON) benchmarks/bench_frontdoor_qps.py

# Black-box serve smoke: boots `repro.cli serve` as a subprocess and
# exercises the v1 wire API (cold/warm optimize, typed 400s, healthz,
# stats, Prometheus exposition) over real HTTP.
serve-smoke:
	$(PYTHON) benchmarks/smoke_frontdoor.py

# Fleet dashboard: replay a seeded 3-tenant mixed-shape stream through
# an in-process service and render REPLAY.json + every registered
# figure into replay_out/ (deterministic for a fixed seed).
replay:
	$(PYTHON) -m repro.cli replay --outdir replay_out

# Replay smoke gate: seeded stream against a live 2-shard front door;
# asserts nonzero cache hits, >= 1 drift-triggered invalidation, zero
# stale-plan serves, and that every registered figure renders.
replay-smoke:
	$(PYTHON) benchmarks/smoke_replay.py

# Where the time goes when bench-kernel regresses: top-25 cProfile
# lines of the kernel path on clique-14.
profile:
	$(PYTHON) benchmarks/bench_kernel_speedup.py --profile

verify: test bench-service bench-resilience bench-observability bench-kernel bench-dpconv bench-native bench-anytime serve-smoke bench-frontdoor replay-smoke
	@echo "verify: ok"

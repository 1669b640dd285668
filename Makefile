PYTHON ?= python
export PYTHONPATH := src

.PHONY: test attack-smoke bench-smoke fuzz-smoke obs-smoke scale-smoke \
	smt-smoke trace-smoke e2e-selftest perf-smoke bench cache-clear

test:
	$(PYTHON) -m pytest -x -q

# Quick security check: the attack matrix on the insecure baseline, one
# NDA policy, and the registry-only FenceOnBranch scheme (mirrors CI).
attack-smoke:
	$(PYTHON) -m repro.cli matrix --guesses 16 \
		--configs ooo strict fence-on-branch

# Tiny end-to-end sweep through the parallel engine (mirrors CI).
bench-smoke:
	$(PYTHON) -m repro.cli bench --benchmarks exchange2 leela \
		--samples 2 --warmup 500 --measure 2000 --jobs 2

# Time-boxed differential fuzzing: 40 fixed seeds (all five gadget
# templates, all four covert channels) across every out-of-order scheme;
# exits nonzero on any counterexample to a scheme's blocking claims
# (mirrors CI; ~30s on 4 workers).
fuzz-smoke:
	$(PYTHON) -m repro.cli fuzz run --seeds 40 --jobs 4

# Cross-context (repro.smt) smoke: the three co-resident attack pairs
# on the insecure baseline, one NDA policy, InvisiSpec, and
# FenceOnBranch; exits nonzero if any cell diverges from the taxonomy's
# expected leak/block claim — including InvisiSpec's deliberate
# cross-btb escape (mirrors CI).
smt-smoke:
	$(PYTHON) -m repro.cli matrix --cross --guesses 16 \
		--configs ooo strict invisispec-spectre fence-on-branch

# Telemetry smoke: trace a Spectre v1 run under NDA strict through the
# event bus and export it as a Perfetto trace, which is validated before
# it is written (mirrors CI).
obs-smoke:
	$(PYTHON) -m repro.cli obs trace spectre_v1_cache --config strict \
		--output results/traces/spectre_v1_cache-strict.json

# Job-placement smoke: the same sweep with --jobs 1 (in-process) and
# --jobs 2 (fork pool) must be bit-identical (mirrors CI).  Resuming a
# killed campaign from the result store is tier-1's
# tests/test_checkpoint.py::TestPreemptedCampaign.
scale-smoke:
	$(PYTHON) benchmarks/scale_smoke.py

# Span-tracing smoke: a traced `bench --jobs 2` run must leave exactly
# one Perfetto trace, cli.bench-<pid>.json, in its REPRO_TRACE_DIR; it
# must validate, nest engine.run in cli.bench, and put one
# engine.execute per executed job on a worker's lane (mirrors CI).
trace-smoke:
	$(PYTHON) benchmarks/trace_smoke.py

# Self-test of the end-to-end benchmark (benchmarks/e2e, ~10 s): small
# traced and untraced passes of its pipelines, and compare.py's verdicts.
# `make test` collects only tests/, so without this a change in src/ can
# break the benchmark unnoticed (mirrors CI).
e2e-selftest:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Telemetry overhead gate: metrics sampling and span tracing must each
# cost under 10% wall clock (median of 25 paired rounds on mcf/strict),
# and every telemetry variant must simulate bit-identically (mirrors CI).
perf-smoke:
	$(PYTHON) benchmarks/obs_overhead.py

# Full figure/table regeneration (writes under results/).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

cache-clear:
	$(PYTHON) -m repro.cli cache clear

# Makefile — developer entry points. `make verify` is the full gate:
# gofmt, tier-1 build+tests, vet, the race-detected suites, and the
# benchmark module (`make perfbench-test`). `make bench` snapshots the
# root benchmarks into BENCH_PR<N+1>.json, where BENCH_PR<N>.json is the
# highest-numbered snapshot present, and gates the new snapshot against
# that one: a >10% ns/op
# regression on the critical Figure3/Figure4 benches fails the target,
# as does >3% on the attestation-protocol hot path — the latter now runs
# alongside its profiler-enabled twin (armed ticker / active CPU capture)
# so the continuous-profiling overhead is measured, not assumed. The PR8
# batch-eval minspeedup gate is retired — the bitsliced engine is now the
# baseline on both sides of the comparison, so the ordinary regression
# threshold covers it. A separate single-shot pass appends the cluster
# load SLO curves (p99, reject_overload, sessions/s at 1k/5k/10k provers)
# to the same snapshot.

GO ?= go

# Snapshot names for `make bench`, derived from the files present.
BENCH_PREV_N := $(shell ls BENCH_PR*.json 2>/dev/null | sed -n 's/^BENCH_PR\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -n 1)
BENCH_PREV := BENCH_PR$(BENCH_PREV_N).json
BENCH_NEXT := BENCH_PR$(shell expr 0$(BENCH_PREV_N) + 1).json

.PHONY: build test vet race verify bench perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The attestation robustness tests (drop/corrupt/truncate/delay/duplicate
# fault classes, retry, quarantine), the telemetry layer (tracer ring,
# journal, health registry, admin endpoints under concurrent sweeps), the
# CRP database/store claim paths, and the parallel batch-evaluation
# packages under the race detector.
race:
	$(GO) test -race ./internal/attest/... ./internal/telemetry/... ./internal/crp/... ./internal/sim/... ./internal/core/... ./internal/experiments/...

verify:
	./scripts/verify.sh

# perfbench/ is its own Go module (replace pufatt => ../), so the root
# `go test ./...` never builds it; vet and test it against this checkout.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Run the facade benchmarks and record them as JSON for cross-PR
# comparison, then gate against the previous PR's snapshot (10% ns/op
# threshold, Figure3/Figure4 critical). Each benchmark runs 20
# iterations per sample, five samples, and compare collapses repeats
# to the fastest sample — single-iteration samples are dominated by
# cold caches and GC pauses from earlier benchmarks in the process,
# which made the gate flap on loaded machines. Snapshots before
# BENCH_PR6 were single-iteration, so deltas against them overstate
# improvement; from PR6 on the comparison is like-for-like. The
# gate-critical benchmarks get a second, longer sampling pass: at 20
# iterations a sub-microsecond benchmark measures ~10 µs of wall time,
# so a single timer interrupt or clock-ramp stall inflates the sample
# 2x and the gate flaps. 2000 iterations amortize that. Both passes
# feed one snapshot and benchjson keeps the fastest sample per
# benchmark. The cluster load benchmark gets its own single-shot pass
# (PUFATT_BENCH_CLUSTER gates it out of the sweep passes): one RunLoad
# per level IS the measurement — the SLO numbers come from the report
# metrics, and 10k provers at 20x/count-5 would take half an hour for
# no extra signal.
bench:
	{ $(GO) test -run '^$$' -bench . -benchtime 20x -count 5 . ; \
	  $(GO) test -run '^$$' -bench 'Figure3|Figure4|AttestationProtocol|BatchEval' -benchtime 2000x -count 5 . ; \
	  PUFATT_BENCH_CLUSTER=1 $(GO) test -run '^$$' -bench 'ClusterLoadSLO' -benchtime 1x -count 1 -timeout 30m . ; } | $(GO) run ./scripts/benchjson > $(BENCH_NEXT)
	@cat $(BENCH_NEXT)
	@if [ -f "$(BENCH_PREV)" ]; then $(GO) run ./scripts/benchjson compare -threshold 0.10 -critical 'Figure3|Figure4' -strict $(BENCH_PREV) $(BENCH_NEXT); fi
	@if [ -f "$(BENCH_PREV)" ]; then $(GO) run ./scripts/benchjson compare -threshold 0.03 -critical 'AttestationProtocol' -strict $(BENCH_PREV) $(BENCH_NEXT); fi

# Developer convenience targets. `make check` is the pre-submit gate:
# static analysis, the full test suite under the race detector, and a short
# fuzzing smoke of the analyzer/search entry points.

GO ?= go

.PHONY: all build test check vet race fuzz-smoke bench bench-sim bench-eval bench-assoc bench-serve bench-serve-smoke bench-optimize bench-cluster bench-cluster-smoke serve-check cover golden

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# A 10-second no-panic fuzz of AnalyzeWithOptions + Search on top of the
# checked-in seed corpus, plus the cross-engine simulation invariants:
# analytic vs exact agreement, the sampled estimator's bounds, the
# set-associative simulator's batched-vs-scalar equivalence, and the
# transformation-plan legality contract (plans apply cleanly or reject
# before evaluation, and applied plans preserve execution semantics), and
# the service boundary (mutated bodies on every route answer inside the
# 200/400/429/503/504 taxonomy, never panic, and balance the counters).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeNoPanic$$' -fuzztime 10s ./internal/tilesearch
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyticVsExact$$' -fuzztime 10s ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzSampledBounds$$' -fuzztime 10s ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzAssocBlockVsScalar$$' -fuzztime 10s ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzPlanLegality$$' -fuzztime 10s ./internal/loopir
	$(GO) test -run '^$$' -fuzz '^FuzzHandler$$' -fuzztime 10s ./internal/service

check: vet race fuzz-smoke

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Simulation-pipeline benchmarks (frozen scalar baseline vs batched/sharded,
# plus per-engine rows) and the committed BENCH_sim.json artifact. The
# go-test benchmarks and the artifact generator share the internal/simbench
# workload definitions, so the two outputs measure the same thing. The final
# smoke run fails if the analytic engine is not ≥100× faster than the exact
# simulator on the n=512 matmul.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/simbench
	$(GO) run ./cmd/simbench -o BENCH_sim.json
	$(GO) run ./cmd/simbench -smoke

# Symbolic-evaluation benchmarks (tree-walking baseline vs compiled
# programs on slot frames) and the committed BENCH_eval.json artifact,
# sharing the internal/evalbench workload definitions the same way
# bench-sim shares internal/simbench.
bench-eval:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/evalbench
	$(GO) run ./cmd/evalbench -o BENCH_eval.json

# Set-associative accuracy benchmarks: the conflict-aware model against the
# AssocCache ground truth across an associativity sweep, plus ns/prediction
# for both models, written to the committed BENCH_assoc.json artifact. The
# go-test benchmarks and the artifact generator share internal/simbench, so
# CI's 1-iteration simbench smoke exercises these paths too.
bench-assoc:
	$(GO) test -run '^$$' -bench '^BenchmarkAssoc' -benchmem ./internal/simbench
	$(GO) run ./cmd/simbench -assoc -o BENCH_assoc.json

# Serving-layer load test: 32 closed-loop clients against an in-process
# server, every response verified byte-for-byte against the direct library
# call, throughput and latency percentiles written to BENCH_serve.json.
# Scenarios: predict-hot, mixed, the batch 1/8/64 sweep (items/sec and
# speedup vs predict-hot), NDJSON streaming, and the 64-client storm
# (single-request p99 with batch traffic in the mix).
bench-serve:
	$(GO) run ./cmd/loadgen -clients 32 -duration 2s -o BENCH_serve.json

# Short regression tripwire for the batch amortization claim: asserts
# batch-64 items/sec ≥ 3× the predict-hot request rate. CI-friendly.
bench-serve-smoke:
	$(GO) run ./cmd/loadgen -scenario batch -batch-size 64 -smoke \
		-clients 16 -duration 500ms -o ""

# Joint transformation-search benchmarks (the plan search vs the tile-only
# baseline on the committed workloads) and the BENCH_opt.json artifact,
# sharing internal/optbench the same way bench-sim shares internal/simbench.
# The smoke run fails if any workload's joint winner stops strictly beating
# its tile-only baseline.
bench-optimize:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/optbench
	$(GO) run ./cmd/optbench -o BENCH_opt.json
	$(GO) run ./cmd/optbench -smoke

# Cluster-tier benchmark: a key sweep bigger than one replica's caches,
# routed through analysisrouter, single replica vs 4 — the aggregate
# cache-capacity win consistent-hash sharding buys even on one core. Every
# response is byte-verified against the direct library computation and the
# artifact is committed as BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/clusterbench -o BENCH_cluster.json
	$(GO) run ./cmd/clusterbench -smoke -o ""

# Short regression tripwire for the scale-out claim: asserts 4-replica
# throughput ≥ 2.5× single-replica. CI-friendly.
bench-cluster-smoke:
	$(GO) run ./cmd/clusterbench -smoke -duration 1s -o ""

# End-to-end analysisd lifecycle check: start, readiness, one request per
# endpoint, SIGTERM, clean drain — then the same for the cluster tier
# (analysisrouter in front of two replicas: routed requests, all-backends-down
# 503, clean router drain).
serve-check:
	sh scripts/serve_check.sh

# Golden-file tests for the cmd tools' text output and RunReport JSON.
# Regenerate with: go test ./cmd/... -update
golden:
	$(GO) test -run Golden ./...

# Coverage gate for the observability layer: the instrumentation the run
# reports depend on must stay ≥ 70% covered.
cover:
	$(GO) test -coverprofile=/tmp/obs.cover ./internal/obs
	@$(GO) tool cover -func=/tmp/obs.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/obs coverage: %s\n", $$3; \
		if (pct < 70) { print "FAIL: internal/obs coverage below 70%"; exit 1 } }'

# Developer convenience targets. `make check` is the pre-submit gate:
# formatting, static analysis, the dead-code scan, the full test suite under
# the race detector, and a short fuzzing smoke of the analyzer/search entry
# points.

GO ?= go

.PHONY: all build test check fmt vet deadcode race fuzz-smoke bench bench-smoke bench-ab serve-check cover golden

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails when any tracked Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Lists every function, method and type in a non-test file that no
# production code reaches (main packages, the root package's API, perfbench)
# and fails if it lists anything; scripts/deadcode holds the short hold list.
deadcode:
	$(GO) run ./scripts/deadcode

race:
	$(GO) test -race ./...

# A 10-second no-panic fuzz of AnalyzeWithOptions + Search on top of the
# checked-in seed corpus, plus the cross-engine simulation invariants:
# analytic vs exact agreement, the sampled estimator's bounds, the
# set-associative simulator's batched-vs-scalar equivalence, and the
# transformation-plan legality contract (plans apply cleanly or reject
# before evaluation, and applied plans preserve execution semantics), and
# the service boundary (mutated bodies on every route answer inside the
# 200/400/429/503/504 taxonomy, never panic, and balance the counters), and
# the stored-trace reader (corrupt files end in an error or in blocks whose
# sites and addresses lie inside the header's bounds). FUZZ_SMOKE turns
# input minimization off: minimizing one new input can outlast the whole
# window (FuzzReadTrace sat at 0 execs/s from 6 s on), and a smoke ends
# before the minimized input is kept, so every run would repeat it.
FUZZ_SMOKE = -fuzztime 10s -fuzzminimizetime 0

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeNoPanic$$' $(FUZZ_SMOKE) ./internal/tilesearch
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyticVsExact$$' $(FUZZ_SMOKE) ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzSampledBounds$$' $(FUZZ_SMOKE) ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzAssocBlockVsScalar$$' $(FUZZ_SMOKE) ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzPlanLegality$$' $(FUZZ_SMOKE) ./internal/loopir
	$(GO) test -run '^$$' -fuzz '^FuzzHandler$$' $(FUZZ_SMOKE) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' $(FUZZ_SMOKE) ./internal/trace

check: fmt vet deadcode race fuzz-smoke

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Byte-verification smoke of the repository benchmark: every workload in
# BENCHMARK.json runs for 2 s, and the target fails unless each run's last
# line (its result) reports "correct":true, i.e. every answer matched
# Service.Compute byte for byte. Traced search-cold and point-cold runs
# follow: they also replay every request through the library calls the
# service makes (tilesearch.Search, SearchPlans and core.AnalyzeWithOptions
# for searches; experiments.BuildKernel, Spec.Canonicalize and the
# prediction for point requests), and are not correct when more than a
# fifth of the replays' layer self-times sum past 1.5x their HTTP latency,
# which is what a served path that skips work the library calls do looks
# like. (A traced simulate-cold run is left out: at 2 s it goes over that
# fifth on a 2-CPU host with no change to the code.)
bench-smoke:
	@ws=$$(jq -r '.workloads[].name' BENCHMARK.json) && [ -n "$$ws" ] || exit 1; \
	for w in $$ws; do \
		out=$$(sh perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "bench-smoke: $$w is not correct"; exit 1;; esac; \
	done; \
	out=$$(sh perfbench/run.sh --workload search-cold --seed 1 --seconds 4 --trace 1) || exit 1; \
	line=$$(printf '%s\n' "$$out" | tail -n 1); \
	echo "search-cold traced: $$line"; \
	case "$$line" in *'"correct":true'*) ;; *) echo "bench-smoke: traced search-cold is not correct"; exit 1;; esac; \
	out=$$(sh perfbench/run.sh --workload point-cold --seed 1 --seconds 4 --trace 1) || exit 1; \
	line=$$(printf '%s\n' "$$out" | tail -n 1); \
	echo "point-cold traced: $$line"; \
	case "$$line" in *'"correct":true'*) ;; *) echo "bench-smoke: traced point-cold is not correct"; exit 1;; esac

# Paired A/B of the repository benchmark, the work tree against BASE: 10
# alternating pairs per workload (about 25 minutes on a 2-CPU host). The
# last line is the JSON summary; append it to BENCH_history.jsonl.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<ref>"; exit 1; }
	sh scripts/bench_ab.sh "$(BASE)"

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

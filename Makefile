# Developer targets for the PFRL-DM reproduction.
#
#   make ci         - the full pre-merge smoke check: vet, staticcheck (when
#                     reachable), build, race-enabled tests (incl. the
#                     federation fault-tolerance suite and the simulator
#                     invariant harness), the determinism goldens at
#                     -cpu 1,2,4, one iteration of each perf
#                     microbenchmark, a 20-VM cluster-scale smoke, a
#                     /metrics endpoint smoke test, and a 16-client
#                     async-federation chaos smoke
#   make test       - plain test suite (tier-1 gate)
#   make test-race  - federation layers + simulator invariants, race-enabled
#   make golden     - bit-identity goldens at GOMAXPROCS 1, 2 and 4
#   make fuzz-smoke - a short run of every fuzz target
#   make bench      - full benchmark runs with allocation reporting
#   make perf       - the CLI perf experiment, writing BENCH_<name>.json
#   make scale      - the full 20/500/5000-VM cluster-scale sweep

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci vet staticcheck build test race test-race golden fuzz-smoke bench bench-env bench-update bench-agg perf scale scale-smoke metrics-smoke swarm-smoke spec-smoke

ci: vet staticcheck build race test-race golden bench-smoke bench-env bench-update bench-agg scale-smoke metrics-smoke swarm-smoke spec-smoke

vet:
	$(GO) vet ./...

# Pinned staticcheck via `go run` so CI needs no separately-installed binary.
# The module proxy is unreachable in offline/sandboxed environments; probe
# first and skip (loudly) rather than fail the whole gate on a network error.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: module proxy unreachable, skipping (run online to lint)"; \
	fi

# Start pfrl-node with -metrics-addr, scrape /metrics, and assert the core
# gauges are exposed. Guards the Prometheus endpoint end to end.
metrics-smoke:
	./scripts/metrics_smoke.sh

# A 16-client buffered-async swarm over loopback fednet with the fault
# injector on: drops, duplicates, and corruptions all active, everything
# seeded. Guards the asynchronous federation path end to end.
swarm-smoke:
	$(GO) run ./cmd/pfrl-node -mode swarm -clients 16 -rounds 2 -buffer 4 \
		-staleness-bound 2 -seed 42 -fault-spec "drop=0.08,dup=0.08,corrupt=0.05"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The federation layers carry the concurrency-heavy fault-tolerance tests
# (round deadlines, retries, rejoin) and the shared round engine behind both
# paths; internal/rl carries concurrent client agents on one shared tensor
# pool and its batched-vs-sequential golden tests; internal/cloudsim carries
# the simulator invariant harness (randomized episodes at 20 and 500 VMs).
# Run all of them race-enabled on every merge.
test-race:
	$(GO) test -race ./internal/fedcore/... ./internal/fed/... ./internal/fednet/... ./internal/rl/... ./internal/cloudsim/...

# The bit-identity and determinism goldens at several core counts: results
# must not depend on GOMAXPROCS.
golden:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Golden|BitIdentical|Equivalence|MatchesReference|Determinism' \
		./internal/core ./internal/fed ./internal/fedcore ./internal/rl

# Short deterministic-budget run of every fuzz target (go test allows one
# -fuzz pattern per invocation, hence one run per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/rl
	$(GO) test -run '^$$' -fuzz FuzzCSVTrace -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzCSVStream -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzStreamInject -fuzztime 10s ./internal/cloudsim
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/fedcore

# One iteration of each microbenchmark: catches panics/regressions in the
# bench harness itself without paying for a full measurement run.
bench-smoke:
	$(GO) test ./internal/rl/ -run xxx -bench 'BenchmarkRolloutStep|BenchmarkPPOUpdate' -benchtime=1x -benchmem

# Simulator-core and rollout benchmarks under the allocation guard: fails
# if BenchmarkEnvStep or BenchmarkRolloutStep report any allocs/op. Runs a
# short fixed iteration count in ci; override with BENCHTIME=2s for a full
# measurement.
bench-env:
	GO="$(GO)" ./scripts/bench_alloc_guard.sh env

# The PPOUpdate slice of the allocation guard alone — the fast pre-merge
# check for changes touching the update pipeline.
bench-update:
	GO="$(GO)" ./scripts/bench_alloc_guard.sh update

# The federation data-plane slice of the allocation guard: one steady-state
# round (K encodes, K decodes, pooled aggregation) must allocate nothing.
bench-agg:
	GO="$(GO)" BENCHTIME="$${BENCHTIME:-50x}" ./scripts/bench_alloc_guard.sh agg

bench:
	$(GO) test ./internal/rl/ -run xxx -bench 'BenchmarkRolloutStep|BenchmarkPPOUpdate' -benchmem
	$(GO) test ./internal/cloudsim/ -run xxx -bench 'BenchmarkEnvStep|BenchmarkObserve|BenchmarkEpisode' -benchmem

perf:
	$(GO) run ./cmd/pfrl-bench -exp perf -benchdir .

# Cluster-scale sweep smoke for ci: the 20-VM configuration only, with the
# artifact routed to a scratch directory so the committed full-sweep
# BENCH_ClusterScale.json (20/500/5000 VMs) is not clobbered.
scale-smoke:
	$(GO) run ./cmd/pfrl-bench -exp scale -scale-cap 20 -benchdir "$$(mktemp -d)"

# The full 20/500/5000-VM sweep, regenerating BENCH_ClusterScale.json.
scale:
	$(GO) run ./cmd/pfrl-bench -exp scale -benchdir .

# Workload-spec engine smoke for ci: every embedded preset must reproduce
# its builtin model bit-for-bit, and a tiny spec-driven episode must run end
# to end with the per-SLO-class breakdown.
spec-smoke:
	$(GO) run ./cmd/workload-stats -validate-presets -n 500
	$(GO) run ./cmd/pfrl-bench -exp spec -workload-spec examples/hybridworkloads/twoclient.json -tasks 40

GO ?= go

.PHONY: build vet test check race chaos fuzz golden bench perfbench-test fleet-smoke fleet-saturation fleet-shards fleet-chaos trace-smoke federation-smoke ci clean

# Minutes of fuzzing per property target (see `make fuzz`).
FUZZTIME ?= 30s

build:
	$(GO) build ./...

# Vet, then fail on any file gofmt would rewrite (listing them).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt needed on:"; echo "$$unformatted"; exit 1; }

test:
	$(GO) test ./...

# The whole suite with the runtime invariant checker (internal/check)
# attached to every simulated platform run.
check:
	PRICEPOWER_CHECK=1 $(GO) test ./...

# Property fuzzing of the V-F ladder clamping contract, the run-queue
# scheduling contract, the sharded dispatcher against the linear routing
# oracle, the board checkpoint codec round trip, the fleet and federation
# arrival-trace decoders and their submit bounds, the electricity-price trace
# decode→validate→lookup pipeline, the platform's steady spans against
# per-tick stepping, and the HRM run window against its
# one-slot-per-sample oracle. FUZZTIME bounds each target.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzLadderLookup -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzQueuePickNext -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run=^$$ -fuzz=FuzzRouteShardedVsLinear -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzPriceTraceLookup -fuzztime=$(FUZZTIME) ./internal/federation
	$(GO) test -run=^$$ -fuzz=FuzzParseFedTrace -fuzztime=$(FUZZTIME) ./internal/federation
	$(GO) test -run=^$$ -fuzz=FuzzSpanEquivalence -fuzztime=$(FUZZTIME) ./internal/platform
	$(GO) test -run=^$$ -fuzz=FuzzWindowRuns -fuzztime=$(FUZZTIME) ./internal/task

# Regenerate the pinned experiment digests after an intentional numerical
# change (see EXPERIMENTS.md, "Bisecting a digest mismatch").
golden:
	$(GO) test ./internal/exp -run TestGoldenDigests -update

# The concurrency-bearing packages under the race detector: the market
# (internal/core), the LBT planner's chip-wide fan-out (internal/lbt), the
# platform tick/migration machinery (internal/platform), the telemetry
# sinks/registry read by the HTTP layer (internal/telemetry), the fleet's
# board goroutines behind the batch barrier (internal/fleet), and the
# federation stepping region fleets (internal/federation).
race:
	$(GO) test -race ./internal/core ./internal/lbt ./internal/platform ./internal/telemetry ./internal/fleet ./internal/federation

# Fault-injection suite under the race detector: randomized chaos schedules,
# single-fault recovery acceptance, and the 16-cluster run that drives the
# injector hooks of every cluster each round (see internal/fault).
chaos:
	$(GO) test -race -count=1 ./internal/fault

# End-to-end fleet smoke: a race-instrumented fleetd with four boards (one
# under the example sensor-dropout scenario), the canned burst trace
# batch-submitted over HTTP, convergence to zero-loss asserted via /state,
# real degradation via /metrics, and a graceful SIGTERM shutdown.
fleet-smoke:
	sh scripts/fleet-smoke.sh

# Observability gate: the deterministic-tracing replay tests under the
# race detector (bit-identical digests at K ∈ {0,4} × S ∈ {1,8}, span
# conservation under shed + drain), then a race-instrumented fleetd run
# twice per (K, S) point diffing the printed digest vectors, plus the
# /trace and /histograms HTTP surface (see scripts/trace-smoke.sh).
trace-smoke:
	$(GO) test -race -count=1 -run 'TestFleetTraceReplaysBitIdentically|TestFleetTraceSpanConservation|TestFleetJSONLEventOrdering' ./internal/fleet
	sh scripts/trace-smoke.sh

# Dispatcher shard count for the sharded saturation benchmarks (the
# EXPERIMENTS.md recipe runs `make fleet-saturation SHARDS=8`).
SHARDS ?= 8

# Fleet saturation smoke under the race detector: one pass over the
# routing benchmarks (fleet-size sweep, and the 1000-submission
# saturation batch at S=$(SHARDS)) and the bounded-skew stepping
# benchmarks (K=0 vs K=4), plus the equivalence/replay tests that pin
# them. -benchtime 1x exercises the paths; measure with
# `go test -bench ... -count 5` (see EXPERIMENTS.md).
fleet-saturation:
	$(GO) test -race -run 'TestPropertyShardedMatchesLinearOracle|TestFleetReplaysBitIdentically|TestFleetSkewZeroMatchesLockstep' ./internal/fleet
	$(GO) test -race -run '^$$' -bench 'BenchmarkDispatcherRoute$$|BenchmarkDispatcherSharded/boards=256/S=$(SHARDS)$$|BenchmarkFleetSaturation' -benchtime 1x .

# Sharded-dispatcher suite under the race detector: the cross-shard
# equivalence property, the steal/interleaving determinism stresses, the
# conservation property across shard counts, the fuzz seed corpus, and
# one -benchtime 1x pass over the full shard sweep.
fleet-shards:
	$(GO) test -race -count=1 -run 'TestPropertySharded|TestSharded|TestFleetSharded|FuzzRouteShardedVsLinear' ./internal/fleet
	$(GO) test -race -run '^$$' -bench 'BenchmarkDispatcherSharded' -benchtime 1x .

# Board failure-domain gate: the crash/stall/restart suite under the race
# detector (orphan accounting, joined crash errors, crash + stall in one
# barrier, zero-loss across crash -> restart -> re-place for S ∈ {1,2,4,8},
# checkpoint codec corpus), then a race-instrumented batch fleetd run twice
# with the example board-crash and board-stall scenarios live, diffing the
# trace digest vectors and failure counters (see scripts/fleet-chaos.sh).
fleet-chaos:
	sh scripts/fleet-chaos.sh

# Geo-distributed federation gate: the federation suite (conservation at
# R ∈ {1,2,4}, migration hysteresis/convergence, faulted replay, stacked
# region+board metric labels) under the race detector, then a
# race-instrumented fedd double run of the example 3-region federation
# (board crash + region outage) diffing the federation digest vectors
# (see scripts/federation-smoke.sh).
federation-smoke:
	$(GO) test -race -count=1 ./internal/federation
	sh scripts/federation-smoke.sh

# The repository benchmark (BENCHMARK.json), built from source: every
# perfbench workload in turn. For one-off variations call
# `bash perfbench/run.sh` directly (see EXPERIMENTS.md).
bench:
	for w in paper_tc2 manycluster_v32 fed_follow_sun; do bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; done

# perfbench is its own module, so `go build ./...` and `go vet ./...` at
# the root never compile it; vet it and run every workload at tiny length.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build vet race chaos test check perfbench-test fleet-smoke fleet-saturation trace-smoke fleet-chaos federation-smoke

clean:
	rm -rf .bench_build

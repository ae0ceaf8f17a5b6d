GO ?= go

.PHONY: build vet test check race chaos fuzz golden bench perfbench-test smoke ci clean

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
# oracle, the board checkpoint codec round trip, the decoders of every
# input file and request body (arrival traces and their submit bounds,
# federation configs, fault scenarios, electricity-price traces through
# lookup), the histogram's recording contract, the platform's steady
# spans against per-tick stepping, and the HRM run window against its
# one-slot-per-sample oracle. FUZZTIME bounds each target.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzLadderLookup -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzQueuePickNext -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run=^$$ -fuzz=FuzzRouteShardedVsLinear -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzParseFedTrace -fuzztime=$(FUZZTIME) ./internal/federation
	$(GO) test -run=^$$ -fuzz=FuzzParseConfig -fuzztime=$(FUZZTIME) ./internal/federation
	$(GO) test -run=^$$ -fuzz=FuzzPriceTraceLookup -fuzztime=$(FUZZTIME) ./internal/federation
	$(GO) test -run=^$$ -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=^$$ -fuzz=FuzzHistogramRecord -fuzztime=$(FUZZTIME) ./internal/metrics
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
# federation stepping region fleets and serving its API
# (internal/federation). Then one pass over the fleet routing, sharded
# dispatch and saturation benchmarks, whose routing lanes run on their
# own goroutines (measure them with `go test -bench ... -count 5`).
race:
	$(GO) test -race ./internal/core ./internal/lbt ./internal/platform ./internal/telemetry ./internal/fleet ./internal/federation
	$(GO) test -race -run '^$$' -bench 'BenchmarkDispatcherRoute$$|BenchmarkDispatcherSharded|BenchmarkFleetSaturation' -benchtime 1x .

# Fault-injection suite under the race detector: randomized chaos schedules,
# single-fault recovery acceptance, and the 16-cluster run that drives the
# injector hooks of every cluster each round (see internal/fault).
chaos:
	$(GO) test -race -count=1 ./internal/fault

# The process-level gate (scripts/smoke.sh): race-built fedd runs of
# the example federation, the chaos fleet and the K x S trace sweep, each
# twice with their digest vectors diffed; a serving fleet driven over
# HTTP to zero-loss convergence and a graceful SIGTERM; and ppmsim's
# telemetry endpoints.
smoke:
	sh scripts/smoke.sh

# The repository benchmark (BENCHMARK.json), built from source: every
# perfbench workload in turn. For one-off variations call
# `bash perfbench/run.sh` directly (see EXPERIMENTS.md).
bench:
	for w in paper_tc2 manycluster_v32 fed_follow_sun; do bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; done

# perfbench is its own module, so `go build ./...` and `go vet ./...` at
# the root never compile it; vet it and run every workload at tiny length.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build vet race chaos test check perfbench-test smoke

clean:
	rm -rf .bench_build

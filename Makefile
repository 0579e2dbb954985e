# Tier-1 gate plus the simulation-testing harness.
#
#   make ci           - vet, race-enabled tests, chaos sweep, smokes, api check
#   make test         - plain test run (what the seed gate runs)
#   make sweep        - 20-seed invariant chaos sweep at 8x compression
#   make trace-smoke  - export a managed-run trace and validate its schema
#   make bench-smoke  - measure the sim core into BENCH_core.json and sanity-check it
#   make obs-smoke    - scrape a live run's admin endpoint and validate the exposition
#   make netsim-smoke - run the partition scenario from examples/netfault.json
#                       end to end (invariant-checked; nonzero exit on violation)
#   make selector-smoke - selector property tests, one rendezvous fuzz pass,
#                       and the quick gray-failure routing comparison
#   make alert-smoke  - run the quick alert-latency experiment end to end
#                       (self-checking: nonzero exit unless the alert plane
#                       pages the gray replica while the φ detector is silent)
#   make fluid-smoke  - fluid-engine gate: cross-validation + determinism
#                       tests, then the quick million-client experiment
#                       (self-checking: nonzero exit unless the run reaches
#                       a million clients with both sizing loops actuating)
#   make diff-smoke   - attribution sweep tests, then the quick latency-budget
#                       experiment (self-checking: nonzero exit unless same-seed
#                       runs diff clean and the injected app slowdown is
#                       localized to app-tier queueing)
#   make config-smoke - live-config gate: the HTTP POST→apply round-trip and
#                       no-op-refresh neutrality tests, then the quick live-retune
#                       experiment (self-checking: nonzero exit unless the mid-run
#                       selector swap improves gray-failure p99 >=2x with zero
#                       restarts and a byte-identical same-seed replay)
#   make fuzz-smoke   - one pass of each fuzz target over its seed corpus
#                       (SQL parser + executor differential, IsWrite vs its
#                       strings.Fields definition, rendezvous pick, run-spec
#                       parse/marshal fixpoint)
#   make api-check    - diff the facade's exported surface against testdata/api_surface.txt

GO ?= go
TRACE_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp)/jade-trace.json

.PHONY: all build test vet race sweep trace-smoke bench-smoke obs-smoke netsim-smoke selector-smoke alert-smoke fluid-smoke diff-smoke config-smoke fuzz-smoke api-check ci

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

sweep:
	$(GO) run ./cmd/jadebench -sweep 20 -speedup 8

trace-smoke:
	$(GO) run ./cmd/jadectl scenario -clients 300 -duration 300 -managed -trace.chrome $(TRACE_TMP)
	$(GO) run ./cmd/jadectl trace-validate $(TRACE_TMP)
	rm -f $(TRACE_TMP)

bench-smoke:
	$(GO) run ./cmd/jadebench -bench-core -bench-out BENCH_core.json
	$(GO) run ./cmd/jadebench -bench-validate BENCH_core.json

obs-smoke:
	$(GO) run ./cmd/jadectl scenario -clients 200 -duration 300 -managed -metrics.http 127.0.0.1:0 -metrics.scrape-check

netsim-smoke:
	$(GO) run ./cmd/jadectl scenario -config examples/netfault.json

selector-smoke:
	$(GO) test ./internal/selector
	$(GO) test -run FuzzRendezvousPick -fuzz FuzzRendezvousPick -fuzztime 1x ./internal/selector
	$(GO) test -run 'TestGrayFailureParallelismInvariance|TestRoutingPoolConcurrentObservers' .

alert-smoke:
	$(GO) run ./cmd/jadebench -experiment alertlat -quick

fluid-smoke:
	$(GO) test -run 'TestFluid(CrossValidation|Determinism)' .
	$(GO) run ./cmd/jadebench -experiment millionclient -quick

diff-smoke:
	$(GO) test -run 'TestAttrib(ConservationSweep|WindowPartition)' .
	$(GO) run ./cmd/jadebench -experiment latbudget -quick

config-smoke:
	$(GO) test -run 'TestConfigPostRoundTrip|TestNoopRefreshTrajectoryNeutral' .
	$(GO) run ./cmd/jadebench -experiment liveretune -quick

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 1x ./internal/sqlengine
	$(GO) test -run '^$$' -fuzz '^FuzzIsWrite$$' -fuzztime 1x ./internal/sqlengine
	$(GO) test -run '^$$' -fuzz '^FuzzRendezvousPick$$' -fuzztime 1x ./internal/selector
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 1x .

api-check:
	$(GO) test -run TestAPISurface .

ci: vet race sweep trace-smoke bench-smoke obs-smoke netsim-smoke selector-smoke alert-smoke fluid-smoke diff-smoke config-smoke fuzz-smoke api-check

# Build / verify / benchmark entry points.
#
#   make vet       - go vet, and fail if gofmt -l . lists any file
#   make test      - tier-1 (go build ./... && go test ./...)
#   make test-race - the full suite under the race detector (catches
#                    replica-state leaks between pooled/concurrent scans
#                    and scheduler races in the service layer)
#   make ci        - what CI runs: vet + tier-1 + the race-parity suite +
#                    the GOMAXPROCS=2 tier (ci-smp) + the chaos tier +
#                    the observability tier + the cluster tier + the
#                    HTTP smoke
#   make ci-smp    - re-run the build and the temporal/engine suites with
#                    GOMAXPROCS=2 (temporal suite under -race): single-core
#                    CI containers otherwise never execute the sharded
#                    fan-out with real goroutine preemption, which is where
#                    merge races and replica-state leaks would bite
#   make ci-chaos  - the seeded fault-injection matrix under -race with
#                    GOMAXPROCS=2: sustained faults across every job kind
#                    must leave every job classified, identical seeds must
#                    produce identical retry/quarantine traces, drains must
#                    win races against stalls and backoffs, and nothing may
#                    leak a goroutine
#   make ci-cluster - the cluster gate under -race with GOMAXPROCS=2:
#                    ring determinism and bounded remap, N=4 cluster parity
#                    with the single-scheduler path (every kind, stateful
#                    sessions included), a one-instance cluster identical
#                    to New(cfg) under chaos (IDs, traces, fault counts,
#                    unlabeled metrics), the zipfian affinity win over
#                    shuffled round-robin, router partial-failure isolation
#                    with per-instance fault seeds, and the stats/metrics
#                    rollup invariants
#   make ci-obs    - the observability gate under -race with GOMAXPROCS=2:
#                    the obs metrics/span suites, the timeline renderer,
#                    the service metrics/trace endpoints, span-tree
#                    determinism under chaos, Store.Stats under
#                    eviction/TTL churn concurrent with scrapes — plus the
#                    zero-alloc guards proving the disabled-recorder hot
#                    path costs nothing
#   make bench     - vet + tier-1 + race + the scan-engine benchmarks;
#                    appends the parsed results to BENCH_scan.json so the
#                    perf trajectory is tracked across PRs
#   make bench-all - same, but runs the full benchmark suite (minutes)
#   make bench-compare - diff the last two BENCH_scan.json entries and warn
#                    on >10% throughput regressions in probes/s, jobs/s or
#                    ticks/s (STRICT=1 to fail on one; check the recorded
#                    num_cpu before blaming the code)
#   make smoke     - the daemon's HTTP API under -race with GOMAXPROCS=2:
#                    every kind of the mixed workload (incl. the stateful
#                    behaviorspy/appfingerprint kinds) posted, long-polled
#                    to done and checked in /stats, on one instance and
#                    through a 2-instance cluster — the CI smoke that the
#                    service stack, router included, serves every kind end
#                    to end
#
# End-to-end throughput and latency of the daemon are measured over its
# HTTP API by bash scandbench/run.sh (see scandbench/README.md).

GO ?= go

.PHONY: all vet test test-race ci ci-smp ci-chaos ci-obs ci-cluster bench bench-all bench-compare smoke

all: vet test

ci: vet test test-race ci-smp ci-chaos ci-obs ci-cluster smoke bench-compare

# -count=1: the test cache does not key on GOMAXPROCS, so without it this
# tier would silently reuse the single-P results.
ci-smp:
	GOMAXPROCS=2 $(GO) test -count=1 ./internal/scan ./internal/core ./internal/service
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Temporal|BehaviorSpy|Fingerprint|Replay|Scan' ./internal/core ./internal/behavior ./internal/service

# The robustness gate: the fault package's schedule-determinism suite plus
# the service chaos matrix (sustained seeded faults over the full mix,
# trace determinism serialized and concurrent, drain-vs-fault races,
# panic/deadline isolation, quarantine, shed/long-poll HTTP paths), all
# under -race with two Ps so watchdogs, orphaned bodies and executors
# genuinely preempt each other.
ci-chaos:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/fault
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Chaos|Fault|Panic|Deadline|Retry|Drain|Quarantine|WaitCtx|Shed|Wait' ./internal/service

# The cluster gate: placement must be deterministic and bounded (ring
# suite), results must be placement-independent (N=4 parity with the
# single-scheduler path, stateful windows included), affinity must beat
# the shuffled baseline on the zipfian skew, one faulty instance must
# never degrade the others, and the rollup must account exactly — all
# under -race with two Ps so router, executors and scrapes preempt.
ci-cluster:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Ring|Cluster|Zipfian' ./internal/service

# The observability gate: instrumentation must be deterministic (identical
# seeds => byte-identical canonical span trees, even under chaos), correct
# under churn (Stats histograms survive eviction/TTL, scrapes race
# completions cleanly), and free when off (the zero-alloc guards on the
# nil-recorder path).
ci-obs:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/obs ./internal/trace
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'SpanTree|Trace|Metrics|StoreStats|ZeroAlloc' ./internal/service
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestDisabledPathZeroAlloc' ./internal/obs
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestSchedulerDisabledTraceZeroAlloc' ./internal/service

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) build ./...
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench: vet test
	./scripts/bench.sh 'BenchmarkScan|BenchmarkUserScan|BenchmarkTermSweep|BenchmarkBehaviorSpy|BenchmarkDefenseMatrix|BenchmarkExecMasked|BenchmarkProbeMapped'

bench-all: vet test
	./scripts/bench.sh '.'

bench-compare:
	./scripts/bench_compare.sh

smoke:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run TestHTTPServesDefaultMix ./internal/service

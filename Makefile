# Verification and benchmark targets. `make tier1` is the repository's
# baseline gate; `make ci` adds a gofmt check, vet and the race detector
# over the concurrent engine/experiment paths (tier-2 verify, see
# ROADMAP.md).

GO ?= go
FUZZTIME ?= 10s
FAULT_COVER_FLOOR ?= 80.0
SERVER_COVER_FLOOR ?= 80.0
STABILIZER_COVER_FLOOR ?= 85.0
STORE_COVER_FLOOR ?= 85.0
CHAOS_COVER_FLOOR ?= 85.0
COVER_TARGETS := cover-fault cover-server cover-stabilizer cover-store cover-chaos
# Allowed fractional throughput loss of the (disabled) tracing hooks vs
# the BENCH_engine.json snapshot.
TRACE_OVERHEAD_TOL ?= 0.01

.PHONY: fmt-check tier1 ci fuzz-smoke $(COVER_TARGETS) backend-diff e2e-check serve-smoke cluster-smoke crash-smoke chaos-smoke trace-overhead bench-engine bench-store bench bench-regress bench-baseline profile

tier1:
	$(GO) build ./...
	$(GO) test ./...

# Fails when gofmt would reformat a tracked Go file, and when listing the
# files or running gofmt fails. Listing files through git skips the
# untracked module cache under .bench_build/; the toolchain's own gofmt
# keeps the check on the build's Go version.
fmt-check:
	@gofiles="$$(git ls-files '*.go')" && [ -n "$$gofiles" ] || exit 1; \
	files="$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$gofiles)" || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# The two host-timing gates, trace-overhead and bench-regress, compare
# throughput with snapshots taken on another host, so they run last: a
# slower host fails them only after every other step has reported.
ci: fmt-check tier1
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./...
	$(MAKE) backend-diff
	$(MAKE) fuzz-smoke
	$(MAKE) $(COVER_TARGETS)
	$(MAKE) e2e-check
	$(MAKE) serve-smoke
	$(MAKE) cluster-smoke
	$(MAKE) crash-smoke
	$(MAKE) chaos-smoke
	$(MAKE) trace-overhead
	$(MAKE) bench-regress

# Short fuzzing pass over the pulse codecs, the compiled-vs-interpreted
# circuit differential, the QASM parse/serialize round trip, the NDJSON
# shot-event decoder, request admission and the journal's recovery scan
# (one -fuzz target per invocation, as the go tool requires).
fuzz-smoke:
	$(GO) test ./internal/pulse -run '^$$' -fuzz '^FuzzCodecRoundTripHuffman$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pulse -run '^$$' -fuzz '^FuzzCodecRoundTripRLE$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pulse -run '^$$' -fuzz '^FuzzCodecRoundTripCombined$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/circuit -run '^$$' -fuzz '^FuzzCompiledVsInterpreted$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/circuit -run '^$$' -fuzz '^FuzzQASMRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzBackendVsStateVector$$' -fuzztime $(FUZZTIME)
	$(GO) test ./api -run '^$$' -fuzz '^FuzzShotEvent$$' -fuzztime $(FUZZTIME)
	$(GO) test ./api -run '^$$' -fuzz '^FuzzValidateRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzRecoverSegment$$' -fuzztime $(FUZZTIME)

# Statement-coverage floors: cover-PKG tests ./internal/PKG and fails
# below PKG's floor — the fault-injection subsystem, the job service, the
# stabilizer-tableau backend, the durable job store (WAL + recovery) and
# the deterministic fault proxy.
cover-fault: COVER_FLOOR = $(FAULT_COVER_FLOOR)
cover-server: COVER_FLOOR = $(SERVER_COVER_FLOOR)
cover-stabilizer: COVER_FLOOR = $(STABILIZER_COVER_FLOOR)
cover-store: COVER_FLOOR = $(STORE_COVER_FLOOR)
cover-chaos: COVER_FLOOR = $(CHAOS_COVER_FLOOR)

$(COVER_TARGETS): cover-%:
	$(GO) test -coverprofile=/tmp/$*.cover ./internal/$*
	@$(GO) tool cover -func=/tmp/$*.cover | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); printf "internal/$* coverage: %s%% (floor %s%%)\n", $$3, floor; \
		if ($$3 + 0 < floor + 0) { print "coverage below floor"; exit 1 } }'

# Explicit run of the engine-level backend differential suite: both
# backends must produce bit-identical measurement records and counters
# for every Clifford workload at workers 1/4/8.
backend-diff:
	$(GO) test ./internal/core -run '^TestBackendDifferential' -v -count=1

# Correctness pass of the end-to-end benchmark harness: one short run per
# benchmark workload with tracing off. The harness exits non-zero when a
# job's event stream fails its checks or a served result differs from a
# direct library run of the same job.
e2e-check:
	@for w in sweep-small surface-d15 sharded-durable; do \
		echo "e2e-check: $$w"; \
		bash e2ebench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# End-to-end service gate: boot arteryd on an ephemeral port, drive it
# with the loadgen (concurrent clients, zero dropped jobs, every 429 must
# carry Retry-After, resubmission must reproduce result bytes), check
# /metrics, then SIGTERM and require a clean drain.
serve-smoke:
	bash scripts/serve_smoke.sh

# Multi-node gate: three backend arteryd nodes behind a scatter-gather
# coordinator, driven by the loadgen; the coordinator's result bytes
# must equal a single node's (bit-identical sharded merge), the shard
# counters must appear on /metrics, and a SIGTERM fleet shutdown must
# drain every process cleanly.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Durability gate: kill -9 an arteryd mid-job, restart it on the same
# data dir, and require the recovered result and event stream to be
# byte-identical to an uninterrupted clean run; then the same for a
# journal-backed coordinator whose backend is killed and revived.
crash-smoke:
	bash scripts/crash_smoke.sh

# Resilience gate: three backends each behind a deterministic chaos
# proxy at escalating fault rates, a coordinator with hedging and
# breakers on top, loadgen through the chaos, results diffed against a
# clean direct run (must be byte-identical), then a clean fleet drain.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Gate: the tracing layer's disabled hooks must cost < 1% throughput vs
# the BENCH_engine.json snapshot, and enabling tracing must not change
# RunResult. Regenerate the snapshot on this machine (`make bench-engine`)
# before relying on the comparison.
trace-overhead:
	$(GO) run ./cmd/artery-bench -trace-overhead BENCH_engine.json -tolerance $(TRACE_OVERHEAD_TOL)

# Gate: the compiled-execution micro-benchmarks (kernels, fusion, pulse
# synthesis, fused classification) must stay within BENCH_REGRESS_TOL of
# the checked-in baseline, and allocation-free paths must stay that way.
# Uses benchstat for reporting when installed; pass/fail comes from the
# script's built-in comparator. Refresh with `make bench-baseline`.
bench-regress:
	bash scripts/bench_regress.sh

# Re-measure the micro-benchmark baseline on this machine.
bench-baseline:
	bash scripts/bench_regress.sh --update

# CPU + heap profile of the engine hot path (see scripts/profile.sh).
profile:
	bash scripts/profile.sh

# Regenerate the engine-throughput snapshot (BENCH_engine.json).
bench-engine:
	$(GO) run ./cmd/artery-bench -engine-bench BENCH_engine.json -shots 300

# Regenerate the durable-store journal snapshot (BENCH_store.json).
bench-store:
	$(GO) run ./cmd/artery-bench -store-bench BENCH_store.json

# Full evaluation benchmarks (tables/figures + engine throughput).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

#!/usr/bin/env bash
# bench_regress.sh — micro-benchmark regression gate for the compiled
# execution hot paths (`make bench-regress`).
#
# Runs the short-mode micro-benchmarks (1Q/2Q kernels, fused-vs-unfused
# chains, state readbacks, pulse synthesis, fused classification, one
# readout-channel calibration, and the stabilizer-tableau hot paths: CNOT
# row update, measurement collapse, d=15 surface memory cycle) and
# compares them against the checked-in baseline, scripts/bench_baseline.txt.
# The gate fails when
#
#   - any baseline benchmark regresses in ns/op by more than
#     BENCH_REGRESS_TOL (fractional, default 0.50 — wall-clock noise on
#     shared CI machines makes a tighter gate flaky),
#   - any benchmark that was allocation-free in the baseline starts
#     allocating (allocs/op is noise-free, so it is gated exactly), or
#   - a baseline benchmark disappears from the run.
#
# Each benchmark runs BENCH_REGRESS_COUNT times (default 3) and the gate
# compares the per-benchmark minimum — the standard way to strip scheduler
# noise from a shared machine.
#
# When benchstat is on PATH its delta table is printed as a human-readable
# report, but pass/fail always comes from the built-in comparator so the
# gate works on machines without benchstat (this container has none).
#
# Usage:
#   scripts/bench_regress.sh            # gate against the baseline
#   scripts/bench_regress.sh --update   # re-measure and rewrite the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
BASE=scripts/bench_baseline.txt
TOL="${BENCH_REGRESS_TOL:-0.50}"
COUNT="${BENCH_REGRESS_COUNT:-3}"
TIME="${BENCH_REGRESS_TIME:-0.1s}"
PKGS=(./internal/quantum ./internal/readout ./internal/stabilizer)
BENCH='^(BenchmarkApply1Q|BenchmarkApply2Q|BenchmarkFusedVsUnfused|BenchmarkStateReadbacks|BenchmarkReadoutPulseGen|BenchmarkClassifyFullAndBits|BenchmarkChannelRead|BenchmarkNewChannel|BenchmarkTableauApplyCNOT|BenchmarkTableauMeasureRow|BenchmarkTableauMemoryCycleD15)$'

run_bench() {
    "$GO" test "${PKGS[@]}" -run '^$' -bench "$BENCH" \
        -benchtime "$TIME" -count "$COUNT" -benchmem
}

if [[ "${1:-}" == "--update" ]]; then
    echo "bench-regress: re-measuring baseline (count=$COUNT, benchtime=$TIME)"
    run_bench | tee "$BASE"
    echo "bench-regress: baseline written to $BASE"
    exit 0
fi

if [[ ! -f "$BASE" ]]; then
    echo "bench-regress: no baseline at $BASE (run scripts/bench_regress.sh --update)" >&2
    exit 1
fi

NEW="$(mktemp "${TMPDIR:-/tmp}/bench_regress.XXXXXX")"
trap 'rm -f "$NEW"' EXIT
echo "bench-regress: measuring (count=$COUNT, benchtime=$TIME, tol=$TOL)"
run_bench | tee "$NEW"

if command -v benchstat >/dev/null 2>&1; then
    echo
    benchstat "$BASE" "$NEW" || true
fi

echo
# Built-in comparator: min ns/op and min allocs/op per benchmark name.
awk -v tol="$TOL" -f /dev/stdin "$BASE" "$NEW" <<'AWK'
function key(name) { sub(/-[0-9]+$/, "", name); return name }  # strip -GOMAXPROCS
FNR == 1 { file++ }
/^Benchmark/ && NF >= 3 {
    k = key($1)
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (file == 1) {
        if (!(k in oldNs) || ns + 0 < oldNs[k] + 0) oldNs[k] = ns
        if (allocs != "" && (!(k in oldAl) || allocs + 0 < oldAl[k] + 0)) oldAl[k] = allocs
    } else {
        seen[k] = 1
        if (!(k in newNs) || ns + 0 < newNs[k] + 0) newNs[k] = ns
        if (allocs != "" && (!(k in newAl) || allocs + 0 < newAl[k] + 0)) newAl[k] = allocs
    }
}
END {
    fail = 0
    for (k in oldNs) {
        if (!(k in seen)) {
            printf "FAIL %-50s missing from the new run\n", k
            fail = 1
            continue
        }
        delta = newNs[k] / oldNs[k] - 1
        status = "ok"
        if (delta > tol) { status = "FAIL"; fail = 1 }
        printf "%-4s %-50s %10.1f -> %10.1f ns/op  %+7.1f%%\n", status, k, oldNs[k], newNs[k], 100 * delta
        if ((k in oldAl) && oldAl[k] + 0 == 0 && (k in newAl) && newAl[k] + 0 > 0) {
            printf "FAIL %-50s was allocation-free, now %s allocs/op\n", k, newAl[k]
            fail = 1
        }
    }
    if (fail) {
        printf "bench-regress: regression beyond %.0f%% (or new allocations) — see FAIL lines\n", 100 * tol
        exit 1
    }
    print "bench-regress: all benchmarks within tolerance"
}
AWK

#!/bin/sh
# bench.sh [-cpuprofile file] [-memprofile file] [pattern] — run the
# benchmark suite across the GOMAXPROCS scaling matrix and append structured
# results to BENCH_scan.json (one JSON object per run per GOMAXPROCS level,
# newline-delimited) so the performance trajectory is tracked across PRs.
#
# The matrix always contains a GOMAXPROCS=1 row (continuity with the
# single-core PR containers every prior entry was recorded on) and, when the
# host has more cores, a GOMAXPROCS=$(nproc) row — the row that can actually
# show multi-core scaling of the sharded sweeps. Each row records its own
# num_cpu/gomaxprocs so bench_compare.sh only diffs like against like.
#
# -cpuprofile/-memprofile pass through to `go test`; with a multi-row matrix
# the filenames get a ".cN" suffix per GOMAXPROCS level so the rows don't
# overwrite each other's profiles.
#
# Pattern defaults to the scan-engine benchmarks; pass '.' for the full
# suite (minutes).
set -eu

cpuprofile=""
memprofile=""
while [ $# -gt 0 ]; do
    case "$1" in
    -cpuprofile) cpuprofile="$2"; shift 2 ;;
    -memprofile) memprofile="$2"; shift 2 ;;
    *) break ;;
    esac
done

pattern="${1:-BenchmarkScan|BenchmarkUserScan|BenchmarkTermSweep|BenchmarkExecMasked|BenchmarkProbeMapped|BenchmarkBehaviorSpy|BenchmarkDefenseMatrix}"
out="BENCH_scan.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Host shape: worker-scaling numbers are meaningless without knowing how
# many cores the run actually had (PR containers are often single-core, so
# flat scaling there is expected, not a regression).
num_cpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

# Scaling matrix: 1 core always; all cores when the host has more than one.
matrix="1"
if [ "$num_cpu" -gt 1 ]; then
    matrix="1 $num_cpu"
fi

# Pre-flight: numbers from a racy engine are worthless. The race detector
# over the full tree catches replica-state leaks between pooled scans and
# engine merge races before anything is recorded.
echo "pre-flight: go test -race ./..." >&2
go test -race ./...

total=0
for gmp in $matrix; do
    profflags=""
    suffix=""
    if [ "$matrix" != "1" ]; then suffix=".c$gmp"; fi
    if [ -n "$cpuprofile" ]; then profflags="$profflags -cpuprofile $cpuprofile$suffix"; fi
    if [ -n "$memprofile" ]; then profflags="$profflags -memprofile $memprofile$suffix"; fi

    echo "bench: GOMAXPROCS=$gmp (of $num_cpu cpus)" >&2
    # shellcheck disable=SC2086 # profflags is intentionally word-split
    GOMAXPROCS="$gmp" go test -bench="$pattern" -benchmem -run='^$' $profflags . | tee "$raw"

    # Parse `BenchmarkName  N  123 ns/op  [value unit]...` lines into JSON.
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v pattern="$pattern" \
        -v num_cpu="$num_cpu" -v gomaxprocs="$gmp" '
    BEGIN { n = 0 }
    /^Benchmark/ {
        name = $1; iters = $2
        metrics = ""
        for (i = 3; i + 1 <= NF; i += 2) {
            val = $i; unit = $(i + 1)
            gsub(/[^A-Za-z0-9_\/%.-]/, "_", unit)
            if (metrics != "") metrics = metrics ","
            metrics = metrics "\"" unit "\":" val
        }
        if (n > 0) benches = benches ","
        benches = benches sprintf("{\"name\":\"%s\",\"iterations\":%s,%s}", name, iters, metrics)
        n++
    }
    END {
        printf "{\"date\":\"%s\",\"pattern\":\"%s\",\"num_cpu\":%d,\"gomaxprocs\":%d,\"benchmarks\":[%s]}\n", \
            date, pattern, num_cpu, gomaxprocs, benches
    }' "$raw" >> "$out"

    total=$((total + $(grep -c '^Benchmark' "$raw" || true)))
done

echo "appended $total benchmark results to $out ($(echo $matrix | wc -w) GOMAXPROCS level(s))"

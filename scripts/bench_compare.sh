#!/bin/sh
# bench_compare.sh [file] — diff the latest entry of BENCH_scan.json
# (newline-delimited JSON, one object per bench.sh run) against the most
# recent PREVIOUS entry recorded on the same host shape (matching num_cpu
# AND gomaxprocs), per benchmark, and warn when any throughput rate —
# probes/s (probe benchmarks), jobs/s (service/load benchmarks), ticks/s
# (temporal benchmarks), or session_hit_rate (the load/cluster cache
# affinity metric) — dropped by more than 10%.
#
# Since bench.sh records one entry per GOMAXPROCS level of its scaling
# matrix, comparing the raw last two entries would diff a multi-core row
# against a 1-core row and report the host, not the code. Matching on
# num_cpu/gomaxprocs keeps the trajectory apples-to-apples. Exit status is
# 0 unless STRICT=1 is set, in which case any real regression fails the
# run.
set -eu

file="${1:-BENCH_scan.json}"
if [ ! -f "$file" ]; then
    echo "bench_compare: $file not found (run make bench first)" >&2
    exit 1
fi
# Count entries, not raw newlines: a final line without a trailing newline
# is still an entry, and blank lines are not.
entries="$(grep -c '{' "$file" || true)"
if [ "$entries" -lt 2 ]; then
    echo "bench_compare: only $entries run(s) recorded in $file — need two to compare (run make bench again)" >&2
    exit 0
fi

# Pull one scalar field out of a JSON object line (shell-side twin of the
# awk field() below).
jfield() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\":\([^,}\"]*\).*/\1/p"
}

latest="$(grep '{' "$file" | tail -n 1)"
want_cpu="$(jfield "$latest" num_cpu)"
want_gmp="$(jfield "$latest" gomaxprocs)"

# Most recent earlier entry with the same host shape AND at least one
# benchmark name in common with the latest entry. Name matching matters
# because the file interleaves series (bench.sh runs with different
# patterns, and the LoadMixed/LoadCluster history rows): the entry adjacent
# to the latest may belong to another series, and diffing disjoint sets
# would silently compare nothing — each series must find its own
# predecessor.
names_of() { printf '%s\n' "$1" | grep -o '"name":"[^"]*"' | sort -u; }
latest_names="$(names_of "$latest")"
prev=""
while IFS= read -r cand; do
    [ -n "$cand" ] || continue
    if [ -n "$(printf '%s\n%s\n' "$latest_names" "$(names_of "$cand")" | sort | uniq -d)" ]; then
        prev="$cand"
        break
    fi
done <<EOF
$(grep '{' "$file" | sed '$d' | grep -F "\"num_cpu\":$want_cpu,\"gomaxprocs\":$want_gmp," | sed -n '1!G;h;$p' || true)
EOF
if [ -z "$prev" ]; then
    echo "bench_compare: no earlier entry matches the latest host shape (num_cpu=$want_cpu gomaxprocs=$want_gmp) and benchmark set — nothing comparable yet"
    exit 0
fi

printf '%s\n%s\n' "$prev" "$latest" | awk -v strict="${STRICT:-0}" '
# Pull one scalar field out of a JSON object string.
function field(s, key,    re, v) {
    re = "\"" key "\":[^,}]*"
    if (match(s, re) == 0) return ""
    v = substr(s, RSTART, RLENGTH)
    sub("\"" key "\":", "", v)
    gsub(/"/, "", v)
    return v
}
# Every rate the trajectory file records: probe benchmarks report
# probes/s, service and load benchmarks jobs/s, temporal benchmarks
# ticks/s, and load/cluster entries session_hit_rate (cache affinity —
# the metric the cluster router exists to raise). Each is compared
# independently per benchmark name.
BEGIN { metrics[1] = "probes/s"; metrics[2] = "jobs/s"; metrics[3] = "ticks/s"; metrics[4] = "session_hit_rate"; nmetrics = 4 }
{
    line[NR] = $0
    n = split($0, parts, /\{"name":/)
    for (i = 2; i <= n; i++) {
        obj = parts[i]
        name = obj
        sub(/^"/, "", name)
        sub(/".*/, "", name) # cut at the closing quote of the name
        for (k = 1; k <= nmetrics; k++) {
            val = field(obj, metrics[k])
            if (val != "") rate[NR, metrics[k], name] = val
        }
        ns = field(obj, "ns/op")
        if (ns != "") nsop[NR, name] = ns
        if (NR == 2) names[name] = 1
    }
    cpu[NR] = field($0, "num_cpu")
    gmp[NR] = field($0, "gomaxprocs")
    date[NR] = field($0, "date")
}
END {
    printf "comparing %s -> %s (matched host shape: cpus=%s gomaxprocs=%s)\n", date[1], date[2], cpu[2], gmp[2]
    worst = 0
    compared = 0
    for (name in names) {
        for (k = 1; k <= nmetrics; k++) {
            metric = metrics[k]
            if (!((1, metric, name) in rate) || rate[1, metric, name] == 0) continue
            if (!((2, metric, name) in rate)) continue
            old = rate[1, metric, name]; new = rate[2, metric, name]
            pct = 100 * (new - old) / old
            mark = ""
            if (pct < -10) { mark = "  <-- REGRESSION"; bad++ }
            if (pct < worst) worst = pct
            compared++
            # Hit rates live in [0,1]; whole-number formatting would
            # round them to 0/1.
            fmt = "  %-40s %12.0f -> %12.0f %-8s (%+6.1f%%)%s\n"
            if (metric == "session_hit_rate") fmt = "  %-40s %12.3f -> %12.3f %-8s (%+6.1f%%)%s\n"
            printf fmt, name, old, new, metric, pct, mark
        }
    }
    if (compared == 0) {
        # Disjoint benchmark sets: e.g. a scand-load throughput entry next
        # to a probe-bench entry. Nothing comparable is not a regression.
        print "bench_compare: the last two runs share no throughput benchmarks (disjoint sets) — nothing to compare"
        exit 0
    }
    if (bad > 0) {
        printf "bench_compare: %d rate(s) regressed >10%% across probes/s, jobs/s, ticks/s, session_hit_rate (worst %.1f%%)\n", bad, worst
        if (cpu[1] != cpu[2])
            printf "bench_compare: note: core count changed (%s -> %s); host change, not code?\n", cpu[1], cpu[2]
        if (strict == 1) exit 1
    } else {
        print "bench_compare: no regression >10% (probes/s, jobs/s, ticks/s, session_hit_rate)"
    }
}'

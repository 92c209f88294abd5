#!/bin/sh
# bench.sh — benchmark-regression rail.
#
# Runs the guarded throughput benchmarks (BenchmarkStream, BenchmarkDFA,
# BenchmarkAOT, BenchmarkShardedPipeline, BenchmarkPipelineOverload,
# BenchmarkTenantGrid, BenchmarkServeTCP),
# compares per-benchmark median MB/s against the
# committed BENCH_baseline.json, and fails when any benchmark drops below
# (100 - tolerance_pct)% of its baseline median. When benchstat is on PATH
# it also prints a proper statistical comparison; the rail itself needs
# only awk, so CI boxes without benchstat still get the gate.
#
# Usage:
#   scripts/bench.sh                 run + compare against baseline
#   scripts/bench.sh -update         run + rewrite the baseline's raw samples and
#                                    its date, nproc, gomaxprocs and go_version
#   scripts/bench.sh -cpuprofile     also capture a CPU profile and print the
#                                    top 10 cumulative entries
#   scripts/bench.sh -memprofile     same for the allocation profile
#
# Profile flags compose with each other and with -update; profiles land in
# $BENCH_OUT/cpu.pprof and $BENCH_OUT/mem.pprof for deeper digging with
# `go tool pprof`.
#
# Environment:
#   BENCH_COUNT      samples per benchmark   (default: count from baseline)
#   BENCH_TIME       -benchtime per sample   (default: benchtime from baseline)
#   BENCH_TOLERANCE  allowed regression in % (default: tolerance_pct from baseline)
#   BENCH_OUT        report directory        (default: bench_out)

set -eu
cd "$(dirname "$0")/.."

BASE=BENCH_baseline.json
OUT=${BENCH_OUT:-bench_out}
PATTERN='^(BenchmarkStream|BenchmarkDFA|BenchmarkDFASparse|BenchmarkAOT|BenchmarkAOTSparse|BenchmarkShardedPipeline|BenchmarkPipelineOverload|BenchmarkTenantGrid|BenchmarkServeTCP)$'

UPDATE=0
CPUPROF=0
MEMPROF=0
for arg in "$@"; do
    case "$arg" in
    -update)     UPDATE=1 ;;
    -cpuprofile) CPUPROF=1 ;;
    -memprofile) MEMPROF=1 ;;
    *) echo "bench.sh: unknown flag $arg" >&2; exit 2 ;;
    esac
done

[ -f "$BASE" ] || { echo "bench.sh: $BASE not found" >&2; exit 2; }
mkdir -p "$OUT"

json_field() {
    awk -F'"' -v k="$1" '$2 == k { sub(/^[^:]*:[[:space:]]*/, ""); sub(/,[[:space:]]*$/, ""); gsub(/"/, ""); print; exit }' "$BASE"
}

COUNT=${BENCH_COUNT:-$(json_field count)}
BENCHTIME=${BENCH_TIME:-$(json_field benchtime)}
TOL=${BENCH_TOLERANCE:-$(json_field tolerance_pct)}

PROFILE_FLAGS=""
[ "$CPUPROF" -eq 1 ] && PROFILE_FLAGS="$PROFILE_FLAGS -cpuprofile $OUT/cpu.pprof"
[ "$MEMPROF" -eq 1 ] && PROFILE_FLAGS="$PROFILE_FLAGS -memprofile $OUT/mem.pprof"

echo "== running benchmarks ($COUNT x $BENCHTIME per benchmark)"
# shellcheck disable=SC2086 # PROFILE_FLAGS is deliberately word-split
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" $PROFILE_FLAGS . | tee "$OUT/current.txt"

# pprof_top <file> <label> — top-10 cumulative entries of a profile.
pprof_top() {
    [ -f "$1" ] || { echo "bench.sh: profile $1 missing" >&2; return 1; }
    echo "== $2 profile: top 10 cumulative ($1)"
    go tool pprof -top -cum -nodecount=10 "$1" 2>/dev/null |
        awk '/^ *flat +flat%/ { hdr = 1 } hdr' | tee "$OUT/$2.top10.txt"
}

[ "$CPUPROF" -eq 1 ] && pprof_top "$OUT/cpu.pprof" cpu
[ "$MEMPROF" -eq 1 ] && pprof_top "$OUT/mem.pprof" mem

# Extract the baseline's verbatim benchmark lines from the JSON raw array.
awk -F'"' '/^[[:space:]]*"Benchmark/ { print $2 }' "$BASE" > "$OUT/baseline.txt"

if [ "$UPDATE" -eq 1 ]; then
    echo "== rewriting $BASE raw samples and machine shape from this run"
    tmp=$(mktemp)
    # go test suffixes benchmark names with -GOMAXPROCS unless it is 1.
    GMP=$(awk '/^Benchmark/ { print match($1, /-[0-9]+$/) ? substr($1, RSTART + 1) : 1; exit }' "$OUT/current.txt")
    awk -v cur="$OUT/current.txt" -v nproc="$(getconf _NPROCESSORS_ONLN)" -v gmp="$GMP" \
        -v gover="$(go env GOVERSION)" -v today="$(date +%Y-%m-%d)" '
        /^[[:space:]]*"(nproc|gomaxprocs|go_version)":/ { next }
        /^[[:space:]]*"date":/ {
            printf "  \"date\": \"%s\",\n  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"go_version\": \"%s\",\n", today, nproc, gmp, gover
            next
        }
        /^[[:space:]]*"raw": \[/ {
            print
            n = 0
            while ((getline line < cur) > 0)
                if (line ~ /^Benchmark/) {
                    gsub(/\t/, " ", line); gsub(/  +/, " ", line)
                    lines[n++] = line
                }
            for (i = 0; i < n; i++)
                printf "    \"%s\"%s\n", lines[i], (i < n-1 ? "," : "")
            skip = 1; next
        }
        skip && /^[[:space:]]*\]/ { skip = 0 }
        !skip { print }
    ' "$BASE" > "$tmp" && mv "$tmp" "$BASE"
    echo "baseline updated; commit $BASE"
    exit 0
fi

if command -v benchstat >/dev/null 2>&1; then
    echo "== benchstat baseline vs current"
    benchstat "$OUT/baseline.txt" "$OUT/current.txt" | tee "$OUT/benchstat.txt" || true
else
    echo "== benchstat not installed; using built-in median gate only"
fi

# Median-MB/s gate: mbps <file> — prints "name median" per benchmark. A
# trailing -N is the GOMAXPROCS suffix only when every line shares it;
# sub-benchmark names like shards-8 keep theirs.
mbps() {
    awk '
        /^Benchmark/ && / MB\/s/ {
            rows++
            rowname[rows] = $1
            for (i = 2; i <= NF; i++)
                if ($i == "MB/s") rowval[rows] = $(i-1)
            sfx = match($1, /-[0-9]+$/) ? substr($1, RSTART) : ""
            if (rows == 1) common = sfx
            else if (sfx != common) common = ""
        }
        END {
            for (r = 1; r <= rows; r++) {
                name = rowname[r]
                if (common != "")
                    name = substr(name, 1, length(name) - length(common))
                vals[name] = vals[name] " " rowval[r]
            }
            for (name in vals) {
                n = split(vals[name], a, " ")
                # insertion sort; n is tiny
                for (i = 2; i <= n; i++) {
                    x = a[i]
                    for (j = i - 1; j >= 1 && a[j] > x + 0; j--) a[j+1] = a[j]
                    a[j+1] = x
                }
                m = (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
                printf "%s %.2f\n", name, m
            }
        }
    ' "$1" | sort
}

mbps "$OUT/baseline.txt" > "$OUT/baseline.medians"
mbps "$OUT/current.txt" > "$OUT/current.medians"

echo "== median MB/s gate (fail below $((100 - TOL))% of baseline)"
fail=0
while read -r name base; do
    cur=$(awk -v n="$name" '$1 == n { print $2 }' "$OUT/current.medians")
    if [ -z "$cur" ]; then
        echo "MISSING  $name (baseline $base MB/s, no current sample)"
        fail=1
        continue
    fi
    verdict=$(awk -v b="$base" -v c="$cur" -v tol="$TOL" '
        BEGIN { print (c >= b * (100 - tol) / 100) ? "ok" : "REGRESSED" }')
    printf '%-9s %-45s %8.2f -> %8.2f MB/s\n' "$verdict" "$name" "$base" "$cur"
    [ "$verdict" = "ok" ] || fail=1
done < "$OUT/baseline.medians" | tee "$OUT/report.txt"

grep -Eq 'REGRESSED|MISSING' "$OUT/report.txt" && fail=1
if [ "$fail" -ne 0 ]; then
    echo "bench.sh: benchmark regression detected (see $OUT/report.txt)" >&2
    exit 1
fi
echo "bench.sh: no regression (report in $OUT/report.txt)"

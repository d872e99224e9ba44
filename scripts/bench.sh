#!/usr/bin/env bash
# Benchmark runner with a machine-readable record: runs the root-package
# benchmark suite with -benchmem and converts the output into
# BENCH_engine.json (schema spreadbench-bench/v2: name, iterations, ns/op,
# B/op, allocs/op, samples per benchmark). Full runs repeat every
# benchmark (-count=3) and keep the min-of-N figures — the noise-robust
# statistic the benchdiff regression gate compares — with the real
# iteration count of the winning run. A full-suite run (neither -quick nor
# a -bench filter) is also appended to the tracked BENCH_history.jsonl
# (schema spreadbench-perfbase/v1), so the repo keeps a perf trajectory of
# comparable records while smoke and filtered runs leave the checkout
# clean. Both files are validated with cmd/obscheck before the script
# exits, so a format drift fails here rather than corrupting the record.
#
# Usage: bench.sh [-quick] [go test -bench args...]
#   -quick    one iteration per benchmark, min-of-3 (-benchtime=1x
#             -count=3); the CI smoke mode. Even smoke records keep the
#             min-of-N discipline — a single sample can catch a one-off
#             scheduler spike and poison the regression gate
#
# Environment:
#   BENCH_LABEL   history entry label (default: git short hash)
#
# Examples:
#   bench.sh                         full run: -bench=. -count=3, min-of-3
#   bench.sh -quick                  smoke: every benchmark once
#   bench.sh -bench=BenchmarkFig3    just the sort benchmarks
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_engine.json"
hist="BENCH_history.jsonl"
# -cpu 1 keeps benchmark names free of the -N GOMAXPROCS suffix, so they
# match BENCH_baseline.json's rows (recorded the same way) on any machine.
args=(-bench=. -benchmem -run '^$' -cpu 1)
full=1
if [ "${1:-}" = "-quick" ]; then
    shift
    full=0
    args+=(-benchtime=1x -count=3)
else
    args+=(-count=3)
fi
for a in "$@"; do
    case "$a" in -bench | -bench=*) full=0 ;; esac
done
if [ "$#" -gt 0 ]; then
    args+=("$@")
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== go test ${args[*]} =="
go test "${args[@]}" . | tee "$raw"

# Benchmark lines look like:
#   BenchmarkFig3Sort/excel-8  10  1234 ns/op  99 sim-ns/op  456 B/op  7 allocs/op
# Fields after the iteration count come in value/unit pairs. Under -count=N
# the same benchmark repeats N times; keep the run with the smallest ns/op
# (min-of-N discards scheduling noise, which is strictly additive) and
# record how many samples it was minimized over. Output order follows each
# benchmark's first appearance, so the record is deterministic.
awk '
    /^Benchmark/ {
        name = $1; iters = $2
        ns = 0; bytes = 0; allocs = 0
        for (i = 3; i < NF; i += 2) {
            if ($(i + 1) == "ns/op") ns = $i
            if ($(i + 1) == "B/op") bytes = $i
            if ($(i + 1) == "allocs/op") allocs = $i
        }
        if (!(name in count)) order[++n] = name
        count[name]++
        if (count[name] == 1 || ns + 0 < min_ns[name] + 0) {
            min_ns[name] = ns; min_iters[name] = iters
            min_bytes[name] = bytes; min_allocs[name] = allocs
        }
    }
    END {
        printf "{\n  \"schema\": \"spreadbench-bench/v2\",\n  \"benchmarks\": [\n"
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (i > 1) printf ",\n"
            printf "    {\"name\": \"%s\", \"iterations\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"samples\": %d}", \
                name, min_iters[name], min_ns[name], min_bytes[name], min_allocs[name], count[name]
        }
        printf "\n  ]\n}\n"
    }
' "$raw" >"$out"

if [ "$full" = 1 ]; then
    label="${BENCH_LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
    printf '{"schema":"spreadbench-perfbase/v1","unix_time":%s,"label":"%s","bench":%s}\n' \
        "$(date +%s)" "$label" "$(tr -d '\n' <"$out")" >>"$hist"
fi

echo "== obscheck =="
go run ./cmd/obscheck -bench "$out" -history "$hist"

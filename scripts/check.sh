#!/usr/bin/env bash
# Tier-1 quality gate: formatting, vet, the repository's custom analyzers
# (internal/lint/cmd/sheetlint: rangemap + floatcmp + sortedout + globalmut +
# lockcheck + latticecheck + returncheck), build, and the full test suite
# under the race detector. CI and pre-commit both run exactly this script.
#
# Usage: check.sh [stage]
#   lint       formatting, vet, sheetlint, build — the fast static half
#   race       the full test suite under the race detector, plus a stress
#              loop over the recalculation executor's concurrent entry
#              points (parallel, staged, async) and a repeat loop over the
#              B+-tree suite (insert/remove invariants)
#   bench      bench-smoke: one-iteration benchmark subset into
#              BENCH_engine.json plus a tiny traced runner pass, both
#              validated with cmd/obscheck
#   interfere  parallel-safety surface: sheetcli interfere goldens plus the
#              concurrency-readiness lints over the parallel packages
#   absint     value-analysis surface: the abstract interpreter's soundness
#              and certificate suites, its kind/error projection cases,
#              the engine's certificate-consumption differential, the
#              sheetcli absint, typecheck and analyze goldens, the
#              analyzer's absint-backed rules, and the latticecheck
#              exhaustiveness lint over the domain packages
#   plan       cost-based planner surface: the plan package suite, the
#              engine's plan-consumption gates (prediction-within-2x,
#              never-loses-to-fixed, rebuild discipline, certification),
#              the sheetcli plan goldens, the analyzer tests that rest on
#              plan's site classifier and lookup pricing, the plan-quality
#              experiment at a smoke size, and the returncheck write-error
#              lint over the writer packages
#   fuzz       differential fuzz smoke: the fuzzdiff suite (every workload
#              x2 sizes, the mutation-catch test, and the checked-in
#              regression seed corpus), the engine's derived-state
#              coherence oracle over generated and delete-heavy op streams,
#              plus the trace-language parser seeds, all replayed
#              deterministically — no -fuzz exploration; the nightly
#              workflow owns the time budget
#   benchdiff  bench regression gate: diff the fresh bench-smoke record
#              against the committed BENCH_baseline.json with
#              cmd/benchdiff. Smoke timings are min-of-3 single
#              iterations and still swing severalfold under machine
#              load, so the ns/op gate
#              only flags 5x+ blowups (the asymptotic-regression
#              signature) over a 1 ms floor; allocations are
#              deterministic up to map-growth timing and held within 1% —
#              that is the bar that travels across machines
#   all        every stage (the default)
#
# CI runs the stages as separate jobs so the static half reports in
# seconds while the race suite grinds; with no argument this script is the
# same gate it has always been.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
lint | race | bench | interfere | absint | plan | fuzz | benchdiff | all) ;;
*)
    echo "usage: $0 [lint|race|bench|interfere|absint|plan|fuzz|benchdiff|all]" >&2
    exit 2
    ;;
esac

if [ "$stage" = "lint" ] || [ "$stage" = "all" ]; then
    echo "== gofmt =="
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi

    echo "== go vet =="
    go vet ./...

    echo "== sheetlint (rangemap + floatcmp + sortedout + globalmut + lockcheck + latticecheck + returncheck) =="
    go run ./internal/lint/cmd/sheetlint

    echo "== go build =="
    go build ./...
fi

if [ "$stage" = "race" ] || [ "$stage" = "all" ]; then
    echo "== go test -race =="
    go test -race ./...

    echo "== recalculation executor stress: parallel, staged, async (-race, 5x) =="
    go test -race -count=5 -run 'Parallel|Staged|Async' ./internal/engine

    echo "== B+-tree insert/remove invariants (200x) =="
    go test -count=200 -run BTree ./internal/index
fi

if [ "$stage" = "interfere" ] || [ "$stage" = "all" ]; then
    echo "== sheetcli interfere goldens =="
    go test ./cmd/sheetcli -run Interfere

    echo "== concurrency-readiness lints (globalmut + lockcheck) =="
    go run ./internal/lint/cmd/sheetlint -only globalmut \
        internal/engine internal/regions internal/obs internal/interfere
    go run ./internal/lint/cmd/sheetlint -only lockcheck \
        internal/engine internal/regions internal/obs internal/interfere
fi

if [ "$stage" = "absint" ] || [ "$stage" = "all" ]; then
    echo "== abstract-interpretation soundness + certificates + kind/error projection =="
    go test -count=1 ./internal/absint ./internal/typecheck

    echo "== engine certificate consumption (differential + meters) =="
    go test -count=1 -run 'ValueCert|TypedColumns' ./internal/engine

    echo "== sheetcli absint/typecheck/analyze goldens + absint-backed analyzer rules =="
    go test ./cmd/sheetcli -run 'Absint|Typecheck|AnalyzeGolden'
    go test ./internal/analyze -run 'Lookup|EstEval|ErrorBlast|Coercion'

    echo "== latticecheck exhaustiveness lint (domain packages) =="
    go run ./internal/lint/cmd/sheetlint -only latticecheck \
        internal/absint internal/typecheck
fi

if [ "$stage" = "plan" ] || [ "$stage" = "all" ]; then
    echo "== plan package (statistics + cost model + certification) =="
    go test -count=1 ./internal/plan

    echo "== engine plan consumption (prediction, plan-quality, rebuild) =="
    go test -count=1 -short -run 'Plan' ./internal/engine

    echo "== sheetcli plan goldens =="
    go test ./cmd/sheetcli -run Plan

    echo "== analyzer on plan's site classifier and lookup pricing =="
    go test -count=1 ./internal/analyze -run 'Lookup|EstEval|Shared|Pin'

    echo "== plan-quality experiment (smoke size) =="
    go test -count=1 -run RunPlanQuality ./internal/core

    echo "== returncheck write-error lint (writer packages) =="
    go run ./internal/lint/cmd/sheetlint -only returncheck
fi

if [ "$stage" = "fuzz" ] || [ "$stage" = "all" ]; then
    echo "== fuzzdiff differential suite + regression seed corpus =="
    go test -count=1 ./internal/fuzzdiff

    echo "== derived-state coherence oracle (every op, optimized + planned) =="
    go test -count=1 -run 'DerivedState' ./internal/engine

    echo "== trace-language parser fuzz seeds =="
    go test -count=1 -run 'FuzzTraceScript' ./cmd/sheetcli
fi

if [ "$stage" = "bench" ] || [ "$stage" = "all" ]; then
    echo "== bench smoke (BENCH_engine.json) =="
    ./scripts/bench.sh -quick \
        -bench='BenchmarkFormulaCompile|BenchmarkGridScan|BenchmarkFig13Incremental|BenchmarkInterferenceAnalysis|BenchmarkCertifiedLookupMatch|BenchmarkPlanSelection|BenchmarkPlanRebuildAfterEdit|BenchmarkRowEditPair|BenchmarkSortPair|BenchmarkCrossSheetEdit|BenchmarkCrossSheetLookupEdit'

    echo "== runner observability smoke (sidecar + trace) =="
    smokedir=$(mktemp -d)
    trap 'rm -rf "$smokedir"' EXIT
    go run ./cmd/oot -exp fig13-incremental -trials 1 \
        -maxrows 300 -maxrows-web 300 -systems excel -quiet \
        -sidecar "$smokedir/smoke.obs.json" -trace "$smokedir/smoke.trace.json" \
        >/dev/null
    go run ./cmd/obscheck \
        -sidecar "$smokedir/smoke.obs.json" -trace "$smokedir/smoke.trace.json"
fi

if [ "$stage" = "benchdiff" ] || [ "$stage" = "all" ]; then
    echo "== bench regression gate (vs BENCH_baseline.json) =="
    if [ ! -f BENCH_baseline.json ]; then
        echo "BENCH_baseline.json missing; regenerate it with" >&2
        echo "  ./scripts/bench.sh -quick -bench='<smoke subset>' && cp BENCH_engine.json BENCH_baseline.json" >&2
        exit 1
    fi
    # Standalone runs produce their own candidate record; under "all" the
    # bench stage just wrote a fresh one with the same benchmark subset.
    if [ "$stage" = "benchdiff" ]; then
        ./scripts/bench.sh -quick \
            -bench='BenchmarkFormulaCompile|BenchmarkGridScan|BenchmarkFig13Incremental|BenchmarkInterferenceAnalysis|BenchmarkCertifiedLookupMatch|BenchmarkPlanSelection|BenchmarkPlanRebuildAfterEdit|BenchmarkRowEditPair|BenchmarkSortPair|BenchmarkCrossSheetEdit|BenchmarkCrossSheetLookupEdit'
    fi
    go run ./cmd/benchdiff -baseline BENCH_baseline.json -candidate BENCH_engine.json \
        -threshold 4.0 -min-ns 1000000 -allocs-slack 0.01 | tee BENCHDIFF_table.txt
fi

echo "OK"

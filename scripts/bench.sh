#!/usr/bin/env bash
# Standard benchmark runner for webbrief perf PRs. Runs the serving-path and
# kernel benchmarks and emits a BENCH_N.json skeleton with the machine block
# filled in and the raw `go test -bench` output captured alongside, so a PR
# only has to paste its before/after numbers and write the summary.
#
#     ./scripts/bench.sh 4             # writes bench-out/BENCH_4.skeleton.json
#     BENCHTIME=100x ./scripts/bench.sh 4
#
# Conventions (see BENCH_1..3.json at the repo root):
#   - "before" holds the previous PR's numbers for the same benchmarks (copy
#     them from the last BENCH_N.json, or check out the parent commit and run
#     this script there);
#   - "after" holds this tree's numbers;
#   - ns_op / b_op / allocs_op come verbatim from -benchmem output.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${1:?usage: bench.sh <N> (the BENCH_N.json index this PR will publish)}
BENCHTIME=${BENCHTIME:-30x}
OUT=bench-out
mkdir -p "$OUT"

echo "== serving path (full HTTP: parse, admission, 3-stage briefing, JSON)"
go test -bench 'ServeBrief$|ServeBriefCascade' -benchtime "$BENCHTIME" -run '^$' -benchmem -cpu 1 . \
    | tee "$OUT/serve.txt"

echo "== throughput vs concurrency (one replica, clients 1/4/16: batch of one when idle, coalescing when saturated)"
go test -bench 'ServeBriefConcurrency' -benchtime "$BENCHTIME" -run '^$' -benchmem -cpu 1,2,4 . \
    | tee "$OUT/concurrency.txt"

echo "== cache hit path (full HTTP, every timed request served from the briefing cache)"
go test -bench 'ServeBriefCacheHit' -benchtime "$BENCHTIME" -run '^$' -benchmem -cpu 1 . \
    | tee "$OUT/cachehit.txt"

echo "== cold boot + replica cloning (binary snapshot vs legacy gob)"
go test -bench 'ColdBoot|CloneMany' -benchtime "$BENCHTIME" -run '^$' -benchmem ./internal/wb \
    | tee "$OUT/coldboot.txt"

echo "== warm scratch fast path (wb.MakeBriefWith, no HTTP)"
go test -bench 'MakeBriefScratch' -benchtime "$BENCHTIME" -run '^$' -benchmem ./internal/wb \
    | tee "$OUT/scratch.txt"

echo "== matmul / transpose kernels (naive reference vs blocked vs packed, f64 + f32)"
go test -bench 'Kernels' -benchtime "$BENCHTIME" -run '^$' -benchmem ./internal/tensor \
    | tee "$OUT/kernels.txt"

echo "== cascade tiers (f64 teacher vs f32 student, encode + topic decode, toy + paper scale)"
go test -bench 'CascadeTiers' -benchtime "$BENCHTIME" -run '^$' -benchmem ./internal/wb \
    | tee "$OUT/cascade.txt"

GOVER=$(go env GOVERSION)
GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
CPU=$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)
NCPU=$(nproc 2>/dev/null || echo 1)

cat > "$OUT/BENCH_${N}.skeleton.json" <<EOF
{
  "pr": ${N},
  "title": "FILL ME",
  "date": "$(date +%F)",
  "machine": {
    "goos": "${GOOS}",
    "goarch": "${GOARCH}",
    "go": "${GOVER}",
    "cpu": "${CPU}",
    "physical_cpus": ${NCPU},
    "note": "FILL ME (anything that qualifies the numbers: core count, noise, -cpu flags)"
  },
  "command": "BENCHTIME=${BENCHTIME} ./scripts/bench.sh ${N}",
  "before": { "note": "previous PR's numbers — copy from the last BENCH_N.json or rerun there" },
  "after": { "note": "this tree — transcribe from bench-out/*.txt" },
  "summary": {}
}
EOF

echo
echo "raw output in $OUT/{serve,concurrency,cachehit,coldboot,scratch,kernels,cascade}.txt"
echo "skeleton written to $OUT/BENCH_${N}.skeleton.json — fill before/after/summary and move to BENCH_${N}.json"

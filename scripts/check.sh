#!/usr/bin/env bash
# Pre-merge gate for webbrief. Run from the repo root before every merge:
#
#     ./scripts/check.sh          # full gate, fuzz smoke (20 s per target) included
#     FUZZTIME=0 ./scripts/check.sh   # skip the fuzz smoke for quick loops
#
# This script is the whole gate: CI (.github/workflows/ci.yml) runs it with
# FUZZTIME=0 and nothing else. Order is cheapest-first so failures surface
# fast: build, vet, the wbcheck lint suite, every package's tests, then the
# stages that run tests in another mode (-race, -tags wbdebug,
# GODEBUG=cpu.fma=off), the source guards, the binary smokes and a short
# coverage-guided fuzz smoke over every fuzz target (seeded from the
# crasher-shaped corpora under testdata/fuzz/). A stage that only re-runs, by
# -run, tests a whole-package stage already runs in the same mode does not
# belong here.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-20s}

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== cross-compile vet (arm64: the _other.go stubs of all four asm families must keep compiling)"
GOARCH=arm64 go vet ./internal/tensor ./internal/nn

echo "== wbcheck (determinism + numeric-safety + concurrency/resource-safety lints and deadexport with bench/ loaded as the second root, 8 passes)"
go run ./cmd/wbcheck ./...

echo "== go test (every package: integration, cmd, lint fixtures, allocation gates at their pinned counts, kernel and cascade equivalence, ring goldens and balance, fuzz corpus replay)"
go test ./...

echo "== race-enabled tests (every concurrency-bearing package, whole: serving e2e + load and chaos soaks + cache herd, gateway chaos + upstream, crawler and fault injection, the partition kit, kernel row partition on 2 and 3 workers)"
go test -race ./internal/ag ./internal/nn ./internal/wb ./internal/serve ./internal/tensor \
    ./internal/briefcache ./internal/snapshot ./internal/metrics ./internal/gateway \
    ./internal/fault ./internal/crawler

echo "== wbdebug invariant layer (finite guards + tape lifecycle, both element types)"
go test -tags wbdebug ./internal/ag ./internal/tensor ./internal/nn ./internal/wb

echo "== one numeric stack (per-dtype code is the matmul kernels and the activation/LSTM-cell lanes: no other non-test *32*.go or *64*.go under tensor/ag/nn/wb)"
if find internal/tensor internal/ag internal/nn internal/wb -maxdepth 1 \( -name '*32*.go' -o -name '*64*.go' \) ! -name '*_test.go' ! -name 'kernels32*' ! -name 'kernels64*' ! -name 'cpufeat_*' | grep .; then echo "per-dtype file(s) listed above: make the generic code handle the case instead"; exit 1; fi

echo "== one model file format (encoding/gob is the lint-facts codec in internal/analysis/facts.go and nothing else)"
if grep -rl '"encoding/gob"' --include='*.go' . | grep -v '^./internal/analysis/facts.go$'; then echo "encoding/gob imported by the file(s) listed above: model bundles are snapshots (internal/snapshot)"; exit 1; fi

echo "== one replica contract (serve reaches a replica through serve.Replica alone, and a replica is only its models: no type assertion on one in non-test internal/serve, no Parse stage on any replica or double, one DOM parse per page, and the per-replica clone loop, the second pool constructor, the two side interfaces and the exported probe page stay deleted)"
if grep -nE '\.\((BatchReplica|cascadeReporter|\*modelReplica)\)' $(ls internal/serve/*.go | grep -v '_test\.go$'); then echo "type assertion(s) on a Replica listed above: put the capability in the Replica contract instead"; exit 1; fi
if grep -rnF 'Parse(html string)' internal/serve internal/fault; then echo "Parse method(s) listed above: the handler parses (serve.renderPage) and the pool assigns ids (Pool.instance), a replica runs EncodeBatch and DecodeBatch"; exit 1; fi
if [[ $(grep -nF 'htmldom.Parse' $(ls internal/serve/*.go | grep -v '_test\.go$') | wc -l) -ne 1 ]]; then grep -nF 'htmldom.Parse' internal/serve/*.go; echo "non-test internal/serve must name htmldom.Parse on exactly one line (renderPage): a page is parsed once"; exit 1; fi
if grep -rnE 'CloneManyForServing|NewCascadePool|BatchReplica|cascadeReporter|DefaultProbeHTML' --include='*.go' internal cmd; then echo "name(s) listed above were deleted in favour of wb.FoldForServing / serve.NewPool / serve.Replica: extend those instead"; exit 1; fi

echo "== one inference entry point (a lone briefing is a batch of one over wb.BatchScratchOf: the single-instance family, its beam search and the tape pool stay deleted, and the eight names bench/wbload/replay.go still compiles against are called from nowhere else)"
if grep -rnwE 'InferScratchOf|NewInferScratchOf|NewInferScratch|GetScratch|PutScratch|GenerateTopicWith|decodeTopicWith|makeBriefWith|MakeBriefWith|MakeBriefWith32|BeamSearchScratch|ForwardIDs|GetTape|PutTape|tapePool|debugTapeGot|debugTapePut|tapelife' --include='*.go' internal cmd examples; then echo "name(s) listed above were deleted in favour of wb.ExtractBriefBatch / DecodeTopicBatch / MakeBriefBatch and nn.BeamSearchBatch: extend those instead"; exit 1; fi
if grep -rnwE 'InferScratch|InferScratch32|NewInferScratchFor|NewInferScratch32For|ExtractBriefWith|ExtractBriefWith32|DecodeTopicWith|DecodeTopicWith32' --include='*.go' --exclude='*_test.go' internal cmd examples ./*.go | grep -v '^internal/wb/scratch.go:'; then echo "adapter name(s) used above: internal/wb/scratch.go exists for bench/ alone (ROADMAP 6(e)/(f) deletes it), call the batch functions"; exit 1; fi

echo "== no B-panel packing (every matmul body reads the right-hand matrix in place: the packing kernels and the tape's pack buffer stay deleted, and the four names bench/wbload/replay.go still compiles against live in internal/tensor/packshim.go and are called from nowhere else)"
if grep -rnE 'packFor|packPanels|matMulPackedRows32|packMinRows|SetPack' internal cmd examples; then echo "name(s) listed above were deleted with B-panel packing: tensor.MatMulInto is the one matmul entry point"; exit 1; fi
if grep -rnwE 'PackBuf|PackBuf32|MatMulPackInto|MatMulPackInto32' --include='*.go' --exclude='*_test.go' internal cmd examples ./*.go | grep -v '^internal/tensor/packshim.go:'; then echo "shim name(s) used above: internal/tensor/packshim.go exists for bench/ alone (ROADMAP 6(f) deletes it), call tensor.MatMulInto"; exit 1; fi

echo "== libm's other path (GODEBUG=cpu.fma=off puts math.Exp on its non-FMA body: the probe must turn the f64 σ/tanh lanes off, and the differential test must still pass with libm alone; the split-k identity the fold tables rest on must hold with the FMA lanes stood down too)"
GODEBUG=cpu.fma=off go test -run 'TestAct64|TestMatMulSplitKBitwise' ./internal/tensor

echo "== bench smoke (kernel benchmarks incl. the dtype x shape x rows x impl grid and the f64 σ/tanh fn x n x impl grid, and the dtype x scale CascadeTiers grid, stay runnable)"
go test -run '^$' -bench 'Kernels|Act64' -benchtime 1x ./internal/tensor >/dev/null
go test -run '^$' -bench 'CascadeTiers' -benchtime 1x ./internal/wb >/dev/null

echo "== quickstart smoke (README's own: wbtrain with its defaults writes a tiny bundle, wbrief briefs a literal page from it; every smoke below serves the same bundle)"
SMOKEDIR=$(mktemp -d)
SERVE_PID=""
B1_PID=""
B2_PID=""
GATE_PID=""
trap 'for p in "$SERVE_PID" "$B1_PID" "$B2_PID" "$GATE_PID"; do [[ -n "$p" ]] && kill "$p" 2>/dev/null; done; rm -rf "$SMOKEDIR"' EXIT
go run ./cmd/wbtrain -domains 2 -pages 4 -epochs 2 -out "$SMOKEDIR/model.bin" >/dev/null 2>&1
printf '%s' '<html><body><h1>title : novel edition</h1><div>price : $ 9.99</div></body></html>' >"$SMOKEDIR/page.html"
go run ./cmd/wbrief -json -model "$SMOKEDIR/model.bin" "$SMOKEDIR/page.html" | grep -q '"Topic"'
echo "   quickstart smoke ok"

echo "== wbserve smoke (boot, four concurrent curls through the batch scheduler, /metrics, drain)"
go build -o "$SMOKEDIR/wbserve" ./cmd/wbserve
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18080 -replicas 2 -queue 8 -quiet &
SERVE_PID=$!
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break
    sleep 0.2
done
curl -sf http://127.0.0.1:18080/healthz | grep -q '"status":"ok"'
PAGE='<html><body><h1>title : novel edition</h1><div>price : $ 9.99</div></body></html>'
CURL_PIDS=""
for i in 1 2 3 4; do
    ( printf '%s' "$PAGE" | curl -sf --data-binary @- http://127.0.0.1:18080/brief | grep -q '"Topic"' ) &
    CURL_PIDS="$CURL_PIDS $!"
done
for pid in $CURL_PIDS; do wait "$pid"; done
curl -sf http://127.0.0.1:18080/metrics | python3 -c '
import json,sys
m = json.load(sys.stdin)
assert m["requests_total"] == 4 == m["responses"]["ok"], m["responses"]
b = m["batching"]
assert b["enabled"] and 1 <= b["batches_total"] <= 4, b
assert b["batch_size"]["sum"] == 4, b
'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "   wbserve smoke ok"

echo "== bench module (separate go.mod importing this one: an API rename here must not break the benchmark)"
(cd bench && go vet ./... && go test ./...)

echo "== training byte-identity (bench bundle retrained by this tree's wbtrain, then found cached: same sha256 both times)"
for i in 1 2; do
    BENCH_OUT=$(bash bench/run.sh --workload direct-miss-teacher --seconds 1 --trace 0)
    grep -qx 'bundle sha256 7502e8455762540e80a9b3cf8f823aa3ce097f5973a4b6677e65b31a846e2ce2' <<<"$BENCH_OUT"
done

echo "== wbserve cached smoke (wbsnap -info, -cache on, repeat post hits without a replica)"
go run ./cmd/wbsnap -info "$SMOKEDIR/model.bin" | grep -q 'jointwb/params'
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18082 -replicas 2 -queue 8 \
    -cache 256 -quiet &
SERVE_PID=$!
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18082/healthz >/dev/null 2>&1 && break
    sleep 0.2
done
PAGE='<html><body><h1>title : novel edition</h1><div>price : $ 9.99</div></body></html>'
FIRST=$(printf '%s' "$PAGE" | curl -sf --data-binary @- http://127.0.0.1:18082/brief)
SECOND=$(printf '%s' "$PAGE" | curl -sf --data-binary @- http://127.0.0.1:18082/brief)
[[ "$FIRST" == "$SECOND" && "$FIRST" == *'"Topic"'* ]]
curl -sf http://127.0.0.1:18082/metrics | python3 -c '
import json,sys
m = json.load(sys.stdin)
c = m["cache"]
assert c["enabled"] and c["cache_lookups_total"] == 2, c
o = c["outcomes"]
assert o["cache_hits_total"] == 1 and o["cache_misses_total"] == 1 and o["cache_coalesced_total"] == 0, o
assert c["cache_lookups_total"] == sum(o.values()), (c, o)
'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "   wbserve cached smoke ok"

echo "== wbserve cascade smoke (-cascade on, student tier serves, /metrics cascade block reconciles)"
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18083 -replicas 2 -queue 8 \
    -cascade -confidence-threshold 0.5 -quiet &
SERVE_PID=$!
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18083/healthz >/dev/null 2>&1 && break
    sleep 0.2
done
PAGE='<html><body><h1>title : novel edition</h1><div>price : $ 9.99</div></body></html>'
printf '%s' "$PAGE" | curl -sf --data-binary @- http://127.0.0.1:18083/brief | grep -q '"Topic"'
curl -sf http://127.0.0.1:18083/metrics | python3 -c '
import json,sys
m = json.load(sys.stdin)
c = m["cascade"]
assert c["enabled"] and c["confidence_threshold"] == 0.5, c
t = c["tiers"]
assert c["cascade_requests_total"] == 1 == t["student_total"] + t["teacher_total"], c
assert c["latency_ms"]["student"]["count"] == 1, c
assert c["latency_ms"]["teacher"]["count"] == t["teacher_total"], c
'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "   wbserve cascade smoke ok"

echo "== wbgate fleet smoke (1 gateway + 2 backends: routed curls, slow-header drill, rolling hot reload, one backend killed cold, /metrics reconciles)"
go build -o "$SMOKEDIR/wbgate" ./cmd/wbgate
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18084 -replicas 2 -queue 8 -quiet &
B1_PID=$!
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18085 -replicas 2 -queue 8 -quiet &
B2_PID=$!
"$SMOKEDIR/wbgate" -backends 127.0.0.1:18084,127.0.0.1:18085 -addr 127.0.0.1:18086 \
    -breaker-threshold 2 -breaker-cooldown 200ms -probe-interval 50ms 2>/dev/null &
GATE_PID=$!
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18084/healthz >/dev/null 2>&1 \
        && curl -sf http://127.0.0.1:18085/healthz >/dev/null 2>&1 \
        && curl -sf http://127.0.0.1:18086/healthz >/dev/null 2>&1 && break
    sleep 0.2
done
curl -sf http://127.0.0.1:18086/healthz | grep -q '"status":"ok"'
PAGE='<html><body><h1>title : novel edition</h1><div>price : $ 9.99</div></body></html>'
for d in books-0.example books-1.example books-2.example books-3.example; do
    printf '%s' "$PAGE" | curl -sf --data-binary @- "http://127.0.0.1:18086/brief?src=https://$d/p" | grep -q '"Topic"'
done
python3 scripts/slowheader.py 18084 18086
curl -sf -X POST http://127.0.0.1:18086/admin/reload | python3 -c '
import json,sys
r = json.load(sys.stdin)
assert r["reloaded"] == 2 and r["fleet_generation"] == 2, r
'
kill -9 "$B2_PID"
wait "$B2_PID" 2>/dev/null || true
B2_PID=""
for d in books-0.example books-1.example books-2.example books-3.example; do
    printf '%s' "$PAGE" | curl -sf --data-binary @- "http://127.0.0.1:18086/brief?src=https://$d/p" | grep -q '"Topic"'
done
curl -sf http://127.0.0.1:18086/metrics | python3 -c '
import json,sys
m = json.load(sys.stdin)
assert m["requests_total"] == 8 == m["responses"]["proxied"], m["responses"]
assert m["backend_requests_total"] == m["outcomes"]["backend_ok_total"] + m["outcomes"]["backend_error_total"], m["outcomes"]
assert m["reload"]["fleet_generation"] == 2 and m["reload"]["fleet_reloads_total"] == 1, m["reload"]
'
kill -TERM "$GATE_PID" "$B1_PID"
wait "$GATE_PID" "$B1_PID" 2>/dev/null || true
GATE_PID=""
B1_PID=""
echo "   wbgate fleet smoke ok"

if [[ "$FUZZTIME" != "0" ]]; then
    echo "== fuzz smoke (${FUZZTIME} per target)"
    go test -run='^$' -fuzz=FuzzParse -fuzztime="$FUZZTIME" ./internal/htmldom
    go test -run='^$' -fuzz=FuzzUnescapeEntities -fuzztime="$FUZZTIME" ./internal/htmldom
    go test -run='^$' -fuzz=FuzzNormalize -fuzztime="$FUZZTIME" ./internal/textproc
    go test -run='^$' -fuzz=FuzzWordPiece -fuzztime="$FUZZTIME" ./internal/textproc
    go test -run='^$' -fuzz='FuzzDecode$' -fuzztime="$FUZZTIME" ./internal/snapshot
    go test -run='^$' -fuzz=FuzzReader -fuzztime="$FUZZTIME" ./internal/snapshot
    go test -run='^$' -fuzz=FuzzDecodeSnapshot -fuzztime="$FUZZTIME" ./internal/wb
    go test -run='^$' -fuzz=FuzzUpstreamRequestHead -fuzztime="$FUZZTIME" ./internal/gateway
fi

echo "ALL CHECKS PASSED"

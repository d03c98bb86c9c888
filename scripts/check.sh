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

SMOKEDIR=$(mktemp -d)
SERVE_PID=""
B1_PID=""
B2_PID=""
GATE_PID=""
trap 'for p in "$SERVE_PID" "$B1_PID" "$B2_PID" "$GATE_PID"; do [[ -n "$p" ]] && kill "$p" 2>/dev/null; done; rm -rf "$SMOKEDIR"' EXIT

echo "== go build"
go build ./...
go build -o "$SMOKEDIR/slowtests" ./scripts/slowtests

# gotest is go test through scripts/slowtests: each package's result line,
# every failing test's whole output, then the stage's 20 slowest tests.
gotest() { go test -json "$@" | "$SMOKEDIR/slowtests"; }

echo "== go vet"
go vet ./...

echo "== gofmt (every tracked Go file is formatted)"
UNFORMATTED=$(gofmt -l $(git ls-files '*.go'))
if [[ -n "$UNFORMATTED" ]]; then echo "$UNFORMATTED"; echo "gofmt -w the file(s) listed above"; exit 1; fi

echo "== cross-compile vet (arm64: the _other.go stubs of all four asm families must keep compiling)"
GOARCH=arm64 go vet ./internal/tensor ./internal/nn

echo "== wbcheck (determinism + numeric-safety + concurrency/resource-safety lints and deadexport with bench/ loaded as the second root, 6 passes)"
go run ./cmd/wbcheck ./...

echo "== go test (every package: integration, cmd, lint fixtures, allocation gates at their pinned counts, kernel and cascade equivalence, ring goldens and balance, fuzz corpus replay)"
gotest ./...

echo "== race-enabled tests (every concurrency-bearing package, whole: serving e2e + load and chaos soaks + cache herd and churn, gateway chaos + upstream, the inbound server's wire table and disconnect watch, crawler and fault injection, the partition kit, the shared breaker, kernel row partition on 2 and 3 workers)"
gotest -race ./internal/ag ./internal/nn ./internal/wb ./internal/serve ./internal/tensor \
    ./internal/briefcache ./internal/snapshot ./internal/metrics ./internal/gateway \
    ./internal/fault ./internal/crawler ./internal/breaker ./internal/httpwire

echo "== wbdebug invariant layer (finite guards + tape lifecycle, both element types; in serve, a fold-table row re-derived from the shared, uncopied weights on every pooled, cascaded and reloaded forward)"
gotest -tags wbdebug ./internal/ag ./internal/tensor ./internal/nn ./internal/wb ./internal/serve

echo "== one numeric stack (per-dtype code is the matmul kernels and the activation/LSTM-cell lanes: no other non-test *32*.go or *64*.go under tensor/ag/nn/wb)"
if find internal/tensor internal/ag internal/nn internal/wb -maxdepth 1 \( -name '*32*.go' -o -name '*64*.go' \) ! -name '*_test.go' ! -name 'kernels32*' ! -name 'kernels64*' ! -name 'cpufeat_*' | grep .; then echo "per-dtype file(s) listed above: make the generic code handle the case instead"; exit 1; fi

echo "== one DOM parse per page (non-test internal/serve names htmldom.Parse on exactly one line: serve.renderPage)"
if [[ $(grep -nF 'htmldom.Parse' $(ls internal/serve/*.go | grep -v '_test\.go$') | wc -l) -ne 1 ]]; then grep -nF 'htmldom.Parse' internal/serve/*.go; echo "non-test internal/serve must name htmldom.Parse on exactly one line (renderPage): a page is parsed once"; exit 1; fi

echo "== names that stay deleted (scripts/stay-deleted.txt: one row per name a \"one X\" change removed — the change, where it may not appear, the one file allowed to keep it, its pattern — checked against file contents and paths)"
STAY_DELETED_FAILED=0
while read -r change scope allowed pattern; do
    [[ -z "$change" || "$change" == \#* ]] && continue
    files=(--include='*.go')
    case "$scope" in
        *:src) files+=(--exclude='*_test.go'); scope=${scope%:src} ;;
        *:any) files=(); scope=${scope%:any} ;;
    esac
    paths=(${scope//,/ }) # unquoted on purpose: split at the commas, expand ./*.go
    hits=$({ grep -rnE "${files[@]}" -- "$pattern" "${paths[@]}"; find "${paths[@]}" | grep -E -- "$pattern"; } 2>/dev/null | grep -vE "^${allowed%/}[:/]" || true)
    if [[ -n "$hits" ]]; then
        echo "$hits"
        echo "   /$pattern/ was deleted by $change: scripts/stay-deleted.txt says what replaced it"
        STAY_DELETED_FAILED=1
    fi
done <scripts/stay-deleted.txt
[[ $STAY_DELETED_FAILED == 0 ]]

echo "== paper components (at most 4 deadexport ignores keep a paper component that no binary reaches: WordPiece's three until ROADMAP item 20 decides, TrainModelEarlyStop until item 23)"
PAPER_IGNORES=$(grep -rn --include='*.go' -F '//wbcheck:ignore deadexport -- paper component' . || true)
PAPER_COUNT=$(awk NF <<<"$PAPER_IGNORES" | wc -l)
echo "   $PAPER_COUNT paper-component ignores"
if (( PAPER_COUNT > 4 )); then echo "$PAPER_IGNORES"; echo "$PAPER_COUNT paper-component ignores, at most 4: route the component through a binary or delete it"; exit 1; fi

echo "== docs cap (README.md, EXPERIMENTS.md and DESIGN.md together under 1 800 lines: a method or a number a command prints stays, a per-change narrative is one git show away)"
DOC_LINES=$(wc -l README.md EXPERIMENTS.md DESIGN.md)
sed 's/^/   /' <<<"$DOC_LINES"
DOC_TOTAL=$(awk 'END { print $1 }' <<<"$DOC_LINES")
if (( DOC_TOTAL >= 1800 )); then echo "$DOC_TOTAL doc lines, under 1800 allowed: summarise a section, or move its method beside the test or command it describes"; exit 1; fi

echo "== libm's other path (GODEBUG=cpu.fma=off puts math.Exp on its non-FMA body: the probe must turn the f64 exp/σ/tanh lanes off, and the differential tests — the lanes and both softmax rows — must still pass with libm alone; the split-k identity the fold tables and the concatenation-free linears rest on, the shared-parent beam rows and the serving golden's other-libm digests must hold with the FMA lanes stood down too)"
GODEBUG=cpu.fma=off gotest -run 'TestAct64|TestSoftmaxLanes|TestMatMulSplitKBitwise' ./internal/tensor
GODEBUG=cpu.fma=off gotest -run 'TestForwardCatMatchesConcat|TestBeamSearchBatchMatchesReference|TestServingGolden' ./internal/nn ./internal/wb

echo "== bench smoke (kernel benchmarks incl. the dtype x shape x rows x impl grid, the one-row blocks' in-process A/B and the f64 exp/σ/tanh fn x n x impl grid, the beam prune's width x candidates x impl grid, and the dtype x scale CascadeTiers grid, stay runnable)"
go test -run '^$' -bench 'Kernels|OneRowBlocks|Act64' -benchtime 1x ./internal/tensor >/dev/null
go test -run '^$' -bench 'BeamPrune' -benchtime 1x ./internal/nn >/dev/null
go test -run '^$' -bench 'CascadeTiers' -benchtime 1x ./internal/wb >/dev/null

echo "== root bench smoke (the ingestion and Briefer benchmarks run once each; the Table*, TeacherEpoch* and other experiment-table benchmarks are left out: they train models, and serving is timed by bench/run.sh)"
go test -run '^$' -bench '^Benchmark(HTMLToInstance|Brief)$' -benchtime 1x . >/dev/null

echo "== quickstart smoke (README's Quickstart, its command-line half: wbtrain writes a tiny bundle, wbrief -json briefs a literal page from it; every smoke below serves the same bundle)"
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
assert 1 <= b["batches_total"] <= 4, b
assert b["batch_size"]["sum"] == 4, b
'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "   wbserve smoke ok"

echo "== bench module (separate go.mod importing this one: an API rename here must not break the benchmark)"
(cd bench && go vet ./... && gotest ./...)

echo "== training byte-identity (bench bundle retrained by this tree's wbtrain, then found cached: same sha256 both times)"
for i in 1 2; do
    BENCH_OUT=$(bash bench/run.sh --workload direct-miss-teacher --seconds 1 --trace 0)
    grep -qx 'bundle sha256 7502e8455762540e80a9b3cf8f823aa3ce097f5973a4b6677e65b31a846e2ce2' <<<"$BENCH_OUT"
done

echo "== tier agreement on the bench bundle (the bundle the stage above left in .bench_build/bin, folded at float32 and float64, over bench/wbload's seed-1 page universe with and without a visitor sentence, both kernel modes: every decision's float32 and float64 gaps within half the student's bound, and every page the cascade's guard lets through briefed identically by both tiers; prints each kind's max |Δgap| and the escalation rate)"
go test -v -run 'TestTierAgreement/bench-bundle/seed=1$' ./internal/wb | grep -v '^=== RUN'

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

echo "== wbserve cascade smoke (-cascade on, the guard routes, /metrics cascade block reconciles and still reports the inert threshold at its default)"
"$SMOKEDIR/wbserve" -model "$SMOKEDIR/model.bin" -addr 127.0.0.1:18083 -replicas 2 -queue 8 \
    -cascade -quiet &
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
    go test -run='^$' -fuzz=FuzzRequestHead -fuzztime="$FUZZTIME" ./internal/httpwire
    go test -run='^$' -fuzz=FuzzReplyHead -fuzztime="$FUZZTIME" ./internal/httpwire
    go test -run='^$' -fuzz=FuzzSrcParam -fuzztime="$FUZZTIME" ./internal/briefcache
    go test -run='^$' -fuzz=FuzzRouteDomain -fuzztime="$FUZZTIME" ./internal/serve
    go test -run='^$' -fuzz=FuzzParsePolicy -fuzztime="$FUZZTIME" ./internal/briefcache
    go test -run='^$' -fuzz=FuzzCacheOps -fuzztime="$FUZZTIME" ./internal/briefcache
fi

echo "ALL CHECKS PASSED"

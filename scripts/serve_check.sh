#!/bin/sh
# serve_check: end-to-end lifecycle check of analysisd — start it on a free
# port, wait for readiness, exercise one request per endpoint, send SIGTERM,
# and require a clean drain — then the same for the cluster tier: an
# analysisrouter in front of two replicas, routed requests, the
# all-backends-down 503, and a clean router drain. Every daemon writes a
# RunReport on exit, whose request counters must balance. CI runs this
# after the test suite.
set -eu

log=$(mktemp)
r1log=$(mktemp); r2log=$(mktemp); rtlog=$(mktemp)
reports=$(mktemp -d)
pid=""; r1pid=""; r2pid=""; rtpid=""
trap 'rm -rf "$log" "$r1log" "$r2log" "$rtlog" "$reports"; kill $pid $r1pid $r2pid $rtpid 2>/dev/null || true' EXIT

# wait_listen LOGFILE PREFIX PID: poll LOGFILE for "PREFIX ADDR" and print
# the bound address.
wait_listen() {
    wl_addr=""
    for i in $(seq 1 50); do
        wl_addr=$(sed -n "s/^$2 //p" "$1" | head -n 1 | cut -d' ' -f1)
        [ -n "$wl_addr" ] && break
        kill -0 "$3" 2>/dev/null || { echo "serve_check: ${2%% *} died:" >&2; cat "$1" >&2; return 1; }
        sleep 0.1
    done
    [ -n "$wl_addr" ] || { echo "serve_check: no listen line in $1" >&2; cat "$1" >&2; return 1; }
    echo "$wl_addr"
}

# check_balance REPORT [COUNTER]: in a daemon's RunReport, every
# service.<ep>.requests equals its ok + errors + rejected,
# service.requests is the sum of the per-endpoint requests, router.requests
# equals router.ok + errors + rejected, and COUNTER, when given, saw
# traffic (a replica may own none of the few routed keys).
check_balance() {
    jq -e --arg seen "${2:-}" '.counters as $c
        | [$c | keys[] | select(test("^service\\.[a-z]+\\.requests$")) | rtrimstr(".requests")] as $eps
        | all($eps[]; $c[. + ".requests"] == $c[. + ".ok"] + $c[. + ".errors"] + $c[. + ".rejected"])
          and ($c["service.requests"] // 0) == ([$eps[] | $c[. + ".requests"]] | add // 0)
          and ($c["router.requests"] // 0) == ($c["router.ok"] // 0) + ($c["router.errors"] // 0) + ($c["router.rejected"] // 0)
          and ($seen == "" or ($c[$seen] // 0) > 0)' "$1" >/dev/null || {
        echo "serve_check: request counters do not balance in $1:"; jq .counters "$1"; exit 1; }
}

go build -o /tmp/analysisd ./cmd/analysisd
# -max-batch 4 so the oversized-batch rejection below is reachable with a
# small request.
/tmp/analysisd -addr 127.0.0.1:0 -max-batch 4 -report "$reports/analysisd.json" >"$log" 2>&1 &
pid=$!

# Wait for the listen line and extract the bound address.
addr=""
for i in $(seq 1 50); do
    addr=$(sed -n 's/^analysisd listening on //p' "$log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve_check: analysisd died:"; cat "$log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve_check: no listen line"; cat "$log"; exit 1; }
base="http://$addr"

# Readiness.
curl -sf "$base/healthz" >/dev/null || { echo "serve_check: healthz failed"; exit 1; }

# One request per endpoint must answer the expected status (200 unless
# stated otherwise).
check() {
    want=$1; path=$2; body=$3
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$body" "$base$path")
    [ "$code" = "$want" ] || { echo "serve_check: POST $path -> $code (want $want)"; exit 1; }
}
check 200 /v1/analyze    '{"kernel":"matmul","n":16,"tiles":[4,4,4]}'
check 200 /v1/predict    '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}'
check 200 /v1/tilesearch '{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}'

# The set-associative geometry fields: a direct-mapped predict answers 200,
# an invalid geometry (ways not dividing the line count) is a 400.
check 200 /v1/predict    '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4}'
check 400 /v1/predict    '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":3}'
check 200 /v1/tilesearch '{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"ways":2,"dims":{"TI":32,"TJ":32,"TK":32}}'

# Every simulation engine must answer 200 on the same problem; an unknown
# engine is a 400, and the analytic engine answers the n=2048 problem that
# the exact engine's trace budget rejects.
for engine in exact analytic sampled; do
    check 200 /v1/simulate "{\"kernel\":\"matmul\",\"n\":16,\"tiles\":[4,4,4],\"watchKB\":[1,4],\"engine\":\"$engine\"}"
done
check 200 /v1/simulate '{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}'
check 400 /v1/simulate '{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"engine":"bogus"}'
check 400 /v1/simulate '{"kernel":"matmul","n":2048,"tiles":[64,64,64],"watchKB":[16],"engine":"exact"}'
check 200 /v1/simulate '{"kernel":"matmul","n":2048,"tiles":[64,64,64],"watchKB":[16],"engine":"analytic"}'

# The joint transformation search: a happy path on the unfused two-index
# chain answers 200 with a non-identity winner; disabling every axis with
# no dims is a 400, as is a missing cache capacity.
opt_body='{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}'
resp=$(curl -s -X POST -d "$opt_body" "$base/v1/optimize")
case $resp in
    *'"bestPlan":"fuse"'*) ;;
    *) echo "serve_check: optimize best plan wrong: $resp"; exit 1 ;;
esac
check 400 /v1/optimize '{"kernel":"twoindexchain","n":32,"cacheElems":256,"permute":false,"fuse":false,"autoTile":false}'
check 400 /v1/optimize '{"kernel":"twoindexchain","n":32}'

# Batch: a mixed items+candidates happy path answers 200 with a fully-ok
# summary; a batch above -max-batch is rejected whole with 429.
batch_body='{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8]]}}'
resp=$(curl -s -X POST -d "$batch_body" "$base/v1/batch")
case $resp in
    *'"summary":{"items":3,"ok":3,"errors":0}'*) ;;
    *) echo "serve_check: batch summary wrong: $resp"; exit 1 ;;
esac
check 429 /v1/batch '{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8],[2,2,2],[4,2,2]]}}'

# Streaming: the batch stream ends in the counting trailer, the tilesearch
# stream in the ok trailer, and ?stream=1 on a point endpoint is a 400.
last=$(curl -s -X POST -d "$batch_body" "$base/v1/batch?stream=1" | tail -n 1)
[ "$last" = '{"summary":{"items":3,"ok":3,"errors":0}}' ] || { echo "serve_check: batch stream trailer: $last"; exit 1; }
last=$(curl -s -X POST -d '{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}' \
    "$base/v1/tilesearch?stream=1" | tail -n 1)
[ "$last" = '{"summary":{"ok":true}}' ] || { echo "serve_check: tilesearch stream trailer: $last"; exit 1; }
last=$(curl -s -X POST -d "$opt_body" "$base/v1/optimize?stream=1" | tail -n 1)
[ "$last" = '{"summary":{"ok":true}}' ] || { echo "serve_check: optimize stream trailer: $last"; exit 1; }
check 400 '/v1/predict?stream=1' '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}'

# Graceful drain: SIGTERM must produce a clean exit and the drain line.
kill -TERM "$pid"
wait "$pid" || { echo "serve_check: non-zero exit after SIGTERM"; cat "$log"; exit 1; }
grep -q "drained cleanly" "$log" || { echo "serve_check: no clean-drain line"; cat "$log"; exit 1; }
pid=""
check_balance "$reports/analysisd.json" service.requests

echo "serve_check: OK ($base)"

# --- Cluster tier: analysisrouter in front of two replicas. ---

go build -o /tmp/analysisrouter ./cmd/analysisrouter
/tmp/analysisd -addr 127.0.0.1:0 -report "$reports/r1.json" >"$r1log" 2>&1 &
r1pid=$!
/tmp/analysisd -addr 127.0.0.1:0 -report "$reports/r2.json" >"$r2log" 2>&1 &
r2pid=$!
r1addr=$(wait_listen "$r1log" "analysisd listening on" "$r1pid")
r2addr=$(wait_listen "$r2log" "analysisd listening on" "$r2pid")

/tmp/analysisrouter -addr 127.0.0.1:0 \
    -replicas "http://$r1addr,http://$r2addr" \
    -probe-interval 100ms -hedge 50ms -report "$reports/router.json" >"$rtlog" 2>&1 &
rtpid=$!
rtaddr=$(wait_listen "$rtlog" "analysisrouter listening on" "$rtpid")
base="http://$rtaddr"

# Router readiness, and the enriched health view must report both replicas.
curl -sf "$base/healthz" >/dev/null || { echo "serve_check: router healthz failed"; exit 1; }
health=$(curl -sf "$base/healthz?v=1")
case $health in
    *'"replicas"'*) ;;
    *) echo "serve_check: router healthz?v=1 lacks replicas: $health"; exit 1 ;;
esac

# Routed requests answer through the backends with the backends' bytes:
# a point predict, and a split candidates batch whose reassembled summary
# matches what one backend would serve.
check 200 /v1/predict '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}'
resp=$(curl -s -X POST -d "$batch_body" "$base/v1/batch")
case $resp in
    *'"summary":{"items":3,"ok":3,"errors":0}'*) ;;
    *) echo "serve_check: routed batch summary wrong: $resp"; exit 1 ;;
esac
last=$(curl -s -X POST -d "$batch_body" "$base/v1/batch?stream=1" | tail -n 1)
[ "$last" = '{"summary":{"items":3,"ok":3,"errors":0}}' ] || { echo "serve_check: routed batch stream trailer: $last"; exit 1; }

# All backends down: drain both replicas, then the router must answer 503
# "no healthy replica" (transport failures and the prober both report it).
kill -TERM "$r1pid" "$r2pid"
wait "$r1pid" || { echo "serve_check: replica 1 non-zero exit"; cat "$r1log"; exit 1; }
wait "$r2pid" || { echo "serve_check: replica 2 non-zero exit"; cat "$r2log"; exit 1; }
r1pid=""; r2pid=""
check_balance "$reports/r1.json"
check_balance "$reports/r2.json"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}' "$base/v1/predict")
[ "$code" = "503" ] || { echo "serve_check: router with no backends -> $code (want 503)"; exit 1; }

# Graceful router drain: SIGTERM, clean exit, the drain line.
kill -TERM "$rtpid"
wait "$rtpid" || { echo "serve_check: router non-zero exit after SIGTERM"; cat "$rtlog"; exit 1; }
grep -q "analysisrouter: drained cleanly" "$rtlog" || { echo "serve_check: no router clean-drain line"; cat "$rtlog"; exit 1; }
rtpid=""
check_balance "$reports/router.json" router.requests

echo "serve_check: cluster OK ($base)"

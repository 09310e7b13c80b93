#!/usr/bin/env bash
# End-to-end checks of the edde-serve CLI on a saved ensemble.
#
#   tests/serve_smoke.sh TOOLS_DIR MODEL BENCH_SERVE_LOG MODEL_V2
#
# TOOLS_DIR holds edde-serve, edde-serve-client and edde-top; MODEL is an
# artifact written by `bench_serve --save_model=MODEL`, and BENCH_SERVE_LOG
# that run's stdout (its `model-flags:` line pins the member architecture).
# MODEL_V2 is a second artifact of the same architecture (another
# --seed), the reload target. Outputs (dumps, server logs, scraped pages)
# go to the current directory. Needs curl and python3.
#
# 1. Malformed flags exit 2 without crashing or serving: --hidden widths,
#    every integer flag (non-numeric, trailing junk, out of range) and a
#    boolean flag that is none of true|false|1|0|yes|no, of edde-serve,
#    edde-serve-client and edde-top; and edde-serve's removed --precision
#    flag, so that a script still asking for int8 fails instead of being
#    served fp32.
# 2. The same deterministic request stream served at --workers=1 and
#    --workers=4 dumps byte-identical labels, cascade depths and float32
#    probabilities, with the cascade on and with it off (DESIGN.md §15).
# 3. The observability plane of a 2-worker server: /metrics is Prometheus
#    text with the serving histograms, /healthz is 200, /statusz is JSON
#    with the manifest, the alphas and live per-worker rows (§14, §15).
# 4. Hot reload: overwriting the served file and hitting /reloadz bumps the
#    generation on the live listener, which then answers byte-identically
#    to a fresh server on MODEL_V2 (§16).
# 5. Drain: after SIGTERM, /healthz answers 503 within --drain_ms.
#
# ctest runs it under the label serve_smoke, on models its fixture trains.
# A command that fails prints its line, the command and the tail of the log
# of the server started last.
set -Eeuo pipefail

CURRENT_LOG=
on_error() {
  echo "FAIL: line $2 exited $1: $3" >&2
  if [ -n "$CURRENT_LOG" ] && [ -f "$CURRENT_LOG" ]; then
    echo "--- tail of $CURRENT_LOG ---" >&2
    tail -n 20 "$CURRENT_LOG" >&2 || true
  fi
}
trap 'on_error "$?" "$LINENO" "$BASH_COMMAND"' ERR

if [ $# -ne 4 ]; then
  echo "usage: $0 TOOLS_DIR MODEL BENCH_SERVE_LOG MODEL_V2" >&2
  exit 2
fi
TOOLS=$1
MODEL=$2
LOG=$3
MODEL_V2=$4
SERVE="$TOOLS/edde-serve"
CLIENT="$TOOLS/edde-serve-client"
TOP="$TOOLS/edde-top"

MODEL_FLAGS=$(grep -o 'model-flags: .*' "$LOG" | cut -d' ' -f2-)
DIM=$(grep -o 'input_dim=[0-9]*' "$LOG" | head -1 | cut -d= -f2)
K=$(grep -o 'num_classes=[0-9]*' "$LOG" | head -1 | cut -d= -f2)
if [ -z "$MODEL_FLAGS" ] || [ -z "$DIM" ] || [ -z "$K" ]; then
  echo "FAIL: no model-flags/input_dim/num_classes in $LOG" >&2
  exit 1
fi

# --- 1. Malformed flags -------------------------------------------------
# Each case overrides one flag after the model's own; the server must
# refuse to start with exit 2. The timeout turns a server that accepted
# the value (and would serve forever) into a failure instead of a hang.
BAD_FLAGS=(
  --hidden=abc --hidden=32x --hidden=0 --hidden=-5 --hidden=32,abc
  --port=abc --port=99999 --port=-1 --port=
  --http_port=-2 --http_port=70000
  --workers=abc --workers=0 --workers=-3 --workers=257 --workers=100000
  --input_dim=16x --num_classes=0
  --max_batch_rows=0 --max_delay_ms=1.5 --max_request_rows=-1
  --max_request_ms=-1 --shed_queue_age_ms=x --send_timeout_ms=99999999999
  --drain_ms=-1 --cascade=maybe
  --precision=int8
)
for FLAG in "${BAD_FLAGS[@]}"; do
  CODE=0
  # shellcheck disable=SC2086  # MODEL_FLAGS is a flag list
  timeout 20 "$SERVE" --model="$MODEL" $MODEL_FLAGS --port=0 "$FLAG" \
    > serve_smoke_bad_flag.log 2>&1 || CODE=$?
  if [ "$CODE" != 2 ]; then
    echo "FAIL: edde-serve $FLAG exited $CODE, want 2" >&2
    cat serve_smoke_bad_flag.log >&2
    exit 1
  fi
done
echo "malformed flags: ${#BAD_FLAGS[@]} edde-serve cases exit 2"

# The client and edde-top parse their integer and boolean flags the same
# way: a bad
# value exits 2 before anything dials out (port 1 refuses connections, so
# a value that slipped through would exit with another code).
BAD_CLIENT_FLAGS=(
  --port=abc --port=0 --port=70000 --port=7433x --rows=4x --rows=0
  --dim= --requests=-1 --pool=0 --pool=1000 --retries=-2 --seed=1.5
  --deadline_ms=99999999999 --probs=maybe
)
for FLAG in "${BAD_CLIENT_FLAGS[@]}"; do
  CODE=0
  timeout 20 "$CLIENT" --port=1 --requests=1 "$FLAG" \
    > serve_smoke_bad_flag.log 2>&1 || CODE=$?
  if [ "$CODE" != 2 ] || ! grep -q "invalid --" serve_smoke_bad_flag.log; then
    echo "FAIL: edde-serve-client $FLAG exited $CODE, want 2" >&2
    cat serve_smoke_bad_flag.log >&2
    exit 1
  fi
done
BAD_TOP_FLAGS=(--port=abc --port=70000 --interval_ms=x --frames=-1
  --once=maybe)
for FLAG in "${BAD_TOP_FLAGS[@]}"; do
  CODE=0
  timeout 20 "$TOP" --port=1 --once "$FLAG" > serve_smoke_bad_flag.log 2>&1 \
    || CODE=$?
  if [ "$CODE" != 2 ]; then
    echo "FAIL: edde-top $FLAG exited $CODE, want 2" >&2
    cat serve_smoke_bad_flag.log >&2
    exit 1
  fi
done
echo "malformed flags: ${#BAD_CLIENT_FLAGS[@]} client and" \
  "${#BAD_TOP_FLAGS[@]} edde-top cases exit 2"

# --- 2. Bit-identity across worker counts, cascade on and off -----------
SERVER_PID=
PLANE_PID=
cleanup() {
  for PID in $SERVER_PID $PLANE_PID; do kill -TERM "$PID" 2>/dev/null || true; done
}
trap cleanup EXIT

# Starts edde-serve on an ephemeral port with the given extra flags (the
# first may override --model) and sets SERVER_PID and PORT from its
# `edde-serve ready port=N` line, and HTTP_PORT when it serves one.
start_server() {
  local log=$1
  shift
  CURRENT_LOG=$log
  # shellcheck disable=SC2086
  "$SERVE" --model="$MODEL" $MODEL_FLAGS --port=0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PORT=
  for _ in $(seq 1 100); do
    PORT=$(grep -o 'ready port=[0-9]*' "$log" | cut -d= -f2 || true)
    HTTP_PORT=$(grep -o 'http_port=[0-9]*' "$log" | cut -d= -f2 || true)
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "FAIL: edde-serve $* did not come up" >&2
  cat "$log" >&2
  exit 1
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || true
  SERVER_PID=
}

for CASCADE in true false; do
  for W in 1 4; do
    start_server "serve_smoke_cascade_${CASCADE}_w$W.log" \
      --cascade=$CASCADE --workers=$W --max_batch_rows=8 --max_delay_ms=1
    "$CLIENT" --port="$PORT" --dim="$DIM" --num_classes="$K" \
      --requests=200 --rows=3 --pool=8 --seed=7 --probs \
      --dump="dump_cascade_${CASCADE}_w$W.txt"
    stop_server
  done
  cmp "dump_cascade_${CASCADE}_w1.txt" "dump_cascade_${CASCADE}_w4.txt"
  echo "cascade=$CASCADE: responses byte-identical at workers=1 and workers=4"
done

# --- 3. Observability plane ---------------------------------------------
# The server reads its model from a copy, which step 4 overwrites.
cp "$MODEL" serve_smoke_served.edde
start_server serve_smoke_plane.log --model=serve_smoke_served.edde \
  --http_port=0 --workers=2 --drain_ms=3000
PLANE_PID=$SERVER_PID
URL="http://127.0.0.1:$HTTP_PORT"
"$CLIENT" --port="$PORT" --dim="$DIM" --num_classes="$K" --requests=50 \
  --rows=3 --pool=4

curl -fsS "$URL/metrics" -o serve_smoke_metrics.txt
grep -q '# TYPE edde_serve_request_latency_seconds histogram' \
  serve_smoke_metrics.txt
grep -q 'edde_serve_request_latency_seconds_bucket{le="+Inf"}' \
  serve_smoke_metrics.txt
grep -q 'edde_serve_request_latency_seconds_quantile{quantile="0.99"}' \
  serve_smoke_metrics.txt
grep -q '^edde_serve_rows ' serve_smoke_metrics.txt
if grep -iE '(^| )nan$| inf$' serve_smoke_metrics.txt; then
  echo "FAIL: /metrics exports a non-finite value" >&2
  exit 1
fi
test "$(curl -s -o /dev/null -w '%{http_code}' "$URL/healthz")" = 200
curl -fsS "$URL/statusz" -o serve_smoke_statusz.json
python3 - serve_smoke_statusz.json <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s['server']['ready'] is True
assert len(s['server']['alphas']) == s['server']['members']
assert s['manifest']['pid'] > 0
# Per-worker rows: both pool workers live, and between them they executed
# every batch the probe produced.
workers = s['server']['workers']
assert s['server']['num_batch_workers'] == 2
assert len(workers) == 2
assert all(w['live'] for w in workers)
assert sum(w['batches'] for w in workers) > 0
assert all(w['stages'] >= w['batches'] for w in workers)
PY
echo "observability plane: /metrics, /healthz and /statusz check out"

# --- 4. Hot reload ------------------------------------------------------
curl -fsS "$URL/statusz" -o serve_smoke_statusz_before.json
cp "$MODEL_V2" serve_smoke_served.edde
curl -fsS "$URL/reloadz" -o serve_smoke_reloadz.json
curl -fsS "$URL/statusz" -o serve_smoke_statusz_after.json
python3 - serve_smoke_statusz_before.json serve_smoke_reloadz.json \
  serve_smoke_statusz_after.json <<'PY'
import json, sys
before = json.load(open(sys.argv[1]))['server']
r = json.load(open(sys.argv[2]))
after = json.load(open(sys.argv[3]))['server']
assert r['ok'] is True, r
assert after['generation'] == before['generation'] + 1
assert after['reloads'] == before['reloads'] + 1
assert after['ready'] is True
print(f"reload: generation {before['generation']} -> {after['generation']}")
PY
"$CLIENT" --port="$PORT" --dim="$DIM" --num_classes="$K" --requests=100 \
  --rows=3 --pool=4 --seed=9 --probs --dump=dump_reloaded.txt
start_server serve_smoke_fresh_v2.log --model="$MODEL_V2" --workers=2
"$CLIENT" --port="$PORT" --dim="$DIM" --num_classes="$K" --requests=100 \
  --rows=3 --pool=4 --seed=9 --probs --dump=dump_fresh_v2.txt
stop_server
cmp dump_reloaded.txt dump_fresh_v2.txt
echo "reload: the reloaded generation answers as a fresh server on MODEL_V2"

# --- 5. Drain -----------------------------------------------------------
SERVER_PID=$PLANE_PID
CURRENT_LOG=serve_smoke_plane.log
kill -TERM "$SERVER_PID"
CODE=000
for _ in $(seq 1 50); do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "$URL/healthz" || true)
  [ "$CODE" = 503 ] && break
  sleep 0.05
done
if [ "$CODE" != 503 ]; then
  echo "FAIL: /healthz answered $CODE during the drain, want 503" >&2
  exit 1
fi
wait "$SERVER_PID" || true
SERVER_PID=
PLANE_PID=
echo "drain: /healthz answers 503 before shutdown"

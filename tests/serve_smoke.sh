#!/usr/bin/env bash
# End-to-end checks of the edde-serve CLI on a saved ensemble.
#
#   tests/serve_smoke.sh TOOLS_DIR MODEL BENCH_SERVE_LOG
#
# TOOLS_DIR holds edde-serve and edde-serve-client; MODEL is an artifact
# written by `bench_serve --save_model=MODEL`, and BENCH_SERVE_LOG that
# run's stdout (its `model-flags:` line pins the member architecture).
# Outputs (dumps, server logs) go to the current directory.
#
# 1. Malformed flags exit 2 without crashing or serving: --hidden widths
#    and every integer flag (non-numeric, trailing junk, out of range).
# 2. The same deterministic request stream served at --workers=1 and
#    --workers=4 dumps byte-identical labels, cascade depths and float32
#    probabilities, with the cascade on and with it off (DESIGN.md §15).
#
# ctest runs it under the label serve_smoke, on a model its fixture trains.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 TOOLS_DIR MODEL BENCH_SERVE_LOG" >&2
  exit 2
fi
TOOLS=$1
MODEL=$2
LOG=$3
SERVE="$TOOLS/edde-serve"
CLIENT="$TOOLS/edde-serve-client"

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
  --drain_ms=-1
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
echo "malformed flags: ${#BAD_FLAGS[@]} cases exit 2"

# --- 2. Bit-identity across worker counts, cascade on and off -----------
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -TERM "$SERVER_PID" 2>/dev/null || true; fi
}
trap cleanup EXIT

# Starts edde-serve on an ephemeral port with the given extra flags and
# sets SERVER_PID and PORT from its `edde-serve ready port=N` line.
start_server() {
  local log=$1
  shift
  # shellcheck disable=SC2086
  "$SERVE" --model="$MODEL" $MODEL_FLAGS --port=0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PORT=
  for _ in $(seq 1 100); do
    PORT=$(grep -o 'ready port=[0-9]*' "$log" | cut -d= -f2 || true)
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

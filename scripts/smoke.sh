#!/bin/sh
# smoke: the process-level gate. Every fleet and federation run goes
# through one front door, a race-instrumented fedd; a fleet is a
# one-region federation (examples/fleet/). The in-process suites run
# under the race detector in the test job; this script checks what only
# real processes show: bit-identical replay across separate runs, the
# printed summaries, the HTTP surface, and graceful SIGTERM shutdown.
#
#   1. federation replay: the example 3-region federation (board crash
#      in us-east, outage in ap-south, -check on) twice — digest vectors
#      identical, the crash supervised, 3 regions reported, revenue.
#   2. fleet chaos: examples/fleet/chaos.json (8 boards, K=4, board
#      crash with restart, board stall, -tracing, -deadline) twice — trace
#      digests and failure counters identical, the failures happened and
#      every orphan was re-placed.
#   3. trace sweep: examples/fleet/fleet.json (8 boards, sensor dropout,
#      degraded auto-drain, -tracing) twice per K ∈ {0,4} — trace
#      digests identical, span ledger conserving
#      (opened == closed + attributed + open, mismatched 0).
#   4. serving fleet: the same config with -http and -tracing, fed the
#      burst trace over POST /submit — zero loss via /state (submitted 15,
#      queue empty, live + completed == submitted − shed, shed 0), the
#      degraded board's sensor rejects in /metrics, work spread over ≥2
#      boards via /boards, /trace, the stage histograms in /metrics
#      (trace-ID exemplars) and /trace?id=, then a clean SIGTERM exit with
#      the summary.
#   5. ppmsim -http: /metrics, /state and /events of a finished run, and
#      /state during an active sensor-dropout window.
#
# Run from the repository root: make smoke.
set -eu

TMP=$(mktemp -d)
trap 'for P in ${PIDS:-}; do kill "$P" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT
LOG=$TMP/log
OUT=$TMP/out
FEDD=$TMP/fedd
PPMSIM=$TMP/ppmsim

fail() { echo "smoke: $*"; [ -f "$LOG" ] && cat "$LOG"; exit 1; }

echo "smoke: building race-instrumented fedd and ppmsim"
go build -race -o "$FEDD" ./cmd/fedd
go build -o "$PPMSIM" ./cmd/ppmsim

# serve_start LOG CMD...: start a server in the background, set PID and
# ADDR from its "listening on http://ADDR" line.
serve_start() {
  SLOG=$1
  shift
  "$@" >"$SLOG" 2>&1 &
  PID=$!
  PIDS="${PIDS:-} $PID"
  ADDR=
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^[a-z]*: listening on http://\([0-9.:]*\).*|\1|p' "$SLOG")
    [ -n "$ADDR" ] && return 0
    sleep 0.2
  done
  cat "$SLOG"
  fail "no listening address"
}

# serve_stop: SIGTERM the server; it must exit 0 within 10 s.
serve_stop() {
  kill -TERM "$PID"
  WAITED=0
  while kill -0 "$PID" 2>/dev/null; do
    WAITED=$((WAITED + 1))
    [ "$WAITED" -lt 100 ] || fail "server ignored SIGTERM"
    sleep 0.1
  done
  wait "$PID" 2>/dev/null || fail "server exited non-zero"
}

# twice NAME SED CMD...: run CMD twice; the lines SED extracts from each
# log must be non-empty and identical. Leaves run 1's log in $LOG.
twice() {
  NAME=$1 SED=$2
  shift 2
  "$@" >"$LOG" 2>&1 || fail "$NAME: run 1 failed"
  "$@" >"$LOG.2" 2>&1 || { cat "$LOG.2"; fail "$NAME: run 2 failed"; }
  A=$(sed -n "$SED" "$LOG")
  B=$(sed -n "$SED" "$LOG.2")
  [ -n "$A" ] || fail "$NAME: nothing to compare"
  [ "$A" = "$B" ] || { printf 'run 1: %s\nrun 2: %s\n' "$A" "$B"; fail "$NAME: runs diverge"; }
}

# ledger_ok: the span ledger line conserves.
ledger_ok() {
  LINE=$(grep '^    trace: ' "$LOG") || fail "no trace ledger line"
  set -- $LINE # trace: opened N closed N attributed N open N mismatched N
  [ "${11}" -eq 0 ] || fail "${11} mismatched spans"
  [ "$3" -gt 0 ] || fail "no spans opened"
  [ "$3" -eq $(($5 + $7 + $9)) ] || fail "ledger leak: $LINE"
}

echo "smoke: 1. federation replay"
twice "federation replay" 's/^  digests: //p' "$FEDD" -config examples/regions/federation.json \
  -trace examples/regions/follow-the-sun.json -epochs 12 -check
grep -q 'board 0 crashed.*supervised' "$LOG" || fail "board crash not supervised"
for R in us-east eu-north ap-south; do
  grep -q "region $R:" "$LOG" || fail "region $R missing"
done
grep -q 'rev \$[0-9]*\.[0-9]*[1-9]' "$LOG" || fail "no region earned revenue"
echo "smoke: digests $(sed -n 's/^  digests: //p' "$LOG")"

echo "smoke: 2. fleet chaos"
twice "fleet chaos" 's/^    \(trace digests\|failures\): //p' "$FEDD" -config examples/fleet/chaos.json \
  -trace examples/fleet/burst.json -epochs 50 -tracing -deadline 30s
LINE=$(grep '^    failures: ' "$LOG") || fail "no failures line"
set -- $LINE # failures: crashes N stalls N restarts N orphaned N (held N) replaced N
HELD=${11}
[ "$3" -ge 1 ] || fail "no crash happened"
[ "$5" -ge 1 ] || fail "no stall quarantine happened"
[ "$7" -ge 1 ] || fail "crashed board never restarted"
[ "$9" -eq "${13}" ] || fail "orphaned $9 but replaced ${13}"
[ "${HELD%)}" -eq 0 ] || fail "orphans still held at exit"
grep -q 'supervised; run continues' "$LOG" || fail "crash not absorbed by the supervisor"
echo "smoke:$LINE"

echo "smoke: 3. trace sweep"
cp examples/fleet/sensor-dropout.json "$TMP/"
for K in 0 4; do
  sed -e "s/\"max_skew\": 0,/\"max_skew\": $K,/" examples/fleet/fleet.json >"$TMP/sweep.json"
  grep -q "\"max_skew\": $K," "$TMP/sweep.json" || fail "could not set K=$K in examples/fleet/fleet.json"
  twice "K=$K" 's/^    trace digests: //p' "$FEDD" -config "$TMP/sweep.json" \
    -trace examples/fleet/burst.json -epochs 50 -tracing
  ledger_ok
  echo "smoke: K=$K replay-identical"
done

echo "smoke: 4. serving fleet"
serve_start "$LOG" "$FEDD" -config examples/fleet/fleet.json -tracing -pace 5 -http 127.0.0.1:0
grep -q '/metrics /trace)' "$LOG" || fail "endpoints not advertised"
SUBMIT=$(curl -fsS -X POST --data-binary @examples/fleet/burst.json "http://$ADDR/submit")
echo "$SUBMIT" | grep -q '"shed": 0' || fail "submission shed tasks: $SUBMIT"
# Converge: the trace defers arrivals up to 2 s of virtual time and the
# degraded board may bounce work once, so poll generously. One region:
# the first match of each field is the region's (or the federation's
# equal total).
field() { sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p" "$OUT" | head -1; }
OK=
for _ in $(seq 1 200); do
  curl -fsS "http://$ADDR/state" >"$OUT" || { sleep 0.2; continue; }
  SUBMITTED=$(field submitted) SHED=$(field shed) QUEUED=$(field queue_len)
  LIVE=$(field live) COMPLETED=$(field completed)
  if [ "${SUBMITTED:-0}" -eq 15 ] && [ "${QUEUED:-1}" -eq 0 ] && [ "${LIVE:-0}" -gt 0 ] &&
    [ $((${LIVE:-0} + ${COMPLETED:-0})) -eq $((SUBMITTED - ${SHED:-0})) ]; then
    OK=1
    break
  fi
  sleep 0.2
done
[ -n "$OK" ] || { cat "$OUT"; fail "fleet never converged"; }
[ "${SHED:-0}" -eq 0 ] || fail "$SHED tasks shed"
echo "smoke: converged (submitted=$SUBMITTED live=$LIVE completed=$COMPLETED queued=$QUEUED shed=$SHED)"
curl -fsS "http://$ADDR/metrics" >"$OUT"
REJECTS=$(sed -n 's|^pricepower_sensor_rejects_total{region="fleet",board="2"} \([0-9]*\)$|\1|p' "$OUT")
[ "${REJECTS:-0}" -gt 0 ] || fail "board 2 never rejected a sensor reading"
# Board rows sit at eight spaces of indent; cluster rows nest deeper.
BUSY=$(curl -fsS "http://$ADDR/boards" | grep -c '^        "tasks": [1-9]')
[ "$BUSY" -ge 2 ] || fail "all work piled on one board ($BUSY busy)"
echo "smoke: board 2 sensor rejects $REJECTS, work spread over $BUSY boards"
curl -fsS "http://$ADDR/trace" >"$OUT"
[ "$(field closed)" -gt 0 ] || { cat "$OUT"; fail "/trace shows no closed spans"; }
[ "$(field mismatched)" -eq 0 ] || { cat "$OUT"; fail "/trace reports mismatched spans"; }
grep -q '"digests"' "$OUT" || fail "/trace missing digest vector"
curl -fsS "http://$ADDR/metrics" >"$OUT"
for SERIES in pricepower_fleet_queue_wait_ms_bucket pricepower_board_round_ms_bucket pricepower_fleet_round_ms_bucket; do
  grep -q "^$SERIES" "$OUT" || fail "/metrics missing $SERIES"
done
EXEMPLAR=$(sed -n 's/.*trace_id="\([0-9a-f]*\)".*/\1/p' "$OUT" | head -1)
[ -n "$EXEMPLAR" ] || fail "no trace-ID exemplar in /metrics"
curl -fsS "http://$ADDR/trace?id=$EXEMPLAR" | grep -q '"spans"' || fail "no timeline for trace $EXEMPLAR"
echo "smoke: /trace, /metrics histograms and /trace?id=$EXEMPLAR ok"
serve_stop
grep -q '^    fleet: 8 boards' "$LOG" || fail "no shutdown summary"

echo "smoke: 5. ppmsim -http"
serve_start "$LOG" "$PPMSIM" -set l1 -governor PPM -tdp 4 -dur 1 -http 127.0.0.1:0
# Wait for the run to finish so /state and /metrics are populated.
for _ in $(seq 1 150); do
  grep -q "serving until interrupted" "$LOG" && break
  sleep 0.2
done
curl -fsS "http://$ADDR/metrics" >"$OUT"
grep -q '^pricepower_market_rounds_total' "$OUT" || fail "ppmsim /metrics missing market rounds"
grep -q 'pricepower_events_total{kind="allowance"}' "$OUT" || fail "ppmsim /metrics missing allowance events"
curl -fsS "http://$ADDR/state" >"$OUT"
grep -q '"market_state"' "$OUT" && grep -q '"clusters"' "$OUT" || fail "ppmsim /state incomplete"
curl -fsS "http://$ADDR/events" | grep -q '"events"' || fail "ppmsim /events empty"
serve_stop
# The dropout window opens at round 50 and outlives the run, so the
# market finishes (and keeps serving) in degraded mode.
serve_start "$LOG" "$PPMSIM" -set l1 -governor PPM -tdp 4 -dur 2 \
  -faults examples/faults/sensor-dropout.json -http 127.0.0.1:0
for _ in $(seq 1 150); do
  grep -q "serving until interrupted" "$LOG" && break
  sleep 0.2
done
grep -q '^faults: fault scenario' "$LOG" || fail "ppmsim did not load the fault scenario"
curl -fsS "http://$ADDR/state" | grep -q '"degraded":true' || fail "ppmsim /state not degraded in the fault window"
curl -fsS "http://$ADDR/metrics" | grep '^pricepower_sensor_rejects_total' | grep -qv ' 0$' ||
  fail "ppmsim never rejected a sensor reading"
serve_stop

echo "smoke: PASS"

#!/bin/sh
# fleet-smoke: boot a real fleetd process (race-instrumented) with four
# boards — one of them under the example sensor-dropout scenario — batch-
# submit the canned burst trace over HTTP, poll /state until the fleet
# converges, and assert the zero-loss contract:
#
#   live + completed == submitted - shed,  queue empty,  shed == 0
#
# plus: the degraded board actually rejected sensor readings, the work is
# spread over more than one board, and SIGTERM shuts the server down
# gracefully (exit 0). Run from the repository root: make fleet-smoke.
set -eu

BIN=${BIN:-./fleetd-smoke}
LOG=$(mktemp)
STATE=$(mktemp)
trap 'rm -f "$LOG" "$STATE"; [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true' EXIT

echo "fleet-smoke: building race-instrumented fleetd"
go build -race -o "$BIN" ./cmd/fleetd

"$BIN" -boards 4 -seed 7 -pace 5 -drain-degraded 3 \
  -faults 1:examples/faults/sensor-dropout.json \
  -http 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!

ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's|^fleetd: listening on http://\([0-9.:]*\).*|\1|p' "$LOG")
  [ -n "$ADDR" ] && break
  sleep 0.2
done
[ -n "$ADDR" ] || { echo "fleet-smoke: no listening address"; cat "$LOG"; exit 1; }
echo "fleet-smoke: fleetd up on $ADDR"

SUBMIT=$(curl -fsS -X POST --data-binary @examples/fleet/burst.json "http://$ADDR/submit")
echo "fleet-smoke: submit -> $SUBMIT"
echo "$SUBMIT" | grep -q '"shed": 0' || { echo "fleet-smoke: submission shed tasks"; exit 1; }

# Converge: queue drained, every accepted task live, nothing shed. The
# trace defers some arrivals up to 2 s of virtual time, and the degraded
# board may bounce work once, so poll generously.
OK=
for _ in $(seq 1 200); do
  curl -fsS "http://$ADDR/state" >"$STATE" || { sleep 0.2; continue; }
  SUBMITTED=$(sed -n 's/.*"submitted": \([0-9]*\).*/\1/p' "$STATE")
  SHED=$(sed -n 's/.*"shed": \([0-9]*\).*/\1/p' "$STATE")
  QUEUED=$(sed -n 's/.*"queue_len": \([0-9]*\).*/\1/p' "$STATE")
  LIVE=$(grep -o '"tasks": [0-9]*' "$STATE" | awk '{s+=$2} END {print s}')
  # The fleet-wide total (two-space indent), not the per-board counts.
  COMPLETED=$(sed -n 's/^  "completed": \([0-9]*\).*/\1/p' "$STATE")
  if [ "${SUBMITTED:-0}" -eq 15 ] && [ "${QUEUED:-1}" -eq 0 ] && \
     [ $((${LIVE:-0} + ${COMPLETED:-0})) -eq $((SUBMITTED - ${SHED:-0})) ] && [ "${LIVE:-0}" -gt 0 ]; then
    OK=1
    break
  fi
  sleep 0.2
done
[ -n "$OK" ] || { echo "fleet-smoke: fleet never converged"; cat "$STATE"; cat "$LOG"; exit 1; }
echo "fleet-smoke: converged (submitted=$SUBMITTED live=$LIVE completed=$COMPLETED queued=$QUEUED shed=$SHED)"

[ "${SHED:-0}" -eq 0 ] || { echo "fleet-smoke: $SHED tasks shed"; exit 1; }

# The faulted board must have rejected sensor readings (degradation was
# real), and the routed work must be spread over more than one board.
curl -fsS "http://$ADDR/metrics" >"$STATE"
REJECTS=$(sed -n 's|^pricepower_sensor_rejects_total{board="1"} \([0-9]*\)$|\1|p' "$STATE")
[ "${REJECTS:-0}" -gt 0 ] || { echo "fleet-smoke: board 1 never rejected a reading"; exit 1; }
echo "fleet-smoke: board 1 sensor rejects: $REJECTS"

# /state rather than /boards: the board listing nests per-cluster "tasks"
# fields that would inflate the count.
BUSY=$(curl -fsS "http://$ADDR/state" | grep -c '"tasks": [1-9]')
[ "$BUSY" -ge 2 ] || { echo "fleet-smoke: all work piled on one board ($BUSY busy)"; exit 1; }
echo "fleet-smoke: work spread over $BUSY boards"

# Graceful shutdown: SIGTERM must produce a clean exit and the summary.
kill -TERM "$PID"
WAITED=0
while kill -0 "$PID" 2>/dev/null; do
  WAITED=$((WAITED + 1))
  [ "$WAITED" -lt 100 ] || { echo "fleet-smoke: fleetd ignored SIGTERM"; exit 1; }
  sleep 0.1
done
wait "$PID" 2>/dev/null || { echo "fleet-smoke: fleetd exited non-zero"; cat "$LOG"; exit 1; }
PID=
grep -q '^fleet: 4 boards' "$LOG" || { echo "fleet-smoke: no shutdown summary"; cat "$LOG"; exit 1; }
rm -f "$BIN"
echo "fleet-smoke: PASS"

#!/bin/sh
# fleet-chaos: the failure-domain gate, in two halves.
#
# Test half: the board crash/stall/restart suite under the race detector —
# the lifecycle transition table, the derived ledger under concurrent
# readers, orphan accounting, joined crash errors, the crash+stall-in-one-barrier
# acceptance case, stall quarantine and catch-up, zero-loss across
# crash -> restart -> re-place for S ∈ {1,2,4,8}, permanent quarantine,
# restart caps, the liveness deadline, the checkpoint codec (round-trip,
# corruption rejection, fuzz seed corpus), and bit-identical faulted
# replay at K ∈ {0,4} × S ∈ {1,8}.
#
# Process half: a race-instrumented batch-mode fleetd (8 boards, bounded
# skew, sharded dispatch, -tracing) is run twice with board faults live —
# one board under the example board-crash scenario with -restart-after so
# the supervisor resurrects it, another under board-stall — and the two
# exit summaries must agree on bit-identical trace digest vectors: crash
# barriers, restart epochs, stall deferrals and catch-up replays are all
# pure functions of the seed. The summaries must also show the failures
# actually happened (crashes/restarts/stalls counted, every orphan
# re-placed). Run from the repository root: make fleet-chaos.
set -eu

BIN=${BIN:-./fleetd-chaos}
LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

echo "fleet-chaos: failure-domain suite (race detector)"
go test -race -count=1 -run \
  'TestBoardCrash|TestCollectJoins|TestCrashAndStall|TestStallQuarantine|TestZeroLossAcrossCrashRestart|TestPermanentQuarantine|TestMaxRestarts|TestLivenessDeadline|TestInjectedStalls|TestFaultedFleetReplays|TestCheckpoint|FuzzCheckpointRoundTrip|TestLifecycleTransitionTable|TestLedgerDerivedUnderConcurrentReaders' \
  ./internal/fleet
go test -race -count=1 -run 'TestBoardFault|TestIsBoardFault' ./internal/fault

echo "fleet-chaos: building race-instrumented fleetd"
go build -race -o "$BIN" ./cmd/fleetd

# failures_ok <summary-log>: the run must have really crashed, restarted,
# stalled, and re-placed every orphan (held 0 at exit).
failures_ok() {
  LOGF=$1
  LINE=$(grep '^  failures: ' "$LOGF") || { echo "fleet-chaos: no failures line"; cat "$LOGF"; exit 1; }
  set -- $LINE # failures: crashes N stalls N restarts N orphaned N (held N) replaced N
  CRASHES=$3 STALLS=$5 RESTARTS=$7 ORPHANED=$9 HELD=${11} REPLACED=${13}
  HELD=${HELD%)}
  [ "$CRASHES" -ge 1 ] || { echo "fleet-chaos: no crash happened"; cat "$LOGF"; exit 1; }
  [ "$RESTARTS" -ge 1 ] || { echo "fleet-chaos: crashed board never restarted"; cat "$LOGF"; exit 1; }
  [ "$STALLS" -ge 1 ] || { echo "fleet-chaos: no stall quarantine happened"; cat "$LOGF"; exit 1; }
  [ "$ORPHANED" -eq "$REPLACED" ] || {
    echo "fleet-chaos: orphaned=$ORPHANED but replaced=$REPLACED"; cat "$LOGF"; exit 1
  }
  [ "$HELD" -eq 0 ] || { echo "fleet-chaos: $HELD orphans still held at exit"; cat "$LOGF"; exit 1; }
  grep -q 'supervised; run continues' "$LOGF" || {
    echo "fleet-chaos: crash was not absorbed by the supervisor"; cat "$LOGF"; exit 1
  }
}

run_chaos() {
  "$BIN" -boards 8 -seed 7 -skew 4 -shards 8 \
    -faults 2:examples/faults/board-crash.json,5:examples/faults/board-stall.json \
    -restart-after 3 -stall-barriers 2 -deadline 30s \
    -tracing -trace examples/fleet/burst.json -dur 5
}

run_chaos >"$LOG" 2>&1 || { echo "fleet-chaos: run 1 failed"; cat "$LOG"; exit 1; }
failures_ok "$LOG"
D1=$(sed -n 's/^  trace digests: //p' "$LOG")
F1=$(grep '^  failures: ' "$LOG")
run_chaos >"$LOG" 2>&1 || { echo "fleet-chaos: run 2 failed"; cat "$LOG"; exit 1; }
failures_ok "$LOG"
D2=$(sed -n 's/^  trace digests: //p' "$LOG")
F2=$(grep '^  failures: ' "$LOG")

[ -n "$D1" ] || { echo "fleet-chaos: no digest vector"; cat "$LOG"; exit 1; }
[ "$D1" = "$D2" ] || {
  echo "fleet-chaos: digests diverge with crashes active"
  echo "  run 1: $D1"
  echo "  run 2: $D2"
  exit 1
}
[ "$F1" = "$F2" ] || {
  echo "fleet-chaos: failure counters diverge across runs"
  echo "  run 1: $F1"
  echo "  run 2: $F2"
  exit 1
}
echo "fleet-chaos: crashed run replay-identical ($(echo "$D1" | wc -w | tr -d ' ') digests)"
echo "fleet-chaos:$F1"

rm -f "$BIN"
echo "fleet-chaos: PASS"

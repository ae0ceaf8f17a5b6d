package check

import "fmt"

// Fleet conservation
//
// The fleet's zero-loss invariant extends across board failures and task
// exit: a task accepted at admission (submitted − shed − evicted) must be
// exactly one of
//
//   - live on a board per the newest collected barrier's snapshots,
//   - waiting in the admission queue,
//   - in flight at an issued-but-uncollected barrier (including batches a
//     stalled board is deferring),
//   - orphaned in the crash supervisor, awaiting re-placement at restart,
//     or
//   - completed: finished and retired from its board — the paper's task
//     exit (§2) — counted by the boards themselves and published in their
//     snapshots and checkpoints.
//
// Crashes move work between the terms — a dead board's residents leave
// "live" and enter "orphaned" in the same barrier — but never out of the
// sum. A completion inside a crashed barrier dies with the barrier: the
// task is still a resident of the board's last checkpoint, so it is
// orphaned, re-placed, and counted once when the rerun finishes. The
// check holds at every barrier, not just at quiescence.

// Ledger is one reading of the zero-loss terms. Migrating is the
// federation's in-transit term (always 0 for a single fleet).
type Ledger struct {
	Accepted  uint64 // submitted − shed (− evicted, for a fleet)
	Live      uint64
	Queued    uint64
	InFlight  uint64
	Orphaned  uint64
	Completed uint64
	Migrating uint64
}

// Err reports a ledger that does not close, naming the scope.
func (l Ledger) Err(scope string) error {
	placed := l.Live + l.Queued + l.InFlight + l.Orphaned + l.Completed + l.Migrating
	if placed == l.Accepted {
		return nil
	}
	return fmt.Errorf(
		"check: %s conservation violated: live %d + queued %d + in-flight %d + orphaned %d + completed %d + migrating %d = %d, want accepted %d",
		scope, l.Live, l.Queued, l.InFlight, l.Orphaned, l.Completed, l.Migrating, placed, l.Accepted)
}

// FleetLedger is anything that can report its zero-loss accounting. The
// shape is structural — implemented by fleet.Fleet — so the fleet does
// not have to be imported here (this package must stay dependency-free
// below the fleet layer).
type FleetLedger interface {
	FleetAccounting() Ledger
}

// CheckFleetConservation asserts the extended zero-loss identity:
// accepted == live + queued + inflight + orphaned + completed.
func CheckFleetConservation(l FleetLedger) error {
	return l.FleetAccounting().Err("fleet")
}

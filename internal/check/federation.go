package check

// Federation conservation
//
// The fleet's zero-loss invariant lifts across regions: a task accepted
// at federation admission (submitted − shed) must be exactly one of
//
//   - inside some region's fleet ledger — live, queued, in-flight,
//     orphaned, or completed there (the fleet's own invariant covers the
//     breakdown), or
//   - in migration: evicted from a source region and not yet delivered
//     to its destination (the federation's transit ledger).
//
// Migration moves work between the terms — an eviction leaves a
// region's queue and enters "migrating" in the same epoch, a delivery
// does the reverse — but never out of the sum. Shed on delivery (the
// destination queue overflowed) counts against the federation's shed
// total, so the identity holds at every epoch, outages included.

// FederationLedger is anything that can report cross-region zero-loss
// accounting. Structural — implemented by federation.Federation — so
// the federation does not have to be imported here.
type FederationLedger interface {
	FederationAccounting() Ledger
}

// CheckFederationConservation asserts the cross-region zero-loss
// identity: accepted == Σ_regions(live + queued + in-flight + orphaned +
// completed) + in-migration.
func CheckFederationConservation(l FederationLedger) error {
	return l.FederationAccounting().Err("federation")
}

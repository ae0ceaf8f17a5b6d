package fault

// Region-level faults
//
// The federation layer (internal/federation) treats a whole region — a
// fleet of boards plus its electricity-price trace — as a failure
// domain: a region can suffer an outage window during which its fleet is
// frozen (no barriers step, no new work routes to it) while its resident
// and queued tasks stay accounted. Outages are scheduled with the same
// discipline as every other fault — a window plus a pure stateless hash
// of (scenario seed, fault index, region, epoch) — so a federation run
// with outages replays bit-identically from its seed.
//
// Unlike platform faults (market rounds) and board faults (batch
// barriers), region fault windows are measured in *federation epochs*
// (1-based, the federation's epoch counter): the federation consults the
// schedule once per epoch, before stepping the region's fleet. RoundMS
// does not apply.

const (
	// RegionOutage freezes the region for every epoch inside the window
	// (Start ≤ epoch < Start+Rounds, in federation epochs): its fleet
	// steps no barriers, draws no accounted energy, earns no revenue,
	// and is excluded from submission routing and migration. Work
	// resident or queued in the region stays in the federation ledger
	// the whole time. Magnitude is the per-epoch outage probability
	// (0 or ≥ 1: every epoch in the window).
	RegionOutage Type = "region-outage"
)

// RegionTypes lists the region-level fault classes. Like BoardTypes they
// are deliberately not part of Types: the platform injector and the
// chaos schedule never see them.
var RegionTypes = []Type{RegionOutage}

// IsRegionFault reports whether t is a region-level fault class
// (windows in federation epochs, consumed by internal/federation,
// skipped by the platform Injector and the fleet layer).
func IsRegionFault(t Type) bool { return t == RegionOutage }

// OutageAt reports whether the region is scheduled to be down at the
// given federation epoch: some region-outage window covers the epoch and
// the (seed, fault, region, epoch) hash clears the magnitude gate.
// Pure — the schedule can be consulted from any goroutine.
func (sc Scenario) OutageAt(region, epoch int) bool {
	for i := range sc.Faults {
		f := &sc.Faults[i]
		if f.Type != RegionOutage || epoch < f.Start || epoch >= f.Start+f.Rounds {
			continue
		}
		if f.Magnitude > 0 && f.Magnitude < 1 &&
			unit(hash3(sc.Seed, uint64(i)^0x4e910, uint64(region+1), uint64(epoch))) >= f.Magnitude {
			continue
		}
		return true
	}
	return false
}

// HasPlatformFaults reports whether the scenario schedules any fault the
// platform injector acts on: anything but board- and region-level faults,
// which the injector skips. A scenario without one needs no injector.
func (sc Scenario) HasPlatformFaults() bool {
	for i := range sc.Faults {
		if t := sc.Faults[i].Type; !IsBoardFault(t) && !IsRegionFault(t) {
			return true
		}
	}
	return false
}

// HasRegionFaults reports whether the scenario schedules any
// region-level fault.
func (sc Scenario) HasRegionFaults() bool {
	for i := range sc.Faults {
		if IsRegionFault(sc.Faults[i].Type) {
			return true
		}
	}
	return false
}

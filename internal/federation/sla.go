package federation

import (
	"fmt"
	"math"
)

// Performance-based SLA pricing (Lučanin et al.)
//
// Each submitted task maps to an SLA tier through its spec priority —
// the one field that already survives the fleet's queue, eviction, and
// migration round-trips, so tier membership never needs a side channel.
// A tier promises a minimum served fraction (delivered PUs / demanded
// PUs, the fleet's frequency-delivery proxy) and pays a revenue rate
// per task-hour. A region that delivers below a tier's promise earns
// only a proportional fraction of that tier's rate and counts an SLA
// violation — performance-based pricing rather than binary penalties.

// Tier is one SLA class.
type Tier struct {
	Name string `json:"name"`
	// MinPriority is the lowest spec priority that lands in this tier
	// (tiers are matched highest-first).
	MinPriority int `json:"min_priority"`
	// MinServedFrac is the promised delivered/demanded PU fraction.
	MinServedFrac float64 `json:"min_served_frac"`
	// RatePerTaskHour is the revenue in $ per resident task per
	// trace-hour when the promise is met.
	RatePerTaskHour float64 `json:"rate_per_task_hour"`
}

// DefaultTiers is the three-class schedule used when a config names
// none: gold (priority ≥ 3), silver (2), bronze (everything else).
// Ordered highest MinPriority first — TierFor depends on it.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "gold", MinPriority: 3, MinServedFrac: 0.90, RatePerTaskHour: 0.12},
		{Name: "silver", MinPriority: 2, MinServedFrac: 0.75, RatePerTaskHour: 0.05},
		{Name: "bronze", MinPriority: 1, MinServedFrac: 0.50, RatePerTaskHour: 0.02},
	}
}

// ValidateTiers checks an SLA schedule: at least one tier, strictly
// descending MinPriority (TierFor matches highest-first), distinct
// non-empty names (the API keys tier counts by name), a promised served
// fraction in [0, 1] and a finite, non-negative rate.
func ValidateTiers(tiers []Tier) error {
	if len(tiers) == 0 {
		return fmt.Errorf("no SLA tiers")
	}
	seen := make(map[string]bool, len(tiers))
	for i, t := range tiers {
		switch {
		case t.Name == "" || seen[t.Name]:
			return fmt.Errorf("tier %d: name %q empty or repeated", i, t.Name)
		case i > 0 && t.MinPriority >= tiers[i-1].MinPriority:
			return fmt.Errorf("tier %d (%s): min_priority %d not below the previous tier's %d", i, t.Name, t.MinPriority, tiers[i-1].MinPriority)
		case !(t.MinServedFrac >= 0 && t.MinServedFrac <= 1):
			return fmt.Errorf("tier %d (%s): min_served_frac %g outside [0, 1]", i, t.Name, t.MinServedFrac)
		case !(t.RatePerTaskHour >= 0) || math.IsInf(t.RatePerTaskHour, 1):
			return fmt.Errorf("tier %d (%s): rate_per_task_hour %g not finite and non-negative", i, t.Name, t.RatePerTaskHour)
		}
		seen[t.Name] = true
	}
	return nil
}

// TierFor maps a spec priority to a tier index: the first (highest)
// tier whose MinPriority the priority meets, else the last tier.
func TierFor(tiers []Tier, priority int) int {
	for i, t := range tiers {
		if priority >= t.MinPriority {
			return i
		}
	}
	return len(tiers) - 1
}

// revenueFactor scales a tier's rate by delivered performance: full
// rate at or above the promise, proportional below it (and zero when
// nothing was delivered — an outage earns nothing).
func revenueFactor(served, promised float64) float64 {
	if promised <= 0 || served >= promised {
		return 1
	}
	if served <= 0 {
		return 0
	}
	return served / promised
}

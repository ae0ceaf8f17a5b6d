package fleet

import (
	"pricepower/internal/platform"
	"pricepower/internal/sim"
)

// Snapshot is one board's routing signal, published at every batch barrier:
// the market-clearing price (the paper's scalar load/power signal), the
// power position against the throttling boundaries, degraded/draining
// state, and capacity headroom. The dispatcher routes on nothing else — a
// Snapshot is plain data, so routing decisions are reproducible from a
// recorded sequence of them.
type Snapshot struct {
	Board int      `json:"board"`
	Epoch int      `json:"epoch,omitempty"` // restart epoch (0 = original boot)
	Time  sim.Time `json:"t"`
	Batch int      `json:"batch"`
	Round int      `json:"round"` // market bid rounds completed

	// Price is the mean clearing price across the board's core agents —
	// cheap boards have slack supply, expensive boards are contended.
	Price float64 `json:"price"`

	PowerW    float64 `json:"power_w"`
	SmoothedW float64 `json:"smoothed_power_w"`
	WthW      float64 `json:"wth_w"`    // effective threshold boundary (0 = unconstrained)
	WtdpW     float64 `json:"wtdp_w"`   // effective TDP boundary (0 = unconstrained)
	State     string  `json:"state"`    // market state: nominal/threshold/emergency
	Degraded  bool    `json:"degraded"` // sensor-health flag (internal/fault)
	Draining  bool    `json:"draining"`
	// Crashed marks a board whose goroutine panicked; the supervisor
	// holds its orphaned work until restart (or permanent quarantine).
	// Stalled marks a board quarantined by the stall detector after
	// missing stallBarriers consecutive barriers. Both exclude
	// the board from routing.
	Crashed bool `json:"crashed,omitempty"`
	Stalled bool `json:"stalled,omitempty"`

	// EnergyJ is the chip energy the board drew since it booted (a
	// restart starts a new meter).
	EnergyJ float64 `json:"energy_j"`

	Tasks int `json:"tasks"`
	// Completed is the board's cumulative count of tasks that finished
	// and were retired (carried across restarts by the checkpoint).
	Completed   int     `json:"completed"`
	DemandPU    float64 `json:"demand_pu"`
	SupplyPU    float64 `json:"supply_pu"`     // supply at current V-F levels
	MaxSupplyPU float64 `json:"max_supply_pu"` // supply ceiling at fmax

	// Clusters carries the per-cluster hardware detail for /boards.
	Clusters []platform.ClusterStats `json:"clusters,omitempty"`
}

// HasHeadroom reports whether the board can absorb more load: below the
// effective Wth boundary (when TDP-constrained — above it the chip agent
// is already curbing allowances) and with demand under the V-F ladder's
// supply ceiling.
func (s *Snapshot) HasHeadroom() bool {
	if s.WthW > 0 && s.SmoothedW >= s.WthW {
		return false
	}
	return s.DemandPU < s.MaxSupplyPU
}

// Admissible reports whether the dispatcher may route new work to the
// board: alive (not crashed or stall-quarantined), not draining,
// sensors healthy, and headroom left.
func (s *Snapshot) Admissible() bool {
	return !s.Crashed && !s.Stalled && !s.Draining && !s.Degraded && s.HasHeadroom()
}

// Package core implements the paper's primary contribution: the price-
// theory based power-management market.
//
// The traded commodity is the Processing Unit (PU, one million cycles per
// second), bought with virtual money. Four kinds of agents participate
// (§3.1):
//
//   - task agents receive an allowance, save, and bid for PUs according to
//     their task's demand (Eq. 1);
//   - core agents discover the price of their core's PUs from the submitted
//     bids (P_c = Σ b_t / S_c) and distribute supply in proportion to bids;
//   - cluster agents keep prices stable by adjusting the shared V-F level —
//     price inflation on the cluster's constrained core raises supply,
//     deflation lowers it (§3.2.2);
//   - the chip agent controls the money in circulation (the global
//     allowance) to keep total power inside the TDP constraint, through the
//     normal/threshold/emergency state machine (§3.2.3).
//
// The market is deliberately independent of the simulator: supply actuation
// goes through the small ClusterControl interface, and demands/observed
// supplies are injected each round. The running examples of Tables 1–3
// execute directly against this package (see market_test.go).
package core

// Config carries the market's tunables. Zero values are replaced by the
// defaults in DefaultConfig.
type Config struct {
	// MinBid is b_min, the floor every bid must respect.
	MinBid float64
	// Tolerance is δ, the inflation/deflation rate a cluster agent tolerates
	// before changing the V-F level (§3.2.2). Lower values react faster but
	// cause thermal cycling.
	Tolerance float64
	// SavingsCap bounds a task agent's savings at SavingsCap × its current
	// allowance (§3.2.3 "Savings"). The paper leaves the factor to the
	// designer; large savings can hold the system in emergency state longer.
	SavingsCap float64
	// InitialAllowance seeds the global allowance A.
	InitialAllowance float64
	// InitialBid seeds every new task agent's bid (the $1 of Table 1).
	InitialBid float64
	// Wtdp is the thermal design power constraint in W.
	Wtdp float64
	// Wth is the threshold-state boundary: between Wth and Wtdp the chip
	// agent freezes the allowance so an overloaded system stabilizes near
	// (but below) TDP (§3.2.3).
	Wth float64

	// Sensor validation / graceful degradation (DESIGN.md §9). Real power
	// telemetry is noisy and intermittently missing; the chip agent
	// validates each reading before classifying it and runs on the last
	// trusted value — with a tightened guard band — while the sensor
	// misbehaves.

	// MaxSensorPowerW is the physically plausible ceiling for a chip power
	// reading; anything above is rejected as a sensor fault. 0 disables the
	// envelope check (the PPM governor sets it from the chip's worst-case
	// power envelope).
	MaxSensorPowerW float64
}

// sensorStaleRounds bounds how many consecutive rounds the last trusted
// reading substitutes for rejected ones; past the bound the raw reading is
// clamped into [0, MaxSensorPowerW] and used — stale data eventually lies
// worse than noisy data.
const sensorStaleRounds = 8

// DegradedGuard scales the Wth/Wtdp boundaries while power readings are
// untrusted: the state machine throttles earlier when it cannot see
// clearly.
const DegradedGuard = 0.85

// degradedHealthyRounds is how many consecutive trusted readings clear the
// degraded flag.
const degradedHealthyRounds = 3

// DefaultConfig returns the tunables used throughout the evaluation: δ=0.2
// (the paper's running-example tolerance), a buffer zone at 90 % of TDP,
// and a savings cap of 5× the allowance (Table 3's trace lets savings grow
// to ≈4.6× the allowance, so the paper's own cap was at least that).
//
// Buffer sizing is the §3.2.3 trade-off: a zone wider than every V-F step's
// power delta guarantees the system parks in the threshold state without
// oscillation, but leaves the chip under-utilized; a narrow zone oscillates
// around the TDP and achieves higher utilization. The default follows the
// paper's preference for utilization ("a smaller buffer zone leads to
// frequent oscillations around the TDP, but achieves higher utilization");
// the ablation bench sweeps the ratio.
func DefaultConfig(wtdp float64) Config {
	return Config{
		MinBid:           0.01,
		Tolerance:        0.2,
		SavingsCap:       5.0,
		InitialAllowance: 4.5,
		InitialBid:       1.0,
		Wtdp:             wtdp,
		Wth:              0.9 * wtdp,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Wtdp)
	if c.MinBid <= 0 {
		c.MinBid = d.MinBid
	}
	if c.Tolerance <= 0 {
		c.Tolerance = d.Tolerance
	}
	if c.SavingsCap <= 0 {
		c.SavingsCap = d.SavingsCap
	}
	if c.InitialAllowance <= 0 {
		c.InitialAllowance = d.InitialAllowance
	}
	if c.InitialBid <= 0 {
		c.InitialBid = d.InitialBid
	}
	if c.Wth <= 0 && c.Wtdp > 0 {
		c.Wth = d.Wth
	}
	return c
}

// ClusterControl is the market's actuation interface onto one hardware
// cluster: the cluster agent raises or lowers supply one V-F rung at a time
// and reads the cluster's power for allowance distribution.
type ClusterControl interface {
	// SupplyPU reports the current per-core supply (frequency in MHz).
	SupplyPU() float64
	// SupplyAt reports the per-core supply at ladder rung i.
	SupplyAt(level int) float64
	// Level and NumLevels describe the ladder position.
	Level() int
	NumLevels() int
	// StepUp / StepDown move one rung; they report false at the ladder ends.
	StepUp() bool
	StepDown() bool
	// Power reports the cluster's current power in W.
	Power() float64
	// PowerAt reports the cluster's power envelope at ladder rung i (all
	// cores busy); IdlePowerAt reports the same rung with all cores idle.
	// The LBT module estimates mapping power costs with them.
	PowerAt(level int) float64
	IdlePowerAt(level int) float64
}

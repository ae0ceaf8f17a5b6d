// Package fault is the simulator's adversarial substrate: a deterministic,
// seed-driven fault-injection layer that perturbs the signals power
// governors actually consume — power-sensor noise, dropouts and stuck-at
// readings, V-F regulator refusals and latency spikes, transient core
// hot-unplug/replug, migration-cost blowups, and thermal-sensor faults.
//
// The paper's PPM runs inside a kernel against real hardware whose sensors
// glitch and whose cores get hot-unplugged; the clean simulated substrate
// never exercises those paths, so the market's "agents adapt to supply
// shocks" claim (§4) would otherwise go untested. An Injector is built from
// a Scenario (JSON-loadable: `ppmsim -faults scenario.json`) and attached
// via Platform.AttachFaults with the same zero-cost-when-detached
// discipline as the checker and telemetry layers.
//
// Determinism contract: every perturbation is a pure stateless hash of
// (scenario seed, fault index, target, virtual time) — never a draw from a
// shared mutable RNG — so a reading does not depend on which cluster asks
// first. Same scenario + same seed therefore reproduces bit-identical
// replay digests (see the chaos tests). The only injector state mutates in
// BeginTick, which the platform runs at the start of each tick.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pricepower/internal/sim"
)

// Type names one fault class.
type Type string

const (
	// PowerNoise adds uniform ±Magnitude W noise to the target's power
	// readings. Small magnitudes ride inside the market's EWMA and
	// validation band (tolerated); large ones trip the validator.
	PowerNoise Type = "power-noise"
	// PowerDropout makes the target's power sensor read 0 W.
	PowerDropout Type = "power-dropout"
	// PowerStuck freezes the target's power readings at the value sampled
	// when the window opened. Requires an explicit cluster target (a stuck
	// chip-level sensor is Cluster: -1 and only affects the chip sensor).
	PowerStuck Type = "power-stuck"
	// DVFSFail makes the target cluster's regulator refuse a requested V-F
	// step with probability Magnitude (≥ 1: always).
	DVFSFail Type = "dvfs-fail"
	// DVFSDelay turns V-F steps into deferred transitions landing after
	// ~Magnitude ms (jittered ±25%, deterministically).
	DVFSDelay Type = "dvfs-delay"
	// CoreUnplug hot-unplugs core Core for the window (supplies no PUs,
	// executes nothing) and replugs it when the window closes.
	CoreUnplug Type = "core-unplug"
	// MigrationBlowup multiplies modeled migration costs by Magnitude.
	MigrationBlowup Type = "migration-blowup"
	// ThermalNoise adds uniform ±Magnitude °C to thermal-sensor readings.
	ThermalNoise Type = "thermal-noise"
	// ThermalStuck freezes the target cluster's thermal readings at the
	// window-entry temperature.
	ThermalStuck Type = "thermal-stuck"
)

// Types lists every fault class (the chaos schedule draws from it).
var Types = []Type{
	PowerNoise, PowerDropout, PowerStuck,
	DVFSFail, DVFSDelay,
	CoreUnplug, MigrationBlowup,
	ThermalNoise, ThermalStuck,
}

// Fault is one injection window.
type Fault struct {
	// Type selects the fault class.
	Type Type `json:"type"`
	// Cluster targets one cluster; -1 targets the chip-level sensor
	// (power/thermal faults) or every cluster (dvfs faults).
	Cluster int `json:"cluster"`
	// Core is the global core index for core-unplug (ignored otherwise).
	Core int `json:"core,omitempty"`
	// Start is the first active market round; Rounds is the window length
	// in rounds (converted to virtual time via Scenario.RoundMS).
	Start  int `json:"start"`
	Rounds int `json:"rounds"`
	// Magnitude is type-specific: W (power-noise), probability (dvfs-fail),
	// ms (dvfs-delay), cost multiplier (migration-blowup), °C
	// (thermal-noise). Unused by dropout/stuck/unplug.
	Magnitude float64 `json:"magnitude,omitempty"`
}

// Scenario is a complete fault schedule plus the seed all perturbation
// randomness derives from.
type Scenario struct {
	Seed uint64 `json:"seed"`
	// RoundMS converts Start/Rounds windows to virtual time (default 31.7,
	// the paper's bid-round period).
	RoundMS float64 `json:"round_ms,omitempty"`
	Faults  []Fault `json:"faults"`
}

// Period returns the round period the windows are defined over.
func (sc Scenario) Period() sim.Time {
	if sc.RoundMS <= 0 {
		return sim.FromMillis(31.7)
	}
	return sim.FromMillis(sc.RoundMS)
}

// Validate checks the schedule against a chip geometry.
func (sc Scenario) Validate(clusters, cores int) error {
	known := make(map[Type]bool, len(Types)+len(BoardTypes)+len(RegionTypes))
	for _, t := range Types {
		known[t] = true
	}
	for _, t := range BoardTypes {
		known[t] = true
	}
	for _, t := range RegionTypes {
		known[t] = true
	}
	for i, f := range sc.Faults {
		if !known[f.Type] {
			return fmt.Errorf("fault %d: unknown type %q", i, f.Type)
		}
		if f.Start < 0 || f.Rounds <= 0 {
			return fmt.Errorf("fault %d (%s): window start=%d rounds=%d invalid", i, f.Type, f.Start, f.Rounds)
		}
		if IsBoardFault(f.Type) || IsRegionFault(f.Type) {
			// Board and region faults target a whole failure domain, not a
			// cluster or core: their windows are in batch barriers
			// (boards) or federation epochs (regions) and the cluster
			// field is ignored, so there is no geometry to check.
			continue
		}
		if f.Cluster < -1 || f.Cluster >= clusters {
			return fmt.Errorf("fault %d (%s): cluster %d outside [-1,%d)", i, f.Type, f.Cluster, clusters)
		}
		if f.Type == CoreUnplug && (f.Core < 0 || f.Core >= cores) {
			return fmt.Errorf("fault %d (core-unplug): core %d outside [0,%d)", i, f.Core, cores)
		}
	}
	return nil
}

// ParseScenario decodes a JSON scenario, rejecting unknown fields so a
// misspelled key (`strat`, `magnitdue`) fails loudly instead of silently
// zeroing the field it meant. Validation against a geometry is the
// caller's (Validate).
func ParseScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("fault: scenario: %w", err)
	}
	return sc, nil
}

// LoadScenario reads a JSON scenario file (the `ppmsim -faults` format).
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	sc, err := ParseScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// mix64 is the SplitMix64 finalizer (the same mixing sim.Rand is built on).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash3 folds a seed and three keys into one well-mixed word — the
// stateless randomness source behind every perturbation (fixed arity on
// purpose: no variadic slice on the per-reading path).
func hash3(seed, a, b, c uint64) uint64 {
	x := mix64(seed ^ (a+1)*0x9e3779b97f4a7c15)
	x = mix64(x ^ (b+1)*0xbf58476d1ce4e5b9)
	return mix64(x ^ (c+1)*0x94d049bb133111eb)
}

// unit maps a hash word to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

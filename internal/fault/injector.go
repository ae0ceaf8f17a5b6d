package fault

import (
	"fmt"

	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
)

// Injector implements platform.FaultInjector over a Scenario. All mutable
// state (window edges, stuck-sensor captures) is written only in BeginTick,
// which the platform runs at the start of each tick; the reading/actuation
// hooks called from the market's cluster phases are pure reads plus
// stateless hashes, so the injector is bit-reproducible whatever order
// they are called in.
type Injector struct {
	sc     Scenario
	period sim.Time

	active []bool    // per fault: window currently open
	stuck  []float64 // per fault: value captured at window entry

	activations int // rising edges seen so far
}

// NewInjector builds an injector for a scenario. Validate the scenario
// against the chip geometry first (ppmsim does); out-of-range targets are
// skipped defensively rather than panicking mid-run.
func NewInjector(sc Scenario) *Injector {
	return &Injector{
		sc:     sc,
		period: sc.Period(),
		active: make([]bool, len(sc.Faults)),
		stuck:  make([]float64, len(sc.Faults)),
	}
}

// Scenario returns the schedule the injector runs.
func (in *Injector) Scenario() Scenario { return in.sc }

// Activations reports how many fault windows have opened so far.
func (in *Injector) Activations() int { return in.activations }

// ActiveCount reports how many fault windows are currently open.
func (in *Injector) ActiveCount() int {
	n := 0
	for _, a := range in.active {
		if a {
			n++
		}
	}
	return n
}

// windowOpen reports whether fault i's window covers the given time.
func (in *Injector) windowOpen(i int, now sim.Time) bool {
	f := &in.sc.Faults[i]
	start := sim.Time(f.Start) * in.period
	return now >= start && now < start+sim.Time(f.Rounds)*in.period
}

// BeginTick implements platform.FaultInjector: it applies window edges —
// hot-unplug toggles, stuck-sensor captures — and emits one "fault" event
// per edge. Runs sequentially before the tick's scheduling step.
func (in *Injector) BeginTick(p *platform.Platform, now sim.Time) {
	for i := range in.sc.Faults {
		if IsBoardFault(in.sc.Faults[i].Type) || IsRegionFault(in.sc.Faults[i].Type) {
			// Board-level faults (crash / stall) are consumed by the fleet
			// layer per batch barrier, region-level faults (outage) by the
			// federation per epoch; they have no platform window, emit no
			// edge events here, and never count as injector activations.
			continue
		}
		open := in.windowOpen(i, now)
		if open == in.active[i] {
			continue
		}
		f := &in.sc.Faults[i]
		in.active[i] = open
		if open {
			in.activations++
			switch f.Type {
			case PowerStuck:
				if f.Cluster >= 0 && f.Cluster < len(p.Chip.Clusters) {
					in.stuck[i] = hw.ClusterPower(p.Chip.Clusters[f.Cluster])
				} else {
					in.stuck[i] = p.Power()
				}
			case CoreUnplug:
				if f.Core >= 0 && f.Core < len(p.Chip.Cores) {
					p.Chip.Cores[f.Core].Offline = true
				}
			}
		} else if f.Type == CoreUnplug && f.Core >= 0 && f.Core < len(p.Chip.Cores) {
			p.Chip.Cores[f.Core].Offline = false
		}
		in.emitEdge(p.Telemetry(), f, now, open)
	}
}

func (in *Injector) emitEdge(em *telemetry.Emitter, f *Fault, now sim.Time, open bool) {
	if !em.Enabled(telemetry.KindFault) {
		return
	}
	ev := telemetry.E(telemetry.KindFault)
	ev.Round = int(now / in.period)
	ev.Cluster = f.Cluster
	if f.Type == CoreUnplug {
		ev.Core = f.Core
	}
	ev.Name = string(f.Type)
	ev.Class = "start"
	if !open {
		ev.Class = "end"
	}
	ev.Value = f.Magnitude
	em.Emit(ev)
}

// targets reports whether a fault aimed at f.Cluster applies to a reading
// (or actuation) on the given cluster; -1 on either side is the wildcard
// (chip-level sensor / every cluster).
func targets(f *Fault, cluster int) bool {
	return f.Cluster == cluster || f.Cluster < 0 || cluster < 0
}

// PowerReading implements platform.FaultInjector. cluster is -1 for the
// chip-level sensor. Pure: called from the market's cluster phases.
func (in *Injector) PowerReading(cluster int, w float64, now sim.Time) float64 {
	for i := range in.sc.Faults {
		if !in.active[i] {
			continue
		}
		f := &in.sc.Faults[i]
		switch f.Type {
		case PowerNoise:
			if targets(f, cluster) {
				u := unit(hash3(in.sc.Seed, uint64(i), uint64(cluster+2), uint64(now)))
				w += (2*u - 1) * f.Magnitude
			}
		case PowerDropout:
			if targets(f, cluster) {
				w = 0
			}
		case PowerStuck:
			if f.Cluster == cluster { // exact target: captured value is per-sensor
				w = in.stuck[i]
			}
		}
	}
	return w
}

// DVFSOutcome implements platform.FaultInjector: the fate of a requested
// V-F step on a cluster. Refusals win over delays when both are active.
func (in *Injector) DVFSOutcome(cluster int, now sim.Time) (refused bool, delay sim.Time) {
	for i := range in.sc.Faults {
		if !in.active[i] {
			continue
		}
		f := &in.sc.Faults[i]
		if !targets(f, cluster) {
			continue
		}
		switch f.Type {
		case DVFSFail:
			if f.Magnitude >= 1 || unit(hash3(in.sc.Seed, uint64(i)^0xd7f5, uint64(cluster+2), uint64(now))) < f.Magnitude {
				return true, 0
			}
		case DVFSDelay:
			u := unit(hash3(in.sc.Seed, uint64(i)^0x11de, uint64(cluster+2), uint64(now)))
			d := sim.FromMillis(f.Magnitude * (0.75 + 0.5*u))
			if d > delay {
				delay = d
			}
		}
	}
	return false, delay
}

// MigrationCost implements platform.FaultInjector.
func (in *Injector) MigrationCost(cost sim.Time, now sim.Time) sim.Time {
	for i := range in.sc.Faults {
		if in.active[i] && in.sc.Faults[i].Type == MigrationBlowup && in.sc.Faults[i].Magnitude > 1 {
			cost = sim.Time(float64(cost) * in.sc.Faults[i].Magnitude)
		}
	}
	return cost
}

// String summarizes the scenario (the ppmsim run banner).
func (in *Injector) String() string {
	return fmt.Sprintf("fault scenario: %d fault(s), seed %d, round %v",
		len(in.sc.Faults), in.sc.Seed, in.period)
}

var _ platform.FaultInjector = (*Injector)(nil)

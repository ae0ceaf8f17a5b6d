package hw

import "pricepower/internal/sim"

// Power model
//
// Cluster power is the classic CMOS decomposition
//
//	P = P_uncore(V) + Σ_cores [ Ceff · f · V² · util + P_leak(V) ]
//
// with dynamic power proportional to effective switched capacitance, clock
// frequency and the square of the supply voltage, scaled by the fraction of
// the interval the core actually executed (its utilization), and leakage
// scaled quadratically with voltage relative to the nominal (top-rung)
// voltage. The coefficients in tc2.go are calibrated so the cluster
// envelopes match the paper's observations: the A7 cluster peaks near 2 W,
// the A15 cluster near 6 W, and the platform TDP is 8 W.

// ClusterPower returns the cluster's current electrical power in watts given
// the utilizations currently stored on its cores.
func ClusterPower(cl *Cluster) float64 {
	if !cl.On {
		return cl.Spec.OffPower
	}
	lvl := cl.CurLevel()
	vNom := cl.Spec.Levels[len(cl.Spec.Levels)-1].Voltage
	vr := lvl.Voltage / vNom
	fGHz := float64(lvl.FreqMHz) / 1000.0
	p := cl.Spec.StaticBase * vr * vr
	leak := cl.Spec.StaticPerCore * vr * vr
	dyn := cl.Spec.CeffDynamic * fGHz * lvl.Voltage * lvl.Voltage
	for _, core := range cl.Cores {
		p += leak + dyn*core.Utilization
	}
	return p
}

// ChipPower returns the whole-chip power in watts (the paper's W): the
// cluster powers summed in cluster order. Each cluster's power is also
// written to clusters[i], which needs one slot per cluster, so one sample
// serves the chip total and per-cluster consumers alike.
func ChipPower(c *Chip, clusters []float64) float64 {
	var p float64
	for i, cl := range c.Clusters {
		w := ClusterPower(cl)
		clusters[i] = w
		p += w
	}
	return p
}

// MaxClusterPower returns the cluster's power ceiling: every core fully
// utilized at the top V-F rung.
func MaxClusterPower(cl *Cluster) float64 {
	return ClusterPowerAt(cl, len(cl.Spec.Levels)-1, 1)
}

// ClusterPowerAt returns the cluster's power at ladder rung `level` with
// every core at utilization `util` — the what-if query governors use to
// price candidate operating points without changing hardware state.
func ClusterPowerAt(cl *Cluster, level int, util float64) float64 {
	if level < 0 {
		level = 0
	}
	if level >= len(cl.Spec.Levels) {
		level = len(cl.Spec.Levels) - 1
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	lvl := cl.Spec.Levels[level]
	vNom := cl.Spec.Levels[len(cl.Spec.Levels)-1].Voltage
	vr := lvl.Voltage / vNom
	dyn := cl.Spec.CeffDynamic * float64(lvl.FreqMHz) / 1000.0 * lvl.Voltage * lvl.Voltage
	leak := cl.Spec.StaticPerCore * vr * vr
	return cl.Spec.StaticBase*vr*vr + float64(cl.Spec.NumCores)*(leak+dyn*util)
}

// EnergyMeter integrates power over virtual time, mimicking the TC2 energy
// sensors exposed through hwmon.
type EnergyMeter struct {
	joules  float64
	elapsed sim.Time
	peak    float64
}

// Accumulate records that the measured domain drew watts for dt.
func (m *EnergyMeter) Accumulate(watts float64, dt sim.Time) {
	m.joules += watts * dt.Seconds()
	m.elapsed += dt
	if watts > m.peak {
		m.peak = watts
	}
}

// Joules reports the total energy consumed so far.
func (m *EnergyMeter) Joules() float64 { return m.joules }

// AveragePower reports mean power over the measured interval (0 before any
// accumulation).
func (m *EnergyMeter) AveragePower() float64 {
	if m.elapsed == 0 {
		return 0
	}
	return m.joules / m.elapsed.Seconds()
}

// PeakPower reports the highest instantaneous sample seen.
func (m *EnergyMeter) PeakPower() float64 { return m.peak }

// Elapsed reports the total measured time.
func (m *EnergyMeter) Elapsed() sim.Time { return m.elapsed }

// Reset clears the meter.
func (m *EnergyMeter) Reset() { *m = EnergyMeter{} }

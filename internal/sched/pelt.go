package sched

import (
	"math"

	"pricepower/internal/sim"
)

// LoadTracker is a PELT-style (per-entity load tracking, Turner 2012)
// geometrically-decayed average of an entity's runnable fraction. The Linux
// series decays by y per millisecond with y³² = 0.5 (32 ms half-life);
// we use the continuous-time equivalent so arbitrary tick sizes work.
//
// The HL baseline uses this signal for its big/LITTLE migration thresholds
// ("the amount of time spent in the active task run-queue"), and governors
// can use it as a demand proxy when a task exposes no heartbeats (§5.2's
// per-entity-load-tracking fallback).
type LoadTracker struct {
	avg         float64
	initialized bool
}

// peltHalfLife is the decay half-life of the tracked average.
const peltHalfLife = 32 * sim.Millisecond

// peltDecay is the factor a tick of length dt keeps of the old average.
func peltDecay(dt sim.Time) float64 {
	return math.Exp2(-float64(dt) / float64(peltHalfLife))
}

// Update folds one tick's runnable fraction (in [0,1]) into the average.
func (l *LoadTracker) Update(runnable float64, dt sim.Time) {
	l.update(runnable, peltDecay(dt))
}

// update folds a runnable fraction in with a precomputed peltDecay factor
// (run queues compute it once per tick length, not once per entity).
func (l *LoadTracker) update(runnable, decay float64) {
	if runnable < 0 {
		runnable = 0
	}
	if runnable > 1 {
		runnable = 1
	}
	if !l.initialized {
		l.avg = runnable
		l.initialized = true
		return
	}
	l.avg = l.avg*decay + runnable*(1-decay)
}

// Value reports the current load average in [0,1].
func (l *LoadTracker) Value() float64 { return l.avg }

// Reset clears the tracker (used after migrations, when history on the old
// core is no longer representative).
func (l *LoadTracker) Reset() { *l = LoadTracker{} }

// Package task models the applications the framework manages: phase-
// structured computations that emit heartbeats (Heart Rate Monitor
// instrumentation, Hoffmann et al.) and whose computational demand differs
// across heterogeneous core types.
//
// A task's phase defines how many millions of cycles one heartbeat costs on
// a LITTLE core and how much faster a big core retires the same work. The
// user-facing performance goal is a reference heart-rate range [MinHR,
// MaxHR]; the paper's demand model (Table 4) converts observed heart rate,
// supply and utilization into a demand in Processing Units.
package task

import (
	"fmt"

	"pricepower/internal/hw"
	"pricepower/internal/sim"
)

// Phase is one program phase of a task.
type Phase struct {
	// Duration of the phase; <= 0 means the phase lasts forever.
	Duration sim.Time
	// HBCostLittle is the work of one heartbeat on a LITTLE core, in PU·s
	// (millions of cycles).
	HBCostLittle float64
	// SpeedupBig is how much less work one heartbeat needs on a big core:
	// HBCostBig = HBCostLittle / SpeedupBig. Out-of-order big cores retire
	// the same application work in fewer cycles, so SpeedupBig > 1.
	SpeedupBig float64
	// SelfCapHR is the heart rate beyond which the task stops consuming CPU
	// (e.g. a video encoder pacing on input frames). 0 means CPU-bound: the
	// task absorbs all cycles offered.
	SelfCapHR float64
}

// HBCost returns the phase's per-heartbeat work on the given core type.
func (p Phase) HBCost(ct hw.CoreType) float64 {
	if ct == hw.Big && p.SpeedupBig > 0 {
		return p.HBCostLittle / p.SpeedupBig
	}
	return p.HBCostLittle
}

// Spec is the static description of a task.
type Spec struct {
	Name string
	// Priority is the user-assigned priority r_t; higher is more important.
	Priority int
	// MinHR and MaxHR bound the reference heart-rate range in hb/s.
	MinHR, MaxHR float64
	// Phases plays in order; Loop restarts from the first phase after the
	// last ends, otherwise the task finishes.
	Phases []Phase
	Loop   bool
}

// Validate checks the spec for internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("task: spec with empty name")
	}
	if s.Priority < 1 {
		return fmt.Errorf("task %s: priority %d < 1", s.Name, s.Priority)
	}
	if s.MinHR <= 0 || s.MaxHR < s.MinHR {
		return fmt.Errorf("task %s: bad heart-rate range [%v,%v]", s.Name, s.MinHR, s.MaxHR)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("task %s: no phases", s.Name)
	}
	for i, p := range s.Phases {
		if p.HBCostLittle <= 0 {
			return fmt.Errorf("task %s phase %d: non-positive heartbeat cost", s.Name, i)
		}
		if p.SpeedupBig < 1 {
			return fmt.Errorf("task %s phase %d: big speedup %v < 1", s.Name, i, p.SpeedupBig)
		}
	}
	return nil
}

// TargetHR is the midpoint of the reference range — the heart rate the
// demand conversion steers toward (Table 4).
func (s *Spec) TargetHR() float64 { return (s.MinHR + s.MaxHR) / 2 }

// Task is a live instance of a Spec with execution state.
type Task struct {
	Spec
	ID int

	phase        int
	phaseElapsed sim.Time
	heartbeats   float64
	finished     bool
	hrm          Window

	// cost and want cache the active phase's HBCost and WantPU per core
	// type (indexed by hw.CoreType), refreshed on every phase change: the
	// platform reads them per task per tick.
	cost, want [2]float64
}

// New instantiates a task. It panics if the spec is invalid (specs are
// build-time data).
func New(id int, spec Spec) *Task {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := &Task{Spec: spec, ID: id, hrm: NewWindow(DefaultHRMWindow)}
	t.enterPhase()
	return t
}

// enterPhase refreshes the per-core-type cost and want caches from the
// active phase. Spec.Phases is read here, at phase entry only.
func (t *Task) enterPhase() {
	p := &t.Spec.Phases[t.phase]
	for _, ct := range [2]hw.CoreType{hw.Little, hw.Big} {
		t.cost[ct] = p.HBCost(ct)
		if p.SelfCapHR <= 0 {
			t.want[ct] = -1
		} else {
			t.want[ct] = p.SelfCapHR * t.cost[ct]
		}
	}
}

// Phase returns the active phase.
func (t *Task) Phase() Phase { return t.Spec.Phases[t.phase] }

// PhaseIndex returns the index of the active phase.
func (t *Task) PhaseIndex() int { return t.phase }

// Finished reports whether a non-looping task has played all phases.
func (t *Task) Finished() bool { return t.finished }

// Heartbeats reports the total heartbeats emitted so far.
func (t *Task) Heartbeats() float64 { return t.heartbeats }

// HBCost returns the current phase's per-heartbeat work on ct.
func (t *Task) HBCost(ct hw.CoreType) float64 { return t.cost[ct] }

// WantPU returns the task's self-imposed consumption cap on a core of type
// ct, in PUs; negative means unbounded (CPU-bound phase).
func (t *Task) WantPU(ct hw.CoreType) float64 {
	if t.finished {
		return 0
	}
	return t.want[ct]
}

// DemandPU is the oracle demand of the task on core type ct: the supply that
// would sustain exactly the target heart rate in the current phase. The
// governors never read this — they estimate demand from observations via
// EstimateDemand — but workload calibration and tests do.
func (t *Task) DemandPU(ct hw.CoreType) float64 {
	if t.finished {
		return 0
	}
	return t.TargetHR() * t.HBCost(ct)
}

// Advance consumes workPU·s of delivered work on a core of type ct over a
// tick of length dt ending at now: heartbeats are emitted, the HRM window is
// sampled, and phase time advances.
func (t *Task) Advance(workPU float64, ct hw.CoreType, dt sim.Time, now sim.Time) {
	if t.finished {
		return
	}
	if workPU > 0 {
		t.heartbeats += workPU / t.HBCost(ct)
	}
	t.hrm.Sample(now, t.heartbeats)
	t.phaseElapsed += dt
	for {
		d := t.Spec.Phases[t.phase].Duration
		if d <= 0 || t.phaseElapsed < d {
			return
		}
		t.phaseElapsed -= d
		t.phase++
		if t.phase >= len(t.Spec.Phases) {
			if t.Spec.Loop {
				t.phase = 0
			} else {
				t.phase = len(t.Spec.Phases) - 1
				t.finished = true
				return
			}
		}
		t.enterPhase()
	}
}

// HeartRate reports the observed heart rate in hb/s over the HRM window
// ending at now.
func (t *Task) HeartRate(now sim.Time) float64 { return t.hrm.Rate(now) }

// InRange reports whether the observed heart rate lies inside the reference
// range.
func (t *Task) InRange(now sim.Time) bool {
	hr := t.HeartRate(now)
	return hr >= t.MinHR && hr <= t.MaxHR
}

// BelowRange reports whether the observed heart rate is under the minimum —
// the miss condition Figures 4 and 6 count.
func (t *Task) BelowRange(now sim.Time) bool { return t.HeartRate(now) < t.MinHR }

// EstimateDemand converts an observation into a demand in PUs using the
// paper's Table 4 equation:
//
//	d_t = target_heart_rate × s_t / current_heart_rate
//
// where s_t is the supply the task actually consumed. When no heartbeats
// have been observed yet (currentHR == 0) the demand is unknown; callers get
// the consumed supply back, which makes the bid drift upward until beats
// arrive.
func EstimateDemand(targetHR, consumedPU, currentHR float64) float64 {
	if currentHR <= 0 {
		return consumedPU
	}
	return targetHR * consumedPU / currentHR
}

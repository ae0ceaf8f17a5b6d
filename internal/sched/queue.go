package sched

import (
	"math"

	"pricepower/internal/sim"
)

// Queue is one core's run queue. It implements CFS semantics: the entity
// with the smallest virtual runtime runs next, and an entity's virtual
// runtime advances by (real work / weight), so over time every runnable
// entity receives CPU in proportion to its weight.
type Queue struct {
	entities    []*Entity
	minVruntime float64

	// fill is the per-entity scratch of the last tick, parallel to
	// entities: the fill's inputs and results. The steady-state Step must
	// not allocate (the platform tick runs once per core per simulated
	// millisecond; TestTickAllocationFree / BenchmarkTickThroughput at the
	// root enforce it).
	fill []fillState

	// fillOK reports that fill holds the fluid water-fill of the current
	// entities for fillSupply and fillDt, with fillUtil its utilization.
	// Add, Remove and discrete ticks clear it, and Step checks every
	// entity's WantPU and Weight against the inputs recorded in fill: the
	// fill is a pure function of those inputs, so while they are unchanged
	// (between bid rounds) its reuse is exact.
	fillOK     bool
	fillSupply float64
	fillDt     sim.Time
	fillUtil   float64

	// decayDt/decay cache peltDecay for the last tick length: ticks are
	// fixed-size, so the factor is computed once, not per entity per tick.
	decayDt sim.Time
	decay   float64

	// Granularity selects the scheduling model. Zero (the default) is the
	// fluid model: capacity flows to all runnable entities at once in
	// weight proportion (CFS in the limit of infinitesimal re-picking) —
	// smooth, ideal for fast experiments. A positive value is the discrete
	// model: within a tick the queue repeatedly picks the minimum-vruntime
	// entity and runs it for up to Granularity before re-picking, exactly
	// like the kernel with that scheduling granularity — bursty at the
	// tick scale, proportional over longer windows.
	Granularity sim.Time
}

// peltDecay returns the load-tracking decay for a tick of length dt.
func (q *Queue) peltDecay(dt sim.Time) float64 {
	if dt != q.decayDt || q.decay == 0 {
		q.decayDt, q.decay = dt, peltDecay(dt)
	}
	return q.decay
}

// NewQueue returns an empty run queue.
func NewQueue() *Queue { return &Queue{} }

// Len reports the number of enqueued entities.
func (q *Queue) Len() int { return len(q.entities) }

// Entities returns the enqueued entities (shared slice; do not mutate).
func (q *Queue) Entities() []*Entity { return q.entities }

// Add enqueues an entity; re-adding an already enqueued entity is a no-op.
// As in the kernel, a newly arriving or migrating entity's vruntime is
// floored at the queue's minimum so it can neither starve the queue (hoarded
// low vruntime) nor be starved (vruntime far ahead).
func (q *Queue) Add(e *Entity) {
	if e.queue == q {
		return
	}
	if e.queue != nil {
		e.queue.Remove(e)
	}
	if e.vruntime < q.minVruntime {
		e.vruntime = q.minVruntime
	}
	e.queue = q
	e.qpos = len(q.entities)
	q.entities = append(q.entities, e)
	q.fillOK = false
}

// Remove dequeues an entity; it reports whether the entity was present.
// The entity's cached position makes the lookup O(1); the tail shift keeps
// queue order (and therefore tick-level floating-point evaluation order)
// identical to the scan-based implementation.
func (q *Queue) Remove(e *Entity) bool {
	if e.queue != q {
		return false
	}
	i := e.qpos
	copy(q.entities[i:], q.entities[i+1:])
	q.entities[len(q.entities)-1] = nil
	q.entities = q.entities[:len(q.entities)-1]
	for j := i; j < len(q.entities); j++ {
		q.entities[j].qpos = j
	}
	e.queue = nil
	e.qpos = 0
	e.work = 0 // a dequeued entity receives nothing until re-enqueued
	q.fillOK = false
	return true
}

// Contains reports whether e is enqueued.
func (q *Queue) Contains(e *Entity) bool { return e.queue == q }

// MinVruntime reports the queue's minimum-vruntime floor — the value newly
// arriving entities are floored at. It is non-decreasing over the queue's
// lifetime (the invariant checker pins this).
func (q *Queue) MinVruntime() float64 { return q.minVruntime }

// fillState is one entity's tick scratch: the fill's inputs (wantPU and
// weight, as the entity carried them) and results.
type fillState struct {
	wantPU, weight float64
	want           float64 // remaining work the entity would still accept
	got            float64 // work delivered this tick, in PU·s
	runnable       float64 // PELT runnable fraction over the tick
	active         bool
}

// Step plays out one scheduler tick of length dt on a core supplying
// supplyPU processing units. Each enqueued entity's delivered work lands in
// the entity (Work); Step returns the core utilization over the tick in
// [0,1].
//
// Within the tick the queue behaves like CFS with infinitesimal re-pick:
// capacity flows to the minimum-vruntime entity; when an entity's WantPU cap
// is reached it yields the remainder (work conservation). The result over
// the tick is the classic progressive-filling ("water-filling") allocation:
// proportional to weight, capped by want, with slack redistributed.
func (q *Queue) Step(supplyPU float64, dt sim.Time) float64 {
	capacity := supplyPU * dt.Seconds()
	if len(q.entities) == 0 || capacity <= 0 {
		decay := q.peltDecay(dt)
		for _, e := range q.entities {
			e.work = 0
			e.Load.update(0, decay)
		}
		return 0
	}
	if q.Granularity > 0 {
		return q.runTickDiscrete(supplyPU, dt)
	}
	if !q.fillCurrent(supplyPU, dt) {
		q.waterFill(supplyPU, dt)
	}

	// Account vruntime and load tracking.
	decay := q.peltDecay(dt)
	minV := -1.0
	for i, e := range q.entities {
		s := &q.fill[i]
		e.work = s.got
		if s.got > 0 {
			w := e.Weight
			if w <= 0 {
				w = 1
			}
			e.vruntime += s.got / w
		}
		e.Load.update(s.runnable, decay)
		if minV < 0 || e.vruntime < minV {
			minV = e.vruntime
		}
	}
	if minV > q.minVruntime {
		q.minVruntime = minV
	}
	return q.fillUtil
}

// fillCurrent reports whether the last fill was computed from exactly this
// tick's inputs: the same entities in the same order (fillOK), the same
// supply and tick length, and every entity's WantPU and Weight unchanged
// bit for bit.
func (q *Queue) fillCurrent(supplyPU float64, dt sim.Time) bool {
	if !q.fillOK || dt != q.fillDt ||
		math.Float64bits(supplyPU) != math.Float64bits(q.fillSupply) {
		return false
	}
	for i, e := range q.entities {
		s := &q.fill[i]
		if math.Float64bits(e.WantPU) != math.Float64bits(s.wantPU) ||
			math.Float64bits(e.Weight) != math.Float64bits(s.weight) {
			return false
		}
	}
	return true
}

// waterFill computes the fluid allocation of one tick into q.fill and
// records its inputs for fillCurrent.
func (q *Queue) waterFill(supplyPU float64, dt sim.Time) {
	seconds := dt.Seconds()
	capacity := supplyPU * seconds
	states := q.scratch()
	for i, e := range q.entities {
		want := capacity // unbounded ≙ can absorb the whole tick
		if e.WantPU >= 0 {
			want = e.WantPU * seconds
		}
		states[i] = fillState{wantPU: e.WantPU, weight: e.Weight, want: want, active: want > 0}
	}

	// Progressive filling: distribute remaining capacity proportionally to
	// weight among active entities; entities hitting their cap drop out and
	// the remainder is redistributed. Terminates in ≤ n rounds.
	remaining := capacity
	for remaining > 1e-12 {
		var totalW float64
		for i := range states {
			if states[i].active {
				totalW += states[i].weight
			}
		}
		if totalW <= 0 {
			break
		}
		allSatisfied := true
		consumed := 0.0
		for i := range states {
			s := &states[i]
			if !s.active {
				continue
			}
			share := remaining * s.weight / totalW
			if share >= s.want-1e-12 {
				share = s.want
				s.active = false
			} else {
				allSatisfied = false
			}
			s.got += share
			s.want -= share
			consumed += share
		}
		remaining -= consumed
		if allSatisfied || consumed <= 1e-12 {
			break
		}
	}

	used := 0.0
	for i := range states {
		s := &states[i]
		if s.got > 0 {
			used += s.got
		}
		// PELT tracks *runnable* time: an entity still wanting work at the
		// end of the tick was runnable (running or waiting) throughout.
		s.runnable = minf(s.got/capacity, 1)
		if s.want > 1e-9 {
			s.runnable = 1
		}
	}
	q.fillOK, q.fillSupply, q.fillDt, q.fillUtil = true, supplyPU, dt, used/capacity
}

// scratch returns the per-entity tick scratch, sized to the queue.
func (q *Queue) scratch() []fillState {
	if cap(q.fill) < len(q.entities) {
		q.fill = make([]fillState, len(q.entities))
	}
	q.fill = q.fill[:len(q.entities)]
	return q.fill
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

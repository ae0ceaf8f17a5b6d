package sched

import (
	"pricepower/internal/sim"
)

// Queue is one core's run queue. It implements CFS semantics: the entity
// with the smallest virtual runtime runs next, and an entity's virtual
// runtime advances by (real work / weight), so over time every runnable
// entity receives CPU in proportion to its weight.
type Queue struct {
	entities    []*Entity
	minVruntime float64

	// scratch and allocs are reusable per-tick buffers: the steady-state
	// RunTick must not allocate (the platform tick runs once per core per
	// simulated millisecond, and the allocation-free invariant is enforced by
	// TestTickAllocationFree / BenchmarkTickThroughput at the root).
	scratch []fillState
	allocs  []Allocation

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
	return true
}

// Contains reports whether e is enqueued.
func (q *Queue) Contains(e *Entity) bool { return e.queue == q }

// MinVruntime reports the queue's minimum-vruntime floor — the value newly
// arriving entities are floored at. It is non-decreasing over the queue's
// lifetime (the invariant checker pins this).
func (q *Queue) MinVruntime() float64 { return q.minVruntime }

// fillState is the per-entity progressive-filling scratch state.
type fillState struct {
	e      *Entity
	want   float64 // remaining work the entity will accept this tick
	got    float64
	active bool
}

// RunTick plays out one scheduler tick of length dt on a core supplying
// supplyPU processing units. It returns the work delivered to each entity
// that ran, and the core utilization over the tick in [0,1]. The returned
// slice is a reusable buffer owned by the queue — it is valid until the next
// RunTick call; callers must consume it immediately (or copy it).
//
// Within the tick the queue behaves like CFS with infinitesimal re-pick:
// capacity flows to the minimum-vruntime entity; when an entity's WantPU cap
// is reached it yields the remainder (work conservation). The result over
// the tick is the classic progressive-filling ("water-filling") allocation:
// proportional to weight, capped by want, with slack redistributed.
func (q *Queue) RunTick(supplyPU float64, dt sim.Time) ([]Allocation, float64) {
	seconds := dt.Seconds()
	capacity := supplyPU * seconds
	if len(q.entities) == 0 || capacity <= 0 {
		decay := q.peltDecay(dt)
		for _, e := range q.entities {
			e.Load.update(0, decay)
		}
		return nil, 0
	}
	if q.Granularity > 0 {
		return q.runTickDiscrete(supplyPU, dt)
	}

	if cap(q.scratch) < len(q.entities) {
		q.scratch = make([]fillState, len(q.entities))
	}
	states := q.scratch[:len(q.entities)]
	for i, e := range q.entities {
		want := capacity // unbounded ≙ can absorb the whole tick
		if e.WantPU >= 0 {
			want = e.WantPU * seconds
		}
		states[i] = fillState{e: e, want: want, active: want > 0}
	}

	// Progressive filling: distribute remaining capacity proportionally to
	// weight among active entities; entities hitting their cap drop out and
	// the remainder is redistributed. Terminates in ≤ n rounds.
	remaining := capacity
	for remaining > 1e-12 {
		var totalW float64
		for i := range states {
			if states[i].active {
				totalW += states[i].e.Weight
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
			share := remaining * s.e.Weight / totalW
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

	// Account vruntime, load tracking, and build the result.
	decay := q.peltDecay(dt)
	allocs := q.allocs[:0]
	used := 0.0
	minV := -1.0
	for i := range states {
		s := &states[i]
		if s.got > 0 {
			w := s.e.Weight
			if w <= 0 {
				w = 1
			}
			s.e.vruntime += s.got / w
			allocs = append(allocs, Allocation{Entity: s.e, WorkPU: s.got})
			used += s.got
		}
		// PELT tracks *runnable* time: an entity still wanting work at the
		// end of the tick was runnable (running or waiting) throughout.
		runnable := minf(s.got/capacity, 1)
		if s.want > 1e-9 {
			runnable = 1
		}
		s.e.Load.update(runnable, decay)
		if minV < 0 || s.e.vruntime < minV {
			minV = s.e.vruntime
		}
	}
	if minV > q.minVruntime {
		q.minVruntime = minV
	}
	sortAllocs(allocs)
	q.allocs = allocs
	return allocs, used / capacity
}

// sortAllocs orders allocations by entity ID (deterministic output across
// queue-order churn). Insertion sort: run queues are small and the input is
// near-sorted, and unlike sort.Slice it does not allocate.
func sortAllocs(a []Allocation) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Entity.ID < a[j-1].Entity.ID; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

package sched

import "pricepower/internal/sim"

// runTickDiscrete is the pick-next scheduling model: the minimum-vruntime
// entity runs for up to Granularity (or until its want is exhausted), then
// the queue re-picks, until the tick's capacity is spent or nobody wants
// more. Matches kernel CFS with sched_min_granularity = Granularity.
func (q *Queue) runTickDiscrete(supplyPU float64, dt sim.Time) ([]Allocation, float64) {
	seconds := dt.Seconds()
	capacity := supplyPU * seconds

	// Remaining want per entity for this tick, in PU·s.
	want := make(map[*Entity]float64, len(q.entities))
	got := make(map[*Entity]float64, len(q.entities))
	for _, e := range q.entities {
		w := capacity
		if e.WantPU >= 0 {
			w = e.WantPU * seconds
		}
		want[e] = w
	}

	sliceWork := supplyPU * q.Granularity.Seconds()
	remaining := capacity
	for remaining > 1e-12 {
		// Pick-next: minimum vruntime among entities still wanting work.
		var next *Entity
		for _, e := range q.entities {
			if want[e] <= 1e-12 {
				continue
			}
			if next == nil || e.vruntime < next.vruntime {
				next = e
			}
		}
		if next == nil {
			break
		}
		run := sliceWork
		if run > want[next] {
			run = want[next]
		}
		if run > remaining {
			run = remaining
		}
		got[next] += run
		want[next] -= run
		remaining -= run
		w := next.Weight
		if w <= 0 {
			w = 1
		}
		next.vruntime += run / w
	}

	var allocs []Allocation
	used := 0.0
	minV := -1.0
	decay := q.peltDecay(dt)
	for _, e := range q.entities {
		if g := got[e]; g > 0 {
			allocs = append(allocs, Allocation{Entity: e, WorkPU: g})
			used += g
		}
		runnable := minf(got[e]/capacity, 1)
		if want[e] > 1e-9 {
			runnable = 1
		}
		e.Load.update(runnable, decay)
		if minV < 0 || e.vruntime < minV {
			minV = e.vruntime
		}
	}
	if minV > q.minVruntime {
		q.minVruntime = minV
	}
	return allocs, used / capacity
}

package sched

import "pricepower/internal/sim"

// runTickDiscrete is the pick-next scheduling model: the minimum-vruntime
// entity runs for up to Granularity (or until its want is exhausted), then
// the queue re-picks, until the tick's capacity is spent or nobody wants
// more. Matches kernel CFS with sched_min_granularity = Granularity.
// Vruntime moves within the tick, so no fill is reused across ticks; the
// per-entity want and work live in the queue's scratch, parallel to its
// entities.
func (q *Queue) runTickDiscrete(supplyPU float64, dt sim.Time) float64 {
	seconds := dt.Seconds()
	capacity := supplyPU * seconds

	// Remaining want per entity for this tick, in PU·s.
	q.fillOK = false
	states := q.scratch()
	for i, e := range q.entities {
		w := capacity
		if e.WantPU >= 0 {
			w = e.WantPU * seconds
		}
		states[i] = fillState{want: w}
	}

	sliceWork := supplyPU * q.Granularity.Seconds()
	remaining := capacity
	for remaining > 1e-12 {
		// Pick-next: minimum vruntime among entities still wanting work.
		next := -1
		for i, e := range q.entities {
			if states[i].want <= 1e-12 {
				continue
			}
			if next < 0 || e.vruntime < q.entities[next].vruntime {
				next = i
			}
		}
		if next < 0 {
			break
		}
		s, e := &states[next], q.entities[next]
		run := sliceWork
		if run > s.want {
			run = s.want
		}
		if run > remaining {
			run = remaining
		}
		s.got += run
		s.want -= run
		remaining -= run
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		e.vruntime += run / w
	}

	used := 0.0
	minV := -1.0
	decay := q.peltDecay(dt)
	for i, e := range q.entities {
		s := &states[i]
		e.work = s.got
		if s.got > 0 {
			used += s.got
		}
		runnable := minf(s.got/capacity, 1)
		if s.want > 1e-9 {
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
	return used / capacity
}

package task

import "pricepower/internal/sim"

// DefaultHRMWindow is the sliding window over which the Heart Rate Monitor
// reports a task's heart rate. Ten bid rounds (§3.4: 31.7 ms each) smooth
// the burstiness of fair scheduling without making the control loop
// sluggish.
const DefaultHRMWindow = 317 * sim.Millisecond

// Window measures an event rate over a sliding time window from cumulative
// counter samples, like the HRM infrastructure's heartbeats-per-second
// reading.
//
// Samples live in one ring of (time, count) pairs: eviction reads the pair
// after the head, and keeping both halves of a sample on one cache line
// makes that read the only miss per Sample. Indices wrap with a compare,
// not a modulo.
type Window struct {
	span sim.Time
	ring []sample
	head int // index of oldest sample
	n    int // number of valid samples
}

// sample is one cumulative counter reading.
type sample struct {
	t     sim.Time
	count float64
}

// NewWindow returns a rate window of the given span.
func NewWindow(span sim.Time) Window {
	if span <= 0 {
		span = DefaultHRMWindow
	}
	return Window{span: span}
}

// Sample records that the cumulative counter had value count at time now.
// Samples must arrive in non-decreasing time order.
func (w *Window) Sample(now sim.Time, count float64) {
	if len(w.ring) == 0 {
		// Size the ring generously: one sample per ~1ms tick across the span.
		size := int(w.span/sim.Millisecond) + 2
		if size < 8 {
			size = 8
		}
		w.ring = make([]sample, size)
	}
	// Drop samples that have slid out of the window.
	w.evict(now)
	if w.n == len(w.ring) {
		// Ring full (caller sampling faster than once per ms): drop oldest.
		w.head = w.wrap(w.head + 1)
		w.n--
	}
	w.ring[w.wrap(w.head+w.n)] = sample{now, count}
	w.n++
}

// wrap maps a ring position in [0, 2·len) back into the ring.
func (w *Window) wrap(i int) int {
	if i >= len(w.ring) {
		i -= len(w.ring)
	}
	return i
}

func (w *Window) evict(now sim.Time) {
	for w.n > 1 {
		next := w.wrap(w.head + 1)
		// Keep one sample at or before the window edge so the rate spans the
		// full window.
		if w.ring[next].t > now-w.span {
			return
		}
		w.head = next
		w.n--
	}
}

// Rate reports the average event rate per second over the window ending at
// now. With fewer than two samples the rate is zero.
func (w *Window) Rate(now sim.Time) float64 {
	if w.n < 2 {
		return 0
	}
	oldest := w.ring[w.head]
	newest := w.ring[w.wrap(w.head+w.n-1)]
	dt := newest.t - oldest.t
	if dt <= 0 {
		return 0
	}
	return (newest.count - oldest.count) / dt.Seconds()
}

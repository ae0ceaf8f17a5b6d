package task

import (
	"math"

	"pricepower/internal/sim"
)

// DefaultHRMWindow is the sliding window over which the Heart Rate Monitor
// reports a task's heart rate. Ten bid rounds (§3.4: 31.7 ms each) smooth
// the burstiness of fair scheduling without making the control loop
// sluggish.
const DefaultHRMWindow = 317 * sim.Millisecond

// maxWindowSpan caps a window's span at the largest spacing a run can
// store, so a gap too wide to store always empties the window but for its
// newest sample.
const maxWindowSpan = sim.Time(math.MaxUint32)

// Window measures an event rate over a sliding time window from cumulative
// counter samples, like the HRM infrastructure's heartbeats-per-second
// reading. The window owns the counter: each sample adds its increment.
//
// Samples are stored as runs: a run is a first sample plus further samples
// at a fixed spacing, each adding the same increment to the count. A task's
// steady ticks all fall into one run, so a tick extends the tail run in
// place and a span of ticks appends one run; evicting trims the head run
// by replaying its increment, the same float additions in the same order
// that produced the counts, so every sample the window reports is
// bit-identical to a window holding one slot per sample.
//
// The window holds at most cap samples (one per millisecond of span, plus
// two, at least 8), dropping the oldest when full. Any two consecutive
// samples can share a run, so every run but the head and the tail holds
// at least two samples and ⌈cap/2⌉+1 runs always suffice. They are
// allocated once, at the first sample, together with two cursor slots:
// hd, the head run from the oldest sample on, and tl, the tail run seen
// from the newest sample. The steady tick and Rate touch only the cursors.
type Window struct {
	span sim.Time
	// hd holds the oldest sample's time and count, the head run's spacing
	// and increment, and the samples left in it from the oldest on. tl
	// holds the newest sample's time and count, the tail run's spacing
	// and increment (set by its second sample) and its samples so far.
	hd, tl *run
	// runs is the ring: each run's first sample and, once the run is
	// closed, its spacing, increment and length.
	runs       []run
	head, tail int32 // ring positions of the head and tail runs
	n, cap     int32 // samples held, most samples held
}

// run is a ring entry or a cursor (see Window).
type run struct {
	t   sim.Time
	c   float64
	inc float64
	sp  uint32
	len uint32
}

// NewWindow returns a rate window of the given span.
func NewWindow(span sim.Time) Window {
	if span <= 0 {
		span = DefaultHRMWindow
	}
	return Window{span: min(span, maxWindowSpan)}
}

// Count reports the newest sample's cumulative count (zero before the
// first sample).
func (w *Window) Count() float64 {
	if w.tl == nil {
		return 0
	}
	return w.tl.c
}

// Add records that the counter rose by inc to its new count at time now.
// Samples must arrive in non-decreasing time order.
func (w *Window) Add(now sim.Time, inc float64) {
	if tl, hd := w.tl, w.hd; tl != nil && tl.len > 1 && now-tl.t == sim.Time(tl.sp) &&
		math.Float64bits(inc) == math.Float64bits(tl.inc) && hd.len > 2 {
		edge, sp := now-w.span, sim.Time(hd.sp)
		if hd.t+sp <= edge && hd.t+2*sp > edge {
			// The steady tick: the sample extends the tail run, and the
			// oldest sample, inside the head run, slides out.
			tl.t, tl.c = now, tl.c+inc
			tl.len++
			hd.t, hd.c = hd.t+sp, hd.c+hd.inc
			if w.head != w.tail {
				hd.len--
			}
			return
		}
	}
	w.add(now, inc)
}

// add is Add's general case, in the oracle's order: evict, drop the
// oldest sample if full, then extend the tail run or open a new one.
func (w *Window) add(now sim.Time, inc float64) {
	if w.tl == nil {
		// Size for one sample per ~1ms tick across the span.
		w.cap = int32(max(w.span/sim.Millisecond+2, 8))
		all := make([]run, 2+(w.cap+1)/2+1)
		w.hd, w.tl, w.runs = &all[0], &all[1], all[2:]
		var c float64 // the count starts at zero
		c += inc
		w.runs[0] = run{t: now, c: c}
		*w.hd = run{t: now, c: c, len: 1}
		*w.tl = *w.hd
		w.n = 1
		return
	}
	w.evict(now - w.span)
	if w.n == w.cap {
		w.drop(1)
	}
	tl := w.tl
	c := tl.c + inc
	switch gap := now - tl.t; {
	case tl.len > 1 && gap == sim.Time(tl.sp) && math.Float64bits(inc) == math.Float64bits(tl.inc):
		w.grow(1)
	case tl.len == 1 && gap <= maxWindowSpan:
		w.shapeTail(gap, inc)
		w.grow(1)
	default:
		w.openRun(now, c)
	}
	tl.t, tl.c = now, c
	w.n++
}

// AddN records n samples dt apart, the first at now+dt, the counter
// rising by inc at each: the same state and counts as n Add calls.
func (w *Window) AddN(now, dt sim.Time, n int, inc float64) {
	if n <= 0 {
		return
	}
	w.Add(now+dt, inc)
	if n == 1 {
		return
	}
	if dt > maxWindowSpan {
		for i := 2; i <= n; i++ {
			w.Add(now+sim.Time(i)*dt, inc)
		}
		return
	}
	// The other k samples extend the tail run, or open one run.
	k, tl := n-1, w.tl
	switch {
	case tl.len > 1 && dt == sim.Time(tl.sp) && math.Float64bits(inc) == math.Float64bits(tl.inc):
		w.grow(k)
	case tl.len == 1:
		w.shapeTail(dt, inc)
		w.grow(k)
	default:
		w.openRun(tl.t+dt, tl.c+inc)
		if k > 1 {
			w.shapeTail(dt, inc)
		}
		w.grow(k - 1)
	}
	c := tl.c
	for i := 0; i < k; i++ {
		c += inc
	}
	tl.t, tl.c = now+sim.Time(n)*dt, c
	w.n += int32(k)
	// Appending before evicting keeps exactly the samples n Add calls
	// would: each call's eviction edge and fill limit are passed by the
	// last one's.
	w.evict(tl.t - w.span)
	if w.n > w.cap {
		w.drop(int(w.n - w.cap))
	}
}

// shapeTail gives a one-sample tail run its spacing and increment.
func (w *Window) shapeTail(sp sim.Time, inc float64) {
	w.tl.sp, w.tl.inc = uint32(sp), inc
	if w.head == w.tail {
		w.hd.sp, w.hd.inc = w.tl.sp, inc
	}
}

// grow adds k samples to the tail run.
func (w *Window) grow(k int) {
	w.tl.len += uint32(k)
	if w.head == w.tail {
		w.hd.len += uint32(k)
	}
}

// openRun closes the tail run and opens a one-sample run at (t, c); the
// caller moves tl to the newest sample.
func (w *Window) openRun(t sim.Time, c float64) {
	r, tl := &w.runs[w.tail], w.tl
	r.inc, r.sp, r.len = tl.inc, tl.sp, tl.len
	w.tail = w.wrap(w.tail + 1)
	if w.tail == w.head {
		panic("task: HRM window ring overflow")
	}
	w.runs[w.tail] = run{t: t, c: c}
	tl.len = 1
}

// wrap maps a ring position in [0, 2·len) back into the ring.
func (w *Window) wrap(i int32) int32 {
	if int(i) >= len(w.runs) {
		i -= int32(len(w.runs))
	}
	return i
}

// evict drops samples that have slid out of the window, keeping one at or
// before the edge so the rate spans the full window.
func (w *Window) evict(edge sim.Time) {
	for w.n > 1 {
		hd := w.hd
		if hd.len == 1 {
			if w.runs[w.wrap(w.head+1)].t > edge {
				return
			}
			w.nextHead()
			w.n--
			continue
		}
		sp := sim.Time(hd.sp)
		if hd.t+sp > edge {
			return
		}
		k := int(hd.len) - 1
		if hd.t+2*sp > edge {
			k = 1
		} else if sp > 0 {
			k = min(k, int((edge-hd.t)/sp))
		}
		w.trimHead(k)
	}
}

// drop drops the k oldest samples (k < n).
func (w *Window) drop(k int) {
	for k > 0 {
		if w.hd.len == 1 {
			w.nextHead()
			w.n--
			k--
			continue
		}
		j := min(k, int(w.hd.len)-1)
		w.trimHead(j)
		k -= j
	}
}

// trimHead drops the k oldest samples, all inside the head run (k <
// hd.len): the oldest count takes the run's k additions.
func (w *Window) trimHead(k int) {
	hd := w.hd
	c, inc := hd.c, hd.inc
	for i := 0; i < k; i++ {
		c += inc
	}
	hd.t, hd.c = hd.t+sim.Time(k)*sim.Time(hd.sp), c
	hd.len -= uint32(k)
	w.n -= int32(k)
}

// nextHead makes the run after the head the head run.
func (w *Window) nextHead() {
	w.head = w.wrap(w.head + 1)
	r := &w.runs[w.head]
	if w.head != w.tail {
		*w.hd = *r
		return
	}
	tl := w.tl
	*w.hd = run{t: r.t, c: r.c, inc: tl.inc, sp: tl.sp, len: tl.len}
}

// Rate reports the average event rate per second over the window ending at
// now. With fewer than two samples the rate is zero.
func (w *Window) Rate(now sim.Time) float64 {
	if w.tl == nil {
		return 0
	}
	dt := w.tl.t - w.hd.t
	if dt <= 0 {
		return 0
	}
	return (w.tl.c - w.hd.c) / dt.Seconds()
}

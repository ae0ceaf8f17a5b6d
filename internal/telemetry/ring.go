package telemetry

import "sync"

// RingSink keeps the most recent events in a fixed-size in-memory ring,
// overwriting the oldest when full — the always-on flight recorder behind
// the /events endpoint. Emission is a mutex-guarded slot write (no
// allocation); Snapshot copies the live window out in oldest-to-newest
// order.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever emitted; buf[total % len] is the next slot
}

// NewRing builds a ring holding the last n events (minimum 1).
func NewRing(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, n)}
}

// Emit implements Sink: the event takes the next slot, overwriting the
// oldest once the ring has wrapped.
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// Total reports how many events were ever emitted into the ring.
func (r *RingSink) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many events have been overwritten (backpressure:
// total emitted minus the window still held).
func (r *RingSink) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Snapshot returns a copy of the held events, oldest first.
func (r *RingSink) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	cap := uint64(len(r.buf))
	if n > cap {
		n = cap
	}
	out := make([]Event, n)
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		out[i] = r.buf[(start+i)%cap]
	}
	return out
}

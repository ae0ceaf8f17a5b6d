package task

import (
	"math"
	"testing"

	"pricepower/internal/sim"
)

// refWindow is the two-slice, modulo-indexed ring Window replaced: the
// oracle the pair ring must match bit for bit.
type refWindow struct {
	span   sim.Time
	times  []sim.Time
	counts []float64
	head   int
	n      int
}

func (w *refWindow) Sample(now sim.Time, count float64) {
	if cap(w.times) == 0 {
		size := int(w.span/sim.Millisecond) + 2
		if size < 8 {
			size = 8
		}
		w.times = make([]sim.Time, size)
		w.counts = make([]float64, size)
	}
	w.evict(now)
	if w.n == len(w.times) {
		w.head = (w.head + 1) % len(w.times)
		w.n--
	}
	i := (w.head + w.n) % len(w.times)
	w.times[i] = now
	w.counts[i] = count
	w.n++
}

func (w *refWindow) evict(now sim.Time) {
	for w.n > 1 {
		next := (w.head + 1) % len(w.times)
		if w.times[next] > now-w.span {
			return
		}
		w.head = next
		w.n--
	}
}

func (w *refWindow) Rate(now sim.Time) float64 {
	if w.n < 2 {
		return 0
	}
	oldest := w.head
	newest := (w.head + w.n - 1) % len(w.times)
	dt := w.times[newest] - w.times[oldest]
	if dt <= 0 {
		return 0
	}
	return (w.counts[newest] - w.counts[oldest]) / dt.Seconds()
}

// The pair ring reports exactly the oracle's rates over random
// non-decreasing sample times: steady 1 ms ticks, gaps longer than the
// span, sub-millisecond bursts with repeated timestamps that fill the ring
// (its drop-oldest path), and Rate queries between samples.
func TestWindowMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		span := []sim.Time{3 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond, DefaultHRMWindow}[rng.Intn(4)]
		w, ref := NewWindow(span), refWindow{span: span}
		now, count := sim.Time(0), 0.0
		fullSeen := false
		for i := 0; i < 3000; i++ {
			// Alternate 400-sample stretches of steady ticks (with the odd
			// gap past the span) and sub-millisecond bursts, which outrun
			// the ring's one-slot-per-ms sizing.
			switch r := rng.Intn(50); {
			case (i/400)%2 == 1:
				if r >= 5 { // else: the same timestamp again
					now += sim.Time(rng.Intn(int(sim.Millisecond / 4)))
				}
			case r == 0:
				now += span + sim.Time(rng.Intn(int(2*span)))
			default:
				now += sim.Millisecond
			}
			count += rng.Range(0, 3)
			w.Sample(now, count)
			ref.Sample(now, count)
			fullSeen = fullSeen || w.n == len(w.ring)
			q := now
			if rng.Intn(3) == 0 {
				q += sim.Time(rng.Intn(int(span))) // query between samples
			}
			got, want := w.Rate(q), ref.Rate(q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: Rate(%v) = %v, reference %v", seed, i, q, got, want)
			}
			if w.n != ref.n || len(w.ring) != len(ref.times) {
				t.Fatalf("seed %d step %d: %d samples in a ring of %d, reference %d in %d",
					seed, i, w.n, len(w.ring), ref.n, len(ref.times))
			}
		}
		if !fullSeen {
			t.Errorf("seed %d: the ring never filled; the drop-oldest path went untested", seed)
		}
	}
}

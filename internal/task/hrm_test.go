package task

import (
	"fmt"
	"math"
	"testing"

	"pricepower/internal/hw"

	"pricepower/internal/sim"
)

// refWindow is a two-slice, modulo-indexed ring holding one slot per
// sample: the oracle the run ring must match bit for bit.
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

// windowPair feeds a Window and the oracle the same samples: the Window
// takes increments, the oracle the running count they add up to.
type windowPair struct {
	w     Window
	ref   refWindow
	now   sim.Time
	count float64
}

func newWindowPair(span sim.Time) *windowPair {
	return &windowPair{w: NewWindow(span), ref: refWindow{span: span}}
}

func (p *windowPair) add(now sim.Time, inc float64) {
	p.now, p.count = now, p.count+inc
	p.w.Add(now, inc)
	p.ref.Sample(now, p.count)
}

// addN appends a run (the span path) and samples the oracle per tick.
func (p *windowPair) addN(dt sim.Time, n int, inc float64) {
	p.w.AddN(p.now, dt, n, inc)
	for i := 1; i <= n; i++ {
		p.count += inc
		p.ref.Sample(p.now+sim.Time(i)*dt, p.count)
	}
	p.now += sim.Time(n) * dt
}

// check compares the rate at q, the oldest and newest samples and the
// sample count with the oracle (openRun panics should the runs outgrow
// the ring).
func (p *windowPair) check(t *testing.T, q sim.Time, where string) {
	t.Helper()
	w, ref := &p.w, &p.ref
	got, want := w.Rate(q), ref.Rate(q)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Rate(%v) = %v, reference %v", where, q, got, want)
	}
	if math.Float64bits(w.Count()) != math.Float64bits(p.count) {
		t.Fatalf("%s: Count() = %v, summed %v", where, w.Count(), p.count)
	}
	if int(w.n) != ref.n || int(w.cap) != len(ref.times) {
		t.Fatalf("%s: %d samples of at most %d, reference %d of %d", where, w.n, w.cap, ref.n, len(ref.times))
	}
	if ref.n == 0 {
		return
	}
	oi, ni := ref.head, (ref.head+ref.n-1)%len(ref.times)
	if w.hd.t != ref.times[oi] || math.Float64bits(w.hd.c) != math.Float64bits(ref.counts[oi]) ||
		w.tl.t != ref.times[ni] {
		t.Fatalf("%s: oldest (%v, %v) newest at %v, reference (%v, %v) and %v",
			where, w.hd.t, w.hd.c, w.tl.t, ref.times[oi], ref.counts[oi], ref.times[ni])
	}
	if len(w.runs) != int(w.cap+1)/2+1 {
		t.Fatalf("%s: ring of %d runs for %d samples", where, len(w.runs), w.cap)
	}
	if w.hd.len < 1 || w.hd.len > uint32(w.n) {
		t.Fatalf("%s: %d samples left in the head run of %d", where, w.hd.len, w.n)
	}
}

// The run ring reports exactly the oracle's samples and rates over random
// non-decreasing sample times and increments: steady 1 ms ticks whose
// increment repeats (runs form) and changes (runs break), gaps longer than
// the span, sub-millisecond bursts at a fixed spacing that fill the ring
// and drop the oldest sample from inside the head run, repeated
// timestamps, appended runs of random length (the span path), and Rate
// queries between samples.
func TestWindowMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		span := []sim.Time{3 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond, DefaultHRMWindow}[rng.Intn(4)]
		p := newWindowPair(span)
		incs := []float64{0, 0.5, 1.25, rng.Range(0, 3)}
		inc := incs[0]
		fullInRun, spans := false, 0
		for i := 0; i < 3000; i++ {
			if rng.Intn(5) == 0 { // else: the increment repeats
				inc = incs[rng.Intn(len(incs))]
				if rng.Intn(4) == 0 {
					inc = rng.Range(0, 3)
				}
			}
			// Rotate 400-sample stretches: steady ticks (with the odd gap
			// past the span), sub-millisecond bursts, appended runs.
			switch r := rng.Intn(50); {
			case (i/400)%3 == 1:
				gap := []sim.Time{0, 50, 250}[(i/1200)%3]
				if r < 3 {
					gap = sim.Time(rng.Intn(int(sim.Millisecond / 4)))
				}
				fullInRun = fullInRun || (p.w.n == p.w.cap && p.w.hd.len > 1)
				p.add(p.now+gap, inc)
			case (i/400)%3 == 2:
				dt := []sim.Time{250, 500, sim.Millisecond, 2 * sim.Millisecond}[rng.Intn(4)]
				p.addN(dt, 1+rng.Intn(int(p.w.cap)+12), inc)
				spans++
			case r == 0:
				p.add(p.now+span+sim.Time(rng.Intn(int(2*span))), inc)
			default:
				p.add(p.now+sim.Millisecond, inc)
			}
			q := p.now
			if rng.Intn(3) == 0 {
				q += sim.Time(rng.Intn(int(span))) // query between samples
			}
			p.check(t, q, fmt.Sprintf("seed %d step %d", seed, i))
		}
		if !fullInRun || spans == 0 {
			t.Errorf("seed %d: full with a multi-sample head run %v, %d appended runs", seed, fullInRun, spans)
		}
	}
}

// FuzzWindowRuns drives the run ring and the oracle with byte-coded
// operations: three bytes each pick a single sample or an appended run,
// its spacing and its increment.
func FuzzWindowRuns(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 0, 1, 1, 0, 1, 2, 1, 3, 1})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 2, 0, 1, 0, 9, 3})
	f.Add(uint8(3), []byte{1, 40, 1, 1, 200, 1, 0, 255, 2, 1, 7, 0})
	f.Add(uint8(0), []byte{50, 50, 48}) // one appended run longer than the window
	f.Fuzz(func(t *testing.T, spanSel uint8, ops []byte) {
		span := []sim.Time{3 * sim.Millisecond, 8 * sim.Millisecond, 20 * sim.Millisecond, DefaultHRMWindow}[spanSel%4]
		p := newWindowPair(span)
		gaps := []sim.Time{0, 100, 250, sim.Millisecond, 2 * sim.Millisecond}
		incs := []float64{0, 0.5, 1.25, 3, 1e-3}
		for i := 0; i+2 < len(ops); i += 3 {
			kind, g, c := ops[i], ops[i+1], ops[i+2]
			inc := incs[int(c)%len(incs)]
			switch kind % 4 {
			case 0, 1:
				gap := gaps[int(g)%len(gaps)]
				if g >= 250 {
					gap = span + sim.Time(g)
				}
				p.add(p.now+gap, inc)
			default:
				p.addN(gaps[1+int(g)%(len(gaps)-1)], 1+int(g>>3)+int(kind>>2), inc)
			}
			p.check(t, p.now, fmt.Sprintf("op %d", i/3))
		}
	})
}

// BenchmarkAdvance guards the per-tick HRM path: 256 tasks each take one
// Advance and one HeartRate per tick, and a 30-tick AdvanceN per task.
func BenchmarkAdvance(b *testing.B) {
	spec := Spec{Name: "b", Priority: 1, MinHR: 10, MaxHR: 14,
		Phases: []Phase{{HBCostLittle: 20, SpeedupBig: 2}}}
	tasks := make([]*Task, 256)
	for i := range tasks {
		tasks[i] = New(i, spec)
	}
	var sink float64
	now := sim.Time(0)
	tick := func(i int) {
		now += sim.Millisecond
		for j, tk := range tasks {
			// The work changes every 32 ticks, as across bid rounds.
			tk.Advance(0.01+0.001*float64((i/32+j)%7), hw.Little, sim.Millisecond, now)
			sink += tk.HeartRate(now)
		}
	}
	for i := 0; i < 400; i++ { // fill the windows
		tick(i)
	}
	b.Run("tick", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tick(i)
		}
	})
	b.Run("span30", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, tk := range tasks {
				tk.AdvanceN(0.01+0.001*float64((i+j)%7), hw.Little, sim.Millisecond, now, 30)
			}
			now += 30 * sim.Millisecond
		}
	})
	benchSink = sink
}

var benchSink float64

package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatalf("unit ratios wrong: s=%d ms=%d", Second, Millisecond)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := FromMillis(31.7); got != 31700 {
		t.Errorf("FromMillis(31.7) = %d, want 31700", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Microsecond, "500µs"},
		{2500 * Microsecond, "2.500ms"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineAdvancesClock(t *testing.T) {
	e := NewEngine(Millisecond)
	if e.Now() != 0 {
		t.Fatalf("fresh engine Now() = %v", e.Now())
	}
	e.RunFor(10 * Millisecond)
	if e.Now() != 10*Millisecond {
		t.Errorf("after RunFor(10ms) Now() = %v", e.Now())
	}
	e.RunUntil(10 * Millisecond) // already there; must not move
	if e.Now() != 10*Millisecond {
		t.Errorf("RunUntil(now) moved clock to %v", e.Now())
	}
}

func TestEngineHooksFireEveryTickInOrder(t *testing.T) {
	e := NewEngine(Millisecond)
	var order []int
	e.AddHook(TickFunc(func(now Time) { order = append(order, 1) }))
	e.AddHook(TickFunc(func(now Time) { order = append(order, 2) }))
	e.RunFor(3 * Millisecond)
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("hook firings = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook firings = %v, want %v", order, want)
		}
	}
}

func TestEngineEventsFireOnceAtTheRightTick(t *testing.T) {
	e := NewEngine(Millisecond)
	var fired []Time
	e.At(2500*Microsecond, func(now Time) { fired = append(fired, now) })
	e.At(Millisecond, func(now Time) { fired = append(fired, now) })
	e.RunFor(5 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != Millisecond {
		t.Errorf("first event fired at %v, want 1ms", fired[0])
	}
	// 2.5ms event fires at the end of the tick that covers it (3ms).
	if fired[1] != 3*Millisecond {
		t.Errorf("second event fired at %v, want 3ms", fired[1])
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after run, want 0", e.Pending())
	}
}

func TestEngineEqualTimeEventsFIFO(t *testing.T) {
	e := NewEngine(Millisecond)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(Millisecond, func(now Time) { order = append(order, i) })
	}
	e.RunFor(Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of order: %v", order)
		}
	}
}

func TestEngineEventsBeforeHooks(t *testing.T) {
	e := NewEngine(Millisecond)
	var order []string
	e.AddHook(TickFunc(func(now Time) { order = append(order, "hook") }))
	e.At(Millisecond, func(now Time) { order = append(order, "event") })
	e.RunFor(Millisecond)
	if len(order) != 2 || order[0] != "event" || order[1] != "hook" {
		t.Fatalf("order = %v, want [event hook]", order)
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(Millisecond)
	e.RunFor(5 * Millisecond)
	var at Time
	e.After(2*Millisecond, func(now Time) { at = now })
	e.RunFor(5 * Millisecond)
	if at != 7*Millisecond {
		t.Errorf("After(2ms) from t=5ms fired at %v, want 7ms", at)
	}
}

func TestEnginePastEventFiresNextTick(t *testing.T) {
	e := NewEngine(Millisecond)
	e.RunFor(5 * Millisecond)
	var at Time
	e.At(Millisecond, func(now Time) { at = now }) // in the past
	e.StepOnce()
	if at != 6*Millisecond {
		t.Errorf("past event fired at %v, want 6ms", at)
	}
}

func TestEngineRejectsBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine(0) did not panic")
		}
	}()
	NewEngine(0)
}

func TestRandDeterministicAndDistinct(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRandFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestRandIntnAndRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
		if v := r.Range(2, 5); v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandForkIndependent(t *testing.T) {
	r := NewRand(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked generators produced identical first values")
	}
}

// spanLog is a Spanner that records every tick it plays, singly or in a
// span, and accepts at most take ticks of each offer (0: decline all).
type spanLog struct {
	e      *Engine
	take   int
	ticks  []Time // every tick end, in play order
	offers [][2]Time
}

func (s *spanLog) Tick(now Time) { s.ticks = append(s.ticks, now) }

func (s *spanLog) Span(now Time, n int) int {
	if n < 2 {
		panic("span offered fewer than 2 ticks")
	}
	s.offers = append(s.offers, [2]Time{now + s.e.Step(), now + Time(n)*s.e.Step()})
	k := min(n, s.take)
	for i := 1; i <= k; i++ {
		s.ticks = append(s.ticks, now+Time(i)*s.e.Step())
	}
	return k
}

// TestEngineSpanStopsAtEventsAndRunEnd: an offered span never covers the
// tick at which an event falls due, nor a tick past the run's end; the
// ticks played (spanned or not) are exactly the per-tick sequence, and
// every event fires at the tick it would fire at without spans.
func TestEngineSpanStopsAtEventsAndRunEnd(t *testing.T) {
	for _, take := range []int{0, 3, 1 << 30} {
		e := NewEngine(Millisecond)
		s := &spanLog{e: e, take: take}
		e.AddHook(s)
		var fired []Time
		fire := func(now Time) { fired = append(fired, now) }
		dues := []Time{7 * Millisecond, 7500 * Microsecond, 20 * Millisecond, 21 * Millisecond, 40*Millisecond + 1}
		for _, at := range dues {
			e.At(at, fire)
		}
		e.At(30*Millisecond, func(now Time) { e.After(4*Millisecond, fire) })
		ends := []Time{12 * Millisecond, 25*Millisecond + 400*Microsecond, 60 * Millisecond}
		for _, end := range ends {
			e.RunUntil(end)
		}
		if e.Now() != 60*Millisecond {
			t.Fatalf("take %d: clock at %v, want 60ms", take, e.Now())
		}
		for i, at := range s.ticks {
			if want := Time(i+1) * Millisecond; at != want {
				t.Fatalf("take %d: tick %d played at %v, want %v", take, i, at, want)
			}
		}
		if len(s.ticks) != 60 {
			t.Fatalf("take %d: %d ticks played, want 60", take, len(s.ticks))
		}
		wantFired := []Time{7 * Millisecond, 8 * Millisecond, 20 * Millisecond, 21 * Millisecond, 34 * Millisecond, 41 * Millisecond}
		if len(fired) != len(wantFired) {
			t.Fatalf("take %d: events fired at %v, want %v", take, fired, wantFired)
		}
		for i := range wantFired {
			if fired[i] != wantFired[i] {
				t.Fatalf("take %d: events fired at %v, want %v", take, fired, wantFired)
			}
		}
		if len(s.offers) == 0 {
			t.Fatalf("take %d: no span offered", take)
		}
		for _, o := range s.offers {
			first, last := o[0], o[1]
			// A span stops before an event's firing tick; it may end at a
			// run's end but never pass it.
			for _, at := range wantFired {
				if first <= at && at <= last {
					t.Fatalf("take %d: span %v..%v covers event tick %v", take, first, last, at)
				}
			}
			for _, end := range ends {
				if first <= end && end < last {
					t.Fatalf("take %d: span %v..%v passes run end %v", take, first, last, end)
				}
			}
		}
	}
}

// TestEngineNoSpanWithTwoHooks: spans are offered only to a lone hook.
func TestEngineNoSpanWithTwoHooks(t *testing.T) {
	e := NewEngine(Millisecond)
	s := &spanLog{e: e, take: 1 << 30}
	e.AddHook(s)
	e.RunFor(10 * Millisecond)
	if len(s.offers) == 0 {
		t.Fatal("lone spanner was offered no span")
	}
	offered := len(s.offers)
	other := 0
	e.AddHook(TickFunc(func(Time) { other++ }))
	e.RunFor(10 * Millisecond)
	if len(s.offers) != offered {
		t.Fatalf("%d spans offered with two hooks registered", len(s.offers)-offered)
	}
	if len(s.ticks) != 20 || other != 10 {
		t.Fatalf("ticks: spanner %d (want 20), second hook %d (want 10)", len(s.ticks), other)
	}
}

// TestEngineHorizonSeesRunEndAndEvents: inside a hook, Horizon counts the
// ticks the current RunUntil still plays before its end and before the
// next pending event's tick; outside RunUntil it is 0.
func TestEngineHorizonSeesRunEndAndEvents(t *testing.T) {
	e := NewEngine(Millisecond)
	var got []int
	e.AddHook(TickFunc(func(Time) { got = append(got, e.Horizon()) }))
	e.AddHook(TickFunc(func(Time) {})) // two hooks: every tick is stepped
	e.At(4*Millisecond+1, func(Time) {})
	e.RunUntil(6*Millisecond + 500*Microsecond)
	// After tick k (ending at k ms): the run ends at 6.5 ms, so 6−k ticks
	// end no later than it; the event falls due in the tick ending at 5 ms,
	// so only ticks ending before 4.001 ms are event-free until it fires.
	want := []int{3, 2, 1, 0, 1, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("horizons %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("horizons %v, want %v", got, want)
		}
	}
	if h := e.Horizon(); h != 0 {
		t.Errorf("Horizon outside RunUntil = %d, want 0", h)
	}
	e.StepOnce()
	if h := got[len(got)-1]; h != 0 {
		t.Errorf("Horizon in a bare StepOnce = %d, want 0", h)
	}
}

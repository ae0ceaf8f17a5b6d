package fleet

import (
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// finiteSpec is a short non-looping task, so the completion path (board
// span closed "completed", residency histogram) is exercised, not just the
// steady-state loopers.
func finiteSpec(name string, d sim.Time) task.Spec {
	return task.Spec{Name: name, Priority: 1, MinHR: 4, MaxHR: 6,
		Phases: []task.Phase{{Duration: d, HBCostLittle: 20, SpeedupBig: 1.8}}}
}

// runTracedFleet is runRecordedFleet's tracing twin: the same faulted
// 8-board recorded run with causal tracing attached, returning the trace
// digest vector (fleet + per board) after a full flush.
func runTracedFleet(t *testing.T, skew int) []uint64 {
	t.Helper()
	f, err := New(Config{
		Boards:             8,
		Seed:               0xfee1de7e,
		MaxSkew:            skew,
		Record:             true,
		Trace:              true,
		DrainDegradedAfter: 3,
		Faults: map[int]fault.Scenario{
			2: {Faults: []fault.Fault{{Type: fault.PowerDropout, Cluster: -1, Start: 10, Rounds: 200}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	submitArrivals(t, f, []Arrival{
		{Bench: "swaptions", Input: "n", Count: 4},
		{Bench: "blackscholes", Input: "l", Count: 3},
		{Bench: "x264", Input: "n", Count: 3, AtMS: 300},
		{Bench: "bodytrack", Input: "n", Count: 2, AtMS: 800},
	})

	for i := 0; i < 20; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	checkZeroLoss(t, f)
	if err := check.CheckSpanConservation(f.Tracer()); err != nil {
		t.Fatal(err)
	}
	c := f.Tracer().Counts()
	if c.Opened == 0 {
		t.Fatal("traced run opened no spans")
	}
	return f.Tracer().Digests()
}

// TestFleetTraceReplaysBitIdentically is the tentpole's acceptance
// criterion: the faulted 8-board run replays with bit-identical trace
// digests — every span boundary and lifecycle point in virtual time, every
// trace ID, every fold in the same order — across two full runs, swept
// over barrier skew K ∈ {0, 4}.
func TestFleetTraceReplaysBitIdentically(t *testing.T) {
	for _, skew := range []int{0, 4} {
		a := runTracedFleet(t, skew)
		b := runTracedFleet(t, skew)
		if len(a) != len(b) || len(a) != 9 {
			t.Fatalf("skew %d: digest vectors %d vs %d entries, want 9", skew, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("skew %d: trace digest %d diverges across runs: %016x vs %016x",
					skew, i, a[i], b[i])
			}
		}
	}
}

// TestFleetTraceSpanConservation forces both attribution paths — shed at
// a tiny admission queue and drain off a faulted board — and asserts the
// ledger still balances: every opened span closed or attributed, none
// mismatched.
func TestFleetTraceSpanConservation(t *testing.T) {
	f, err := New(Config{
		Boards:             2,
		Seed:               11,
		QueueCap:           4,
		Trace:              true,
		DrainDegradedAfter: 2,
		Faults: map[int]fault.Scenario{
			0: {Faults: []fault.Fault{{Type: fault.PowerDropout, Cluster: -1, Start: 5, Rounds: 400}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Saturate both boards, then overflow the 4-deep queue.
	for i := 0; i < 40; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 15; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		f.Submit(lightSpec("late")) // keep pressure on mid-run
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	checkZeroLoss(t, f)

	if err := check.CheckSpanConservation(f.Tracer()); err != nil {
		t.Fatal(err)
	}
	c := f.Tracer().Counts()
	st := f.StateSnapshot()
	if st.Counters.Shed == 0 {
		t.Fatal("test did not force any shed; tighten the queue")
	}
	if st.Counters.Drained == 0 {
		t.Fatal("test did not force a drain; fault did not trip")
	}
	if c.Attributed == 0 {
		t.Fatalf("shed %d / drained %d but no attributed spans: %+v",
			st.Counters.Shed, st.Counters.Drained, c)
	}
	if c.Attributed < c.Opened-c.Closed-c.Open {
		t.Fatalf("ledger arithmetic off: %+v", c)
	}
}

// TestFleetTimelinePointsCaptureMask checks the lifecycle events a traced
// 4-board bounded-skew run marks on its boards' timelines: every point
// names the board that marked it, and only the capture-mask kinds appear.
func TestFleetTimelinePointsCaptureMask(t *testing.T) {
	f, err := New(Config{Boards: 4, Seed: 77, MaxSkew: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	submitArrivals(t, f, []Arrival{
		{Bench: "swaptions", Input: "n", Count: 4},
		{Bench: "x264", Input: "n", Count: 4},
		{Bench: "bodytrack", Input: "n", Count: 2, AtMS: 300},
	})
	for i := 0; i < 20; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	n := 0
	for i := 0; i < f.Tracer().Boards(); i++ {
		for _, p := range f.Tracer().Board(i).Points() {
			n++
			if p.Board != i {
				t.Fatalf("board %d marked a point for board %d", i, p.Board)
			}
			var k telemetry.Kind
			if err := k.UnmarshalText([]byte(p.Kind)); err != nil || !traceCaptureKinds.Has(k) {
				t.Fatalf("board %d point kind %q is outside the capture mask", i, p.Kind)
			}
		}
	}
	if n == 0 {
		t.Fatal("traced 4-board run marked no lifecycle points")
	}
}

// TestFleetTraceTimeline walks one finite submission end to end: its queue
// span closes with a routing class, its board span closes "completed", and
// the /trace-style timeline query returns both in start order.
func TestFleetTraceTimeline(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Submit(finiteSpec("fin", 250*sim.Millisecond))
	for i := 0; i < 8; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	id := trace.DeriveID(f.traceSeed, 0) // first admission position
	tl := f.Tracer().Timeline(id)
	if len(tl.Spans) < 2 {
		t.Fatalf("timeline has %d spans, want queue + board: %+v", len(tl.Spans), tl)
	}
	q, b := tl.Spans[0], tl.Spans[1]
	if q.Stage != trace.StageQueue || q.Class != "home" {
		t.Fatalf("first span not a routed queue span: %+v", q)
	}
	if b.Stage != trace.StageBoard || b.Class != "completed" {
		t.Fatalf("second span not a completed board span: %+v", b)
	}
	if b.Start < q.End || b.End <= b.Start {
		t.Fatalf("span times inconsistent: queue %d..%d board %d..%d", q.Start, q.End, b.Start, b.End)
	}
	// The residency histogram carries the trace as an exemplar somewhere.
	found := false
	for _, bd := range f.Boards() {
		for _, ex := range bd.histResidency.Exemplars() {
			if ex.Valid && ex.Trace == uint64(id) {
				found = true
			}
		}
	}
	if !found {
		t.Error("completed task's trace ID missing from residency histogram exemplars")
	}
}

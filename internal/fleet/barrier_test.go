package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pricepower/internal/task"
)

// newSteadyFleet boots an 8-board fleet carrying four looping tasks per
// board and steps it until routing, LBT placement and the boards' scratch
// have settled: what is left per barrier is the steady cost of the
// barrier itself (issue, board step, collect).
func newSteadyFleet(tb testing.TB) *Fleet {
	tb.Helper()
	f, err := New(Config{Boards: 8, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	for i := 0; i < 32; i++ {
		f.Submit(task.Spec{
			Name: fmt.Sprintf("t%02d", i), Priority: 1 + i%3, MinHR: 24, MaxHR: 30,
			Phases: []task.Phase{{HBCostLittle: 2 + float64(i%5), SpeedupBig: 2}},
			Loop:   true,
		})
	}
	for i := 0; i < 40; i++ {
		if err := f.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// BenchmarkFleetBarrier measures one steady 100 ms barrier of an 8-board
// fleet: routing an empty queue, the eight board steps, and collection.
func BenchmarkFleetBarrier(b *testing.B) {
	f := newSteadyFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyBarrierAllocs bounds the allocations of one steady barrier across
// the whole 8-board fleet: one per board, the per-cluster stats of its
// snapshot (published to HTTP readers, so never reused). Issuing the
// barrier, collecting it and refolding the restart images allocate
// nothing.
const steadyBarrierAllocs = 8

// TestBarrierAllocations pins the allocation budget of a steady barrier.
// The 50 barriers are measured as one run, so the total is compared
// against the budget exactly, with no per-barrier rounding.
func TestBarrierAllocations(t *testing.T) {
	f := newSteadyFleet(t)
	const barriers = 50
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < barriers; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if total > barriers*steadyBarrierAllocs {
		t.Errorf("%d steady barriers allocate %.0f objects (%.1f per barrier), budget %d per barrier",
			barriers, total, total/barriers, steadyBarrierAllocs)
	}
	t.Logf("%.1f allocations per steady barrier", total/barriers)
}

// TestLateReplyNeverAnswersLaterBarrier: a board's reply channel lives
// across barriers, so the late reply of a barrier abandoned by a
// LivenessError can still be waiting in it when the next barrier is
// collected. Replies carry their barrier number and the collector drops
// older ones: a stale crashed reply must not be read as this barrier's.
func TestLateReplyNeverAnswersLaterBarrier(t *testing.T) {
	for _, liveness := range []time.Duration{0, 5 * time.Second} {
		f, err := New(Config{Boards: 2, Seed: 4, Check: true, Liveness: liveness})
		if err != nil {
			t.Fatal(err)
		}
		f.Submit(lightSpec("a"), lightSpec("b"))
		f.boards[1].replies <- stepReply{batch: 0, crashed: true, err: errors.New("late reply")}
		if err := f.Step(); err != nil {
			t.Fatalf("liveness %v: stale reply surfaced: %v", liveness, err)
		}
		st := f.StateSnapshot()
		if st.Counters.Crashes != 0 || st.Boards[1].Crashed || st.Boards[1].Batch != 1 {
			t.Fatalf("liveness %v: board 1 snapshot %+v after a stale reply, want its barrier-1 reply", liveness, st.Boards[1])
		}
		if len(f.boards[1].replies) != 0 {
			t.Fatalf("liveness %v: %d replies left unread", liveness, len(f.boards[1].replies))
		}
		f.Close()
	}
}

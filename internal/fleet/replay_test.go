package fleet

import (
	"runtime"
	"testing"

	"pricepower/internal/fault"
)

// runRecordedFleet boots an 8-board recorded fleet from a fixed seed,
// plays the same arrival trace into it, advances it a fixed number of
// batches at the given barrier skew, and returns the per-board replay
// traces. One board carries a sensor-dropout
// fault so the degraded/drain path is inside the recorded timeline, not
// just the happy path.
func runRecordedFleet(t *testing.T, skew int) []uint64 {
	t.Helper()
	f, err := New(Config{
		Boards:             8,
		Seed:               0xfee1de7e, // fixed fleet seed
		MaxSkew:            skew,
		Record:             true,
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
	if err := f.Flush(); err != nil { // collect the skew tail before reading traces
		t.Fatal(err)
	}
	checkZeroLoss(t, f)

	finals := make([]uint64, 0, 8)
	for i, tr := range f.Traces() {
		if tr == nil {
			t.Fatalf("board %d has no trace despite Record", i)
		}
		if len(tr.Digests) == 0 {
			t.Fatalf("board %d trace is empty: recorder not seeing market rounds", i)
		}
		finals = append(finals, tr.Final)
	}
	return finals
}

// TestFleetReplaysBitIdentically is the PR's determinism acceptance
// criterion: a fixed fleet seed plus a recorded arrival trace must
// reproduce bit-identical per-board digests across two full runs, even
// though boards advance on concurrent goroutines — swept over barrier
// skew K ∈ {0, 4} (lockstep vs. the faulted bounded-skew pipeline), with
// each board's barrier counter folded into its digest chain.
func TestFleetReplaysBitIdentically(t *testing.T) {
	for _, skew := range []int{0, 4} {
		a := runRecordedFleet(t, skew)
		b := runRecordedFleet(t, skew)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("skew %d: board %d digests diverge across runs: %016x vs %016x",
					skew, i, a[i], b[i])
			}
		}
	}
}

// TestFleetReplayAcrossGOMAXPROCS runs the full recorded fleet — faulted
// board, bounded skew — under GOMAXPROCS 1 and 4 and asserts
// bit-identical per-board replay digests: board goroutine interleaving
// must be invisible to the recorded timeline.
func TestFleetReplayAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	a := runRecordedFleet(t, 4)
	runtime.GOMAXPROCS(4)
	b := runRecordedFleet(t, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("board %d: GOMAXPROCS=1 digest %016x, GOMAXPROCS=4 %016x", i, a[i], b[i])
		}
	}
}

// TestFleetSkewZeroMatchesLockstep pins the pipeline refactor against
// the legacy stepping: with MaxSkew explicitly 0 the bounded-skew
// machinery must produce the same per-board digests as the default
// (zero-value) lockstep config — routing decisions, barrier counters and
// market timelines all bit-identical.
func TestFleetSkewZeroMatchesLockstep(t *testing.T) {
	a := runRecordedFleet(t, 0) // explicit K=0 through the pipeline path
	f, err := New(Config{       // zero-value skew: the pre-pipeline config shape
		Boards:             8,
		Seed:               0xfee1de7e,
		Record:             true,
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
	for i, tr := range f.Traces() {
		if tr.Final != a[i] {
			t.Errorf("board %d: zero-value config digest %016x != explicit K=0 digest %016x", i, tr.Final, a[i])
		}
	}
}

// TestFleetTraceDiffLocalizes drives the per-board check.Trace pathway:
// two identical runs diff clean, and Diff localizes a synthetic
// divergence rather than reporting only the folded digest.
func TestFleetTraceDiffLocalizes(t *testing.T) {
	mk := func() *Fleet {
		f, err := New(Config{Boards: 2, Seed: 99, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			f.Submit(lightSpec("t"))
		}
		for i := 0; i < 6; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	f1 := mk()
	defer f1.Close()
	f2 := mk()
	defer f2.Close()
	t1, t2 := f1.Traces(), f2.Traces()
	for i := range t1 {
		if at, same := t1[i].Diff(t2[i]); !same {
			t.Errorf("board %d traces diverge at sample %d", i, at)
		}
	}
	// Corrupt one sample: Diff must point at it.
	t2[0].Digests[3] ^= 1
	if at, same := t1[0].Diff(t2[0]); same || at != 3 {
		t.Errorf("Diff after corruption = (%d,%v), want (3,false)", at, same)
	}
}

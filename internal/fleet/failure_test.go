package fleet

import (
	"errors"
	"testing"
	"time"

	"pricepower/internal/fault"
)

// crashScenario schedules one injected board-crash window.
func crashScenario(start, rounds int) fault.Scenario {
	return fault.Scenario{Faults: []fault.Fault{
		{Type: fault.BoardCrash, Start: start, Rounds: rounds},
	}}
}

// stallScenario schedules one injected board-stall window.
func stallScenario(start, rounds int) fault.Scenario {
	return fault.Scenario{Faults: []fault.Fault{
		{Type: fault.BoardStall, Start: start, Rounds: rounds},
	}}
}

// stepChecked steps once, tolerating crash-only errors (the supervised
// path), and asserts the extended zero-loss identity at the barrier.
func stepChecked(t *testing.T, f *Fleet) {
	t.Helper()
	if err := f.Step(); err != nil {
		if _, only := CrashErrors(err); !only {
			t.Fatal(err)
		}
	}
	checkZeroLoss(t, f)
}

// TestBoardCrashOrphansAndRestarts walks the full crash → orphan →
// restart → re-place lifecycle on one board, asserting the extended
// zero-loss identity at every barrier along the way.
func TestBoardCrashOrphansAndRestarts(t *testing.T) {
	f, err := New(Config{
		Boards:       4,
		Seed:         42,
		Check:        true,
		RestartAfter: 2,
		Faults:       map[int]fault.Scenario{1: crashScenario(5, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 16; i++ {
		f.Submit(lightSpec("t"))
	}
	var sawCrash, sawRestart bool
	for i := 0; i < 20; i++ {
		err := f.Step()
		if err != nil {
			crashes, only := CrashErrors(err)
			if !only {
				t.Fatal(err)
			}
			if len(crashes) != 1 || crashes[0].Board != 1 || crashes[0].Barrier != 5 {
				t.Fatalf("crash report = %+v, want board 1 at barrier 5", crashes)
			}
			sawCrash = true
		}
		checkZeroLoss(t, f)
		st := f.StateSnapshot()
		if st.Boards[1].Epoch == 1 && !st.Boards[1].Crashed {
			sawRestart = true
		}
	}
	if !sawCrash {
		t.Fatal("injected board-crash never detected")
	}
	if !sawRestart {
		t.Fatal("board 1 never restarted under epoch 1")
	}
	st := f.StateSnapshot()
	if st.Counters.Crashes != 1 || st.Counters.Restarts != 1 {
		t.Fatalf("counters crashes=%d restarts=%d, want 1/1", st.Counters.Crashes, st.Counters.Restarts)
	}
	if st.Counters.Orphaned == 0 || st.Counters.Orphaned != st.Counters.Replaced {
		t.Fatalf("orphaned %d replaced %d: every orphan must be re-placed after restart",
			st.Counters.Orphaned, st.Counters.Replaced)
	}
	if st.Orphaned != 0 {
		t.Fatalf("supervisor still holds %d orphans after restart", st.Orphaned)
	}
	if st.Live() == 0 {
		t.Fatal("no live tasks after recovery")
	}
}

// TestCollectJoinsMultipleCrashErrors injects crashes on two boards at
// the same barrier: the step error must be a join naming both boards,
// and the barrier must still complete (the run keeps stepping).
func TestCollectJoinsMultipleCrashErrors(t *testing.T) {
	f, err := New(Config{
		Boards: 4,
		Seed:   7,
		Check:  true,
		Faults: map[int]fault.Scenario{
			1: crashScenario(5, 1),
			2: crashScenario(5, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 12; i++ {
		f.Submit(lightSpec("t"))
	}
	var reported []*CrashError
	for i := 0; i < 8; i++ {
		if err := f.Step(); err != nil {
			crashes, only := CrashErrors(err)
			if !only {
				t.Fatal(err)
			}
			reported = append(reported, crashes...)
		}
		checkZeroLoss(t, f)
	}
	if len(reported) != 2 {
		t.Fatalf("got %d crash errors, want 2 (both boards in one joined error)", len(reported))
	}
	boards := map[int]bool{}
	for _, ce := range reported {
		if ce.Barrier != 5 {
			t.Errorf("crash on board %d detected at barrier %d, want 5", ce.Board, ce.Barrier)
		}
		boards[ce.Board] = true
	}
	if !boards[1] || !boards[2] {
		t.Fatalf("crash errors name boards %v, want 1 and 2", boards)
	}
	// Without restarts both boards quarantine permanently and their
	// orphans re-place immediately.
	st := f.StateSnapshot()
	if st.Counters.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", st.Counters.Crashes)
	}
	if st.Orphaned != 0 || st.Counters.Orphaned != st.Counters.Replaced {
		t.Fatalf("orphans not re-placed: held %d, orphaned %d, replaced %d",
			st.Orphaned, st.Counters.Orphaned, st.Counters.Replaced)
	}
}

// TestCrashAndStallSameBarrier is the acceptance scenario: one board
// crashes and another stalls in the same batch, and the barrier still
// completes — no deadlock, zero loss, and the stalled board catches up
// while the crashed one stays quarantined.
func TestCrashAndStallSameBarrier(t *testing.T) {
	f, err := New(Config{
		Boards:        4,
		Seed:          11,
		Check:         true,
		StallBarriers: 2,
		Faults: map[int]fault.Scenario{
			1: crashScenario(5, 1),
			2: stallScenario(5, 3),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 16; i++ {
		f.Submit(lightSpec("t"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 12; i++ {
			stepChecked(t, f)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet deadlocked with a crashed and a stalled board in one batch")
	}
	st := f.StateSnapshot()
	if st.Counters.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Counters.Crashes)
	}
	if st.Counters.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1 (board 2 missed %d barriers)", st.Counters.Stalls, 3)
	}
	if !st.Boards[1].Crashed {
		t.Fatal("board 1 not marked crashed")
	}
	if st.Boards[2].Crashed || st.Boards[2].Stalled {
		t.Fatal("board 2 should have caught up by now")
	}
}

// TestStallQuarantineAndCatchUp pins the deterministic stall detector:
// below StallBarriers misses the board keeps its routable (stale)
// snapshot, at the threshold it quarantines, and its first real reply
// clears the quarantine with the deferred batches replayed in order.
func TestStallQuarantineAndCatchUp(t *testing.T) {
	f, err := New(Config{
		Boards:        2,
		Seed:          3,
		Check:         true,
		StallBarriers: 2,
		Faults:        map[int]fault.Scenario{0: stallScenario(3, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 8; i++ {
		f.Submit(lightSpec("t"))
	}
	quarantinedAt := -1
	for i := 1; i <= 10; i++ {
		stepChecked(t, f)
		st := f.StateSnapshot()
		if st.Boards[0].Stalled && quarantinedAt < 0 {
			quarantinedAt = i
		}
	}
	// Stall window covers barriers 3,4,5: miss 1 at barrier 3, miss 2
	// (quarantine) at barrier 4, catch-up at barrier 6.
	if quarantinedAt != 4 {
		t.Fatalf("quarantined at barrier %d, want 4 (second consecutive miss)", quarantinedAt)
	}
	st := f.StateSnapshot()
	if st.Boards[0].Stalled {
		t.Fatal("board 0 still quarantined after catch-up")
	}
	if st.Counters.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", st.Counters.Stalls)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after catch-up, want 0", st.InFlight)
	}
}

// TestZeroLossAcrossCrashRestartForAllShardCounts is the satellite
// property test: for every dispatcher shard count, a crash → restart →
// re-place cycle conserves every accepted task at every barrier.
func TestZeroLossAcrossCrashRestartForAllShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		f, err := New(Config{
			Boards:       8,
			Seed:         0xfee1de7e,
			Shards:       shards,
			MaxSkew:      2,
			Check:        true,
			RestartAfter: 2,
			Faults:       map[int]fault.Scenario{3: crashScenario(6, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			f.Submit(lightSpec("t"))
		}
		for i := 0; i < 24; i++ {
			stepChecked(t, f)
		}
		if err := f.Flush(); err != nil {
			if _, only := CrashErrors(err); !only {
				t.Fatal(err)
			}
		}
		checkZeroLoss(t, f)
		st := f.StateSnapshot()
		if st.Counters.Crashes != 1 || st.Counters.Restarts != 1 {
			t.Fatalf("shards %d: crashes=%d restarts=%d, want 1/1",
				shards, st.Counters.Crashes, st.Counters.Restarts)
		}
		if st.Orphaned != 0 {
			t.Fatalf("shards %d: %d orphans still held after restart", shards, st.Orphaned)
		}
		f.Close()
	}
}

// TestPermanentQuarantineReplacesOrphansImmediately pins the
// no-restarts path (RestartAfter 0): a crash retires the board for good
// and its orphans re-enter the dispatcher in the same step.
func TestPermanentQuarantineReplacesOrphansImmediately(t *testing.T) {
	f, err := New(Config{
		Boards: 2,
		Seed:   9,
		Check:  true,
		Faults: map[int]fault.Scenario{0: crashScenario(4, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 8; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 10; i++ {
		stepChecked(t, f)
	}
	st := f.StateSnapshot()
	if st.Counters.Restarts != 0 {
		t.Fatalf("restarts = %d with RestartAfter 0", st.Counters.Restarts)
	}
	if !st.Boards[0].Crashed {
		t.Fatal("board 0 should stay crashed forever")
	}
	if st.Orphaned != 0 || st.Counters.Replaced != st.Counters.Orphaned {
		t.Fatalf("orphans not immediately re-placed: held %d, orphaned %d, replaced %d",
			st.Orphaned, st.Counters.Orphaned, st.Counters.Replaced)
	}
	// Everything must have landed on the surviving board.
	if st.Boards[1].Tasks == 0 {
		t.Fatal("surviving board took no work")
	}
	// The supervisor owns a crashed board: manual drain/resume refuse.
	if err := f.Drain(0); err == nil {
		t.Fatal("Drain of a crashed board must refuse")
	}
	if err := f.Resume(0); err == nil {
		t.Fatal("Resume of a crashed board must refuse")
	}
}

// TestMaxRestartsCapsResurrection crashes the same board in every epoch
// and asserts the supervisor gives up at the cap.
func TestMaxRestartsCapsResurrection(t *testing.T) {
	f, err := New(Config{
		Boards:       2,
		Seed:         5,
		Check:        true,
		RestartAfter: 1,
		MaxRestarts:  2,
		// An always-open crash window: the board dies again at its first
		// post-restart barrier, every epoch.
		Faults: map[int]fault.Scenario{0: crashScenario(3, 1000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 6; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 30; i++ {
		stepChecked(t, f)
	}
	st := f.StateSnapshot()
	if st.Counters.Restarts != 2 {
		t.Fatalf("restarts = %d, want exactly MaxRestarts = 2", st.Counters.Restarts)
	}
	if st.Counters.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3 (initial + one per restart)", st.Counters.Crashes)
	}
	if !st.Boards[0].Crashed {
		t.Fatal("board 0 must end permanently quarantined")
	}
	if st.Orphaned != 0 {
		t.Fatalf("%d orphans still held after permanent quarantine", st.Orphaned)
	}
}

// TestLivenessDeadlineNamesHungBoards kills a board's goroutine behind
// the fleet's back — a real hang, unlike the injected stall sentinel —
// and asserts collection fails fast with the hung board named instead
// of deadlocking.
func TestLivenessDeadlineNamesHungBoards(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 13, Liveness: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Stop board 0's goroutine directly: its buffered command channel
	// swallows the next step command and never replies.
	f.boards[0].stop()

	f.Submit(lightSpec("t"))
	err = f.Step()
	if err == nil {
		t.Fatal("Step succeeded with a hung board")
	}
	var le *LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LivenessError", err)
	}
	if len(le.Boards) != 1 || le.Boards[0] != 0 {
		t.Fatalf("hung boards = %v, want [0]", le.Boards)
	}
	if le.Deadline != 100*time.Millisecond || le.Barrier != 1 {
		t.Fatalf("liveness report = %+v, want barrier 1 at 100ms", le)
	}
	// The fleet is wedged by design after a liveness failure; stop the
	// surviving board directly rather than Close (which would block on
	// the dead one).
	f.boards[1].stop()
}

// TestInjectedStallsNeverTripLiveness pins the deadline's determinism
// contract: an injected stall answers with a sentinel instantly, so a
// generous wall-clock deadline must not fire for it.
func TestInjectedStallsNeverTripLiveness(t *testing.T) {
	f, err := New(Config{
		Boards:   2,
		Seed:     3,
		Check:    true,
		Liveness: 5 * time.Second,
		Faults:   map[int]fault.Scenario{0: stallScenario(2, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Submit(lightSpec("t"))
	for i := 0; i < 8; i++ {
		stepChecked(t, f)
	}
	if st := f.StateSnapshot(); st.Counters.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", st.Counters.Stalls)
	}
}

// runFaultedRecordedFleet mirrors runRecordedFleet with the board
// failure domain active: a crash (with supervised restart) on board 2
// and a stall window on board 5, over the same recorded arrival trace.
func runFaultedRecordedFleet(t *testing.T, skew, shards int) []uint64 {
	t.Helper()
	f, err := New(Config{
		Boards:        8,
		Seed:          0xfee1de7e,
		MaxSkew:       skew,
		Shards:        shards,
		Record:        true,
		Check:         true,
		RestartAfter:  3,
		StallBarriers: 2,
		Faults: map[int]fault.Scenario{
			2: crashScenario(6, 1),
			5: stallScenario(4, 3),
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

	sawCrash := false
	for i := 0; i < 24; i++ {
		if err := f.Step(); err != nil {
			crashes, only := CrashErrors(err)
			if !only {
				t.Fatal(err)
			}
			sawCrash = sawCrash || len(crashes) > 0
		}
		checkZeroLoss(t, f)
	}
	if err := f.Flush(); err != nil {
		if _, only := CrashErrors(err); !only {
			t.Fatal(err)
		}
	}
	checkZeroLoss(t, f)
	if !sawCrash {
		t.Fatal("faulted run saw no crash — the scenario is not exercising the supervisor")
	}
	st := f.StateSnapshot()
	if st.Counters.Restarts != 1 || st.Counters.Stalls != 1 {
		t.Fatalf("restarts=%d stalls=%d, want 1/1", st.Counters.Restarts, st.Counters.Stalls)
	}

	finals := make([]uint64, 0, 8)
	for i, tr := range f.Traces() {
		if tr == nil {
			t.Fatalf("board %d has no trace despite Record", i)
		}
		finals = append(finals, tr.Final)
	}
	return finals
}

// TestFaultedFleetReplaysBitIdentically is the failure-domain
// determinism acceptance criterion: with a crash → restart and a stall →
// catch-up active, two runs at the same (K, S) still produce
// bit-identical per-board digests — the injected failures, the orphan
// re-placement and the restart epoch's fresh seed stream are all pure
// functions of (seed, board, barrier) — swept over K ∈ {0, 4} × S ∈ {1, 8}.
func TestFaultedFleetReplaysBitIdentically(t *testing.T) {
	for _, skew := range []int{0, 4} {
		for _, shards := range []int{1, 8} {
			a := runFaultedRecordedFleet(t, skew, shards)
			b := runFaultedRecordedFleet(t, skew, shards)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("skew %d shards %d: board %d digests diverge across faulted runs: %016x vs %016x",
						skew, shards, i, a[i], b[i])
				}
			}
		}
	}
}

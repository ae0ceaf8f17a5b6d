package fleet

import (
	"strings"
	"testing"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// newOneBoard builds a checked single-board fleet, so every submission
// lands on board 0 and the test controls exactly what it runs.
func newOneBoard(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	cfg.Boards = 1
	cfg.Check = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// completedOf reads the fleet-wide completed count from /state.
func completedOf(f *Fleet) int { return f.StateSnapshot().Completed }

// TestRetireFreesBoardState: once a finite task finishes, its board holds
// no run-queue entity, no traceOf entry, no governor record and no market
// agent for it, and its residency span closes as completed at the finish
// tick.
func TestRetireFreesBoardState(t *testing.T) {
	f := newOneBoard(t, Config{Seed: 11, Trace: true})
	for i := 0; i < 3; i++ {
		f.Submit(finiteSpec("fin", 150*sim.Millisecond))
	}
	f.Submit(lightSpec("loop"))
	stepChecked(t, f)
	b := f.boards[0]
	var finite []*task.Task
	for _, tk := range b.p.Tasks() {
		if !tk.Spec.Loop {
			finite = append(finite, tk)
		}
	}
	if len(finite) != 3 {
		t.Fatalf("%d finite tasks resident after barrier 1, want 3", len(finite))
	}
	stepChecked(t, f) // t = 200 ms: all three finished at 150 ms

	if n := b.p.NumTasks(); n != 1 {
		t.Fatalf("%d tasks resident after the finish barrier, want the 1 looper", n)
	}
	if len(b.traceOf) != 1 {
		t.Fatalf("traceOf holds %d entries, want 1", len(b.traceOf))
	}
	for core := range b.p.Chip.Cores {
		for _, e := range b.p.Queue(core).Entities() {
			for _, tk := range finite {
				if e.ID == tk.ID {
					t.Fatalf("finished task %d still has a run-queue entity on core %d", tk.ID, core)
				}
			}
		}
	}
	if got := completedOf(f); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
	for _, sp := range b.trc.Spans() {
		if sp.Stage == trace.StageBoard && sp.Class == "completed" && sp.End != sp.Start+150*sim.Millisecond {
			t.Fatalf("completed span %v ends at %v, want its finish tick %v", sp.Trace, sp.End, sp.Start+150*sim.Millisecond)
		}
	}
	if n := len(b.histResidency.Exemplars()); n == 0 {
		t.Fatal("no residency exemplar recorded for the completions")
	}

	// The governor drops the records and agents at its next round.
	stepChecked(t, f)
	for _, tk := range finite {
		if b.gov.AgentOf(tk) != nil {
			t.Fatalf("governor still tracks finished task %d", tk.ID)
		}
	}
	agents := 0
	for _, cl := range b.gov.Market().Clusters {
		agents += cl.TaskCount()
	}
	if agents != 1 {
		t.Fatalf("market holds %d task agents, want 1", agents)
	}
	ck, err := DecodeCheckpoint(b.img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Tasks) != 1 || ck.Completed != 3 {
		t.Fatalf("checkpoint holds %d tasks, completed %d; want 1 and 3", len(ck.Tasks), ck.Completed)
	}
}

// TestCompletionDuringStallCountsAtCatchUp: a task that finishes inside a
// barrier its board stalled on stays in the stale snapshot's live count
// while the stall lasts, and moves to completed — once — at catch-up.
func TestCompletionDuringStallCountsAtCatchUp(t *testing.T) {
	f := newOneBoard(t, Config{Seed: 5, Faults: map[int]fault.Scenario{0: stallScenario(3, 2)}})
	f.Submit(finiteSpec("a", 250*sim.Millisecond), finiteSpec("b", 250*sim.Millisecond))
	for i := 1; i <= 8; i++ {
		stepChecked(t, f)
		st := f.StateSnapshot()
		switch {
		case i < 5: // finished at 250 ms (barrier 3), reported at catch-up
			if st.Completed != 0 || st.Live() != 2 {
				t.Fatalf("barrier %d: completed %d live %d, want 0 and 2", i, st.Completed, st.Live())
			}
		default:
			if st.Completed != 2 || st.Live() != 0 {
				t.Fatalf("barrier %d: completed %d live %d, want 2 and 0", i, st.Completed, st.Live())
			}
		}
	}
}

// TestCompletionInCrashedBarrierCountsOnce: the tasks finish in a
// deferred batch the board replays in the step that then crashes. The
// completion dies with the barrier; the tasks are orphaned from the
// barrier-2 checkpoint, re-placed on the restarted board, and counted
// once when the rerun finishes.
func TestCompletionInCrashedBarrierCountsOnce(t *testing.T) {
	sc := stallScenario(3, 2)
	sc.Faults = append(sc.Faults, crashScenario(5, 1).Faults...)
	f := newOneBoard(t, Config{Seed: 9, RestartAfter: 1, Faults: map[int]fault.Scenario{0: sc}})
	f.Submit(finiteSpec("a", 250*sim.Millisecond), finiteSpec("b", 250*sim.Millisecond))
	for i := 1; i <= 12; i++ {
		stepChecked(t, f)
		if i == 5 {
			if st := f.StateSnapshot(); st.Completed != 0 || st.Orphaned != 2 {
				t.Fatalf("crash barrier: completed %d orphaned %d, want 0 and 2", st.Completed, st.Orphaned)
			}
		}
	}
	st := f.StateSnapshot()
	if st.Counters.Crashes != 1 || st.Counters.Restarts != 1 {
		t.Fatalf("crashes %d restarts %d, want 1 and 1", st.Counters.Crashes, st.Counters.Restarts)
	}
	if st.Counters.Orphaned != 2 || st.Completed != 2 || st.Live() != 0 {
		t.Fatalf("orphaned %d completed %d live %d, want 2, 2 and 0",
			st.Counters.Orphaned, st.Completed, st.Live())
	}
}

// TestDrainDoesNotRequeueFinishedTasks: draining a board whose finite
// task already finished evacuates only the resident looper.
func TestDrainDoesNotRequeueFinishedTasks(t *testing.T) {
	f := newOneBoard(t, Config{Seed: 3})
	f.Submit(finiteSpec("fin", 150*sim.Millisecond), lightSpec("loop"))
	for i := 0; i < 3; i++ {
		stepChecked(t, f)
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	checkZeroLoss(t, f)
	st := f.StateSnapshot()
	if st.Counters.Drained != 1 || st.QueueLen != 1 || st.Completed != 1 {
		t.Fatalf("drained %d queued %d completed %d, want 1, 1 and 1",
			st.Counters.Drained, st.QueueLen, st.Completed)
	}
	if err := f.Resume(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stepChecked(t, f)
	}
	if st := f.StateSnapshot(); st.Live() != 1 || st.Completed != 1 {
		t.Fatalf("after resume: live %d completed %d, want 1 and 1", st.Live(), st.Completed)
	}
}

// TestDrainThenCrashOrphansNothingTwice: a board drained between barriers
// and crashing at the next one must not orphan the tasks the drain
// already requeued — the restart image is refolded at the drain.
func TestDrainThenCrashOrphansNothingTwice(t *testing.T) {
	f, err := New(Config{
		Boards: 2, Seed: 4, Check: true, RestartAfter: 1,
		Faults: map[int]fault.Scenario{0: crashScenario(4, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 8; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 3; i++ {
		stepChecked(t, f)
	}
	if n := f.StateSnapshot().Boards[0].Tasks; n == 0 {
		t.Fatal("board 0 holds no task to drain")
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stepChecked(t, f)
	}
	st := f.StateSnapshot()
	if st.Counters.Crashes != 1 || st.Counters.Orphaned != 0 {
		t.Fatalf("crashes %d orphaned %d, want 1 and 0", st.Counters.Crashes, st.Counters.Orphaned)
	}
	if st.Live() != 8 {
		t.Fatalf("live %d, want all 8 tasks", st.Live())
	}
}

// TestRestartResumesCompletedFromCheckpoint: a board that crashes after
// some completions restarts with the completed count of its last
// checkpoint and keeps counting from there.
func TestRestartResumesCompletedFromCheckpoint(t *testing.T) {
	f := newOneBoard(t, Config{Seed: 8, RestartAfter: 1, Faults: map[int]fault.Scenario{0: crashScenario(4, 1)}})
	f.Submit(finiteSpec("a", 150*sim.Millisecond), finiteSpec("b", 150*sim.Millisecond))
	for i := 1; i <= 7; i++ {
		stepChecked(t, f)
		if i >= 2 && completedOf(f) != 2 {
			t.Fatalf("barrier %d: completed %d, want 2", i, completedOf(f))
		}
	}
	st := f.StateSnapshot()
	if st.Counters.Restarts != 1 || st.Boards[0].Epoch != 1 || st.Boards[0].Crashed {
		t.Fatalf("restarts %d, board 0 epoch %d crashed %v; want a live epoch-1 board",
			st.Counters.Restarts, st.Boards[0].Epoch, st.Boards[0].Crashed)
	}
	f.Submit(finiteSpec("c", 150*sim.Millisecond))
	for i := 0; i < 3; i++ {
		stepChecked(t, f)
	}
	if got := completedOf(f); got != 3 {
		t.Fatalf("completed %d after the restarted board finished one more, want 3", got)
	}
	ck, err := DecodeCheckpoint(f.boards[0].img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 1 || ck.Completed != 3 {
		t.Fatalf("epoch-%d checkpoint completed %d, want epoch 1 and 3", ck.Epoch, ck.Completed)
	}
}

// TestCompletedObservable: the published state and the metrics export
// carry the completed count the ledger reads, fleet-wide and per board.
func TestCompletedObservable(t *testing.T) {
	f := newOneBoard(t, Config{Seed: 2})
	f.Submit(finiteSpec("a", 150*sim.Millisecond), finiteSpec("b", 150*sim.Millisecond), lightSpec("loop"))
	for i := 0; i < 3; i++ {
		stepChecked(t, f)
	}

	st := f.StateSnapshot()
	if st.Completed != 2 || st.Boards[0].Completed != 2 || st.Live() != 1 {
		t.Fatalf("state completed %d (board 0: %d) live %d, want 2, 2 and 1",
			st.Completed, st.Boards[0].Completed, st.Live())
	}
	var b strings.Builder
	if err := telemetry.WriteSeriesProm(&b, f.ExportMetrics()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\npricepower_fleet_completed_tasks 2\n") {
		t.Fatal("metrics export missing pricepower_fleet_completed_tasks 2")
	}
}

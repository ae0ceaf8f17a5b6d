package fleet

import (
	"fmt"
	"sort"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// lightSpec is a small CPU-bound looping task: low enough demand that
// many fit on one board, so saturation in tests is deliberate, not
// accidental.
func lightSpec(name string) task.Spec {
	return task.Spec{Name: name, Priority: 1, MinHR: 4, MaxHR: 6,
		Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 1.8}}, Loop: true}
}

// checkZeroLoss asserts the fleet's conservation invariant: every
// accepted task is either live on a board, waiting in the queue, in
// flight at an uncollected barrier (bounded skew), orphaned by a crash,
// completed, or was explicitly shed — nothing vanishes.
func checkZeroLoss(t *testing.T, f *Fleet) {
	t.Helper()
	st := f.StateSnapshot()
	want := st.Counters.Submitted - st.Counters.Shed - st.Counters.Evicted
	got := uint64(st.Live() + st.QueueLen + st.InFlight + st.Orphaned + st.Completed)
	if got != want {
		t.Fatalf("zero-loss violated: live %d + queued %d + inflight %d + orphaned %d + completed %d = %d, want submitted %d - shed %d - evicted %d = %d",
			st.Live(), st.QueueLen, st.InFlight, st.Orphaned, st.Completed, got,
			st.Counters.Submitted, st.Counters.Shed, st.Counters.Evicted, want)
	}
	if err := check.CheckFleetConservation(f); err != nil {
		t.Fatal(err)
	}
}

func TestFleetRoutesAndConserves(t *testing.T) {
	f, err := New(Config{Boards: 3, Seed: 7, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 12; i++ {
		f.Submit(lightSpec("t"))
	}
	checkZeroLoss(t, f)
	for i := 0; i < 20; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
	}
	st := f.StateSnapshot()
	if st.QueueLen != 0 {
		t.Errorf("queue not drained: %d pending", st.QueueLen)
	}
	if st.Live() != 12 {
		t.Errorf("live = %d, want 12", st.Live())
	}
	if st.Counters.Shed != 0 {
		t.Errorf("shed = %d, want 0", st.Counters.Shed)
	}
	// Price routing with projection must spread 12 tasks over 3 equal
	// boards rather than stacking one.
	for _, b := range st.Boards {
		if b.Tasks == 0 {
			t.Errorf("board %d got no tasks", b.Board)
		}
	}
	if st.Time != 20*f.cfg.Batch {
		t.Errorf("fleet time = %v, want %v", st.Time, 20*f.cfg.Batch)
	}
}

func TestFleetShedsOnQueueOverflow(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	accepted := f.Submit(lightSpec("a"), lightSpec("b"), lightSpec("c"),
		lightSpec("d"), lightSpec("e"), lightSpec("f"))
	if accepted != 4 {
		t.Fatalf("accepted = %d, want 4 (queue cap)", accepted)
	}
	st := f.StateSnapshot()
	if st.Counters.Shed != 2 || st.Counters.Submitted != 6 {
		t.Fatalf("counters = %+v, want 6 submitted / 2 shed", st.Counters)
	}
	checkZeroLoss(t, f)
}

func TestFleetManualDrainResubmits(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 6; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 5; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := f.StateSnapshot()
	victim := 0
	if st.Boards[1].Tasks > st.Boards[0].Tasks {
		victim = 1
	}
	evacuated := st.Boards[victim].Tasks
	if evacuated == 0 {
		t.Fatal("victim board has no tasks; routing failed before the drain test started")
	}

	if err := f.Drain(victim); err != nil {
		t.Fatal(err)
	}
	checkZeroLoss(t, f)
	for i := 0; i < 10; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
	}
	st = f.StateSnapshot()
	if got := st.Boards[victim].Tasks; got != 0 {
		t.Errorf("drained board still runs %d tasks", got)
	}
	if !st.Boards[victim].Draining {
		t.Error("drained board not marked draining")
	}
	other := 1 - victim
	if st.Boards[other].Tasks != 6 {
		t.Errorf("surviving board runs %d tasks, want all 6", st.Boards[other].Tasks)
	}
	if st.Counters.Drained != uint64(evacuated) || st.Counters.Resubmitted != uint64(evacuated) {
		t.Errorf("drain counters = %+v, want %d drained/resubmitted", st.Counters, evacuated)
	}

	// Resume: the board takes new work again.
	if err := f.Resume(victim); err != nil {
		t.Fatal(err)
	}
	f.Submit(lightSpec("late"))
	// The revived board is idle (price 0 after settling) so the next
	// barrier routes the newcomer there or queues it at worst once.
	for i := 0; i < 3; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st = f.StateSnapshot()
	if st.Live() != 7 {
		t.Errorf("live = %d after resume+submit, want 7", st.Live())
	}
	checkZeroLoss(t, f)
}

func TestFleetAutoDrainsDegradedBoard(t *testing.T) {
	// Board 0's chip power sensor drops out from round 10 onward (the
	// market must first seed a trusted reading for a dropout to be
	// detectable); with DrainDegradedAfter set, the fleet must evacuate
	// it and land its tasks on board 1 without losing any.
	f, err := New(Config{
		Boards:             2,
		Seed:               11,
		DrainDegradedAfter: 2,
		Faults: map[int]fault.Scenario{
			0: {Faults: []fault.Fault{{Type: fault.PowerDropout, Cluster: -1, Start: 10, Rounds: 1 << 20}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 6; i++ {
		f.Submit(lightSpec("t"))
	}
	drained := false
	for i := 0; i < 100 && !drained; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
		st := f.StateSnapshot()
		drained = st.Boards[0].Draining && st.Boards[0].Tasks == 0
	}
	if !drained {
		t.Fatal("degraded board was never auto-drained")
	}
	// Let the resubmitted tasks route.
	for i := 0; i < 5; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
	}
	st := f.StateSnapshot()
	if st.Boards[1].Tasks != 6 {
		t.Errorf("healthy board runs %d tasks, want all 6", st.Boards[1].Tasks)
	}
	if st.Counters.Shed != 0 {
		t.Errorf("shed = %d during degradation, want 0", st.Counters.Shed)
	}
}

func TestFleetScheduledArrivals(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	f.SubmitAt(250*sim.Millisecond, lightSpec("late"))
	f.Submit(lightSpec("now"))
	if err := f.Step(); err != nil { // t: 0 → 100ms; only "now" admitted
		t.Fatal(err)
	}
	st := f.StateSnapshot()
	if st.Counters.Submitted != 1 {
		t.Fatalf("submitted = %d after first batch, want 1 (late not due)", st.Counters.Submitted)
	}
	for i := 0; i < 3; i++ { // through t=400ms: late becomes due
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st = f.StateSnapshot()
	if st.Counters.Submitted != 2 || st.Live() != 2 {
		t.Errorf("submitted=%d live=%d, want 2/2 after due time", st.Counters.Submitted, st.Live())
	}
	checkZeroLoss(t, f)
}

// TestFleetBoundedSkewConserves steps a skewed fleet and asserts the
// zero-loss invariant holds at every barrier — with up to MaxSkew
// barriers in flight, assigned-but-uncollected tasks must be accounted
// in InFlight, and Flush must bring the pipeline fully current.
func TestFleetBoundedSkewConserves(t *testing.T) {
	f, err := New(Config{Boards: 3, Seed: 7, MaxSkew: 4, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 12; i++ {
		f.Submit(lightSpec("t"))
	}
	for i := 0; i < 20; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
	}
	st := f.StateSnapshot()
	if st.Issued != 20 {
		t.Errorf("issued = %d, want 20", st.Issued)
	}
	if st.Batch != 20-f.cfg.MaxSkew {
		t.Errorf("collected = %d, want %d (MaxSkew barriers in flight)", st.Batch, 20-f.cfg.MaxSkew)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	st = f.StateSnapshot()
	if st.Batch != st.Issued || st.InFlight != 0 {
		t.Errorf("after Flush: collected %d issued %d inflight %d, want fully current", st.Batch, st.Issued, st.InFlight)
	}
	if st.Live() != 12 || st.QueueLen != 0 || st.Counters.Shed != 0 {
		t.Errorf("after Flush: live %d queued %d shed %d, want 12/0/0", st.Live(), st.QueueLen, st.Counters.Shed)
	}
	checkZeroLoss(t, f)
	// Price routing must still spread across equal boards under skew.
	for _, b := range st.Boards {
		if b.Tasks == 0 {
			t.Errorf("board %d got no tasks under bounded skew", b.Board)
		}
	}
}

// TestFleetSkewedRetryProjectsInFlight is the admission-queue retry
// regression: with stale snapshots (bounded skew), queued submissions
// retried at later barriers must project the demand already assigned at
// in-flight barriers — otherwise a board whose stale snapshot still
// looks idle absorbs the whole backlog many times over its capacity.
func TestFleetSkewedRetryProjectsInFlight(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 5, MaxSkew: 3, QueueCap: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Board 1 out of the picture: every admissible path leads to board 0,
	// whose supply ceiling (5400 PU on TC2) fits ~54 of these 100-PU
	// estimated tasks.
	if err := f.Drain(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.Submit(lightSpec("t"))
	}
	// Route over MaxSkew barriers while the collected snapshot is still
	// the idle barrier-0 view: without the in-flight carry these steps
	// would each re-route the queued remainder onto "idle" board 0.
	for i := 0; i < 3; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, f)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	st := f.StateSnapshot()
	got := st.Boards[0].Tasks
	if got == 0 {
		t.Fatal("board 0 got nothing: routing is broken before the regression even applies")
	}
	if got > 60 {
		t.Errorf("board 0 absorbed %d tasks, want ≤ 60 (supply ceiling ≈ 54 estimated tasks): in-flight demand not projected on retry", got)
	}
	if st.Boards[1].Tasks != 0 {
		t.Errorf("drained board 1 runs %d tasks, want 0", st.Boards[1].Tasks)
	}
	if want := 100 - got; st.QueueLen != want {
		t.Errorf("queue holds %d, want the %d that did not fit", st.QueueLen, want)
	}
	checkZeroLoss(t, f)
}

// TestFleetDrainOverflowShedsOnce pins the drain-overlapping-overflow
// accounting: evacuating a board into a full admission queue must shed
// the overflow exactly once — counted, queue cap respected — instead of
// silently growing the queue past its cap (the old manual-Drain path) or
// losing tasks from the conservation ledger.
func TestFleetDrainOverflowShedsOnce(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 2, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 3; i++ {
		f.Submit(lightSpec("live"))
	}
	if err := f.Step(); err != nil { // 3 tasks land on the board
		t.Fatal(err)
	}
	st := f.StateSnapshot()
	if st.Live() != 3 {
		t.Fatalf("live = %d before drain, want 3", st.Live())
	}
	// Fill the queue to its cap, then force the drain: 3 evacuated + 4
	// queued = 7 into a 4-slot queue.
	for i := 0; i < 4; i++ {
		f.Submit(lightSpec("queued"))
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	st = f.StateSnapshot()
	if st.QueueLen != 4 {
		t.Errorf("queue len = %d after drain, want cap 4", st.QueueLen)
	}
	if st.Counters.Shed != 3 {
		t.Errorf("shed = %d, want 3 (7 requeue candidates, 4 slots)", st.Counters.Shed)
	}
	if st.Counters.Drained != 3 {
		t.Errorf("drained = %d, want 3", st.Counters.Drained)
	}
	checkZeroLoss(t, f)
}

// TestFleetDrainCooldownBacksOff drives the drain/resume flapping fix
// through the streak state machine directly: a board that keeps
// re-tripping its degraded streak right after each resume must pay an
// exponentially growing healthy-barrier cooldown before the next resume
// (fault.Backoff with seeded jitter), count each repeat in Redrained,
// and emit a KindDrain event per transition.
func TestFleetDrainCooldownBacksOff(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 13, DrainDegradedAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ring := telemetry.NewRing(64)
	f.AttachTelemetry(telemetry.NewEmitter(nil, ring))

	// Synthetic collected barriers: board 0 degraded or healthy, board 1
	// always fine. Feeding noteBarrier directly decouples the
	// cooldown machine from the market's sensor heuristics; Flush
	// executes the queued drain/resume ops against the (empty) boards.
	barrier := func(deg bool) []Snapshot {
		s := make([]Snapshot, 2)
		for i := range s {
			s[i].Board = i
		}
		s[0].Degraded = deg
		return s
	}

	const cycles = 4
	var cooldowns []int
	for c := 0; c < cycles; c++ {
		// Re-trip immediately after the previous resume: the degraded
		// streak needs DrainDegradedAfter consecutive barriers.
		for j := 0; j < f.cfg.DrainDegradedAfter; j++ {
			f.noteBarrier(barrier(true), 0)
		}
		if !f.recs[0].auto {
			t.Fatalf("cycle %d: degraded streak did not trip auto-drain", c)
		}
		cooldowns = append(cooldowns, f.recs[0].cooldown)
		if err := f.Flush(); err != nil { // executes the drain op
			t.Fatal(err)
		}
		// Idle healthy through exactly the cooldown; the board must not
		// resume a single barrier earlier.
		for j := 0; j < cooldowns[c]; j++ {
			if !f.recs[0].auto {
				t.Fatalf("cycle %d: resumed after %d healthy barriers, want cooldown %d", c, j, cooldowns[c])
			}
			f.noteBarrier(barrier(false), 0)
		}
		if f.recs[0].auto {
			t.Fatalf("cycle %d: still drained after full cooldown of %d", c, cooldowns[c])
		}
		if err := f.Flush(); err != nil { // executes the resume op
			t.Fatal(err)
		}
	}

	if got := f.StateSnapshot().Counters.Redrained; got != cycles-1 {
		t.Errorf("redrained = %d, want %d (every drain after the first is a repeat)", got, cycles-1)
	}
	// Backoff with Factor 2 and Jitter 0.25 grows strictly: the shortest
	// possible next cooldown (1.5× base) exceeds the longest previous one.
	for c := 1; c < len(cooldowns); c++ {
		if cooldowns[c] <= cooldowns[c-1] {
			t.Errorf("cooldown did not back off: %v", cooldowns)
			break
		}
	}

	var drains, redrains, resumes int
	for _, ev := range ring.Snapshot() {
		if ev.Kind != telemetry.KindDrain {
			continue
		}
		switch ev.Class {
		case "drain":
			drains++
		case "redrain":
			redrains++
		case "resume":
			resumes++
		}
	}
	if drains != 1 || redrains != cycles-1 || resumes != cycles {
		t.Errorf("drain events = %d drain / %d redrain / %d resume, want 1 / %d / %d",
			drains, redrains, resumes, cycles-1, cycles)
	}
}

// TestFleetDrainCooldownDecays pins the counterpart: a board that
// survives twice its last cooldown of trusted barriers after a resume
// earns its exponential counter back, so the next (unrelated) drain
// starts from the base cooldown again.
func TestFleetDrainCooldownDecays(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 13, DrainDegradedAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	barrier := func(deg bool) []Snapshot {
		s := make([]Snapshot, 2)
		for i := range s {
			s[i].Board = i
		}
		s[0].Degraded = deg
		return s
	}
	trip := func() int {
		for j := 0; j < f.cfg.DrainDegradedAfter; j++ {
			f.noteBarrier(barrier(true), 0)
		}
		if !f.recs[0].auto {
			t.Fatal("degraded streak did not trip auto-drain")
		}
		cd := f.recs[0].cooldown
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < cd; j++ {
			f.noteBarrier(barrier(false), 0)
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		return cd
	}

	// The cooldown sequence is pinned by invariants, not by exact barrier
	// counts (which depend on the jitter stream and would flake under any
	// barrier reordering): every cooldown sits in [n, 32n] (base to cap),
	// the sequence grows strictly until it can first have hit the cap
	// region — jitter shortens by at most 25% and the factor is 2, so
	// each uncapped cooldown strictly exceeds its predecessor — and
	// inside the cap region it merely stays there.
	n := f.cfg.DrainDegradedAfter
	capMax := 32 * n
	capMin := (3*capMax + 3) / 4 // ceil(0.75 · cap): shortest jittered capped cooldown
	var cooldowns []int
	for len(cooldowns) < 2 || cooldowns[len(cooldowns)-1] < capMin || len(cooldowns) < 8 {
		cooldowns = append(cooldowns, trip())
		if len(cooldowns) > 16 {
			t.Fatalf("cooldowns never reached the cap region (≥%d): %v", capMin, cooldowns)
		}
	}
	if cooldowns[0] != n {
		t.Fatalf("first-offense cooldown = %d, want base %d (jitter only shortens, floored at the base)", cooldowns[0], n)
	}
	for c, cd := range cooldowns {
		if cd < n || cd > capMax {
			t.Fatalf("cooldown %d = %d outside [%d, %d]: %v", c, cd, n, capMax, cooldowns)
		}
		if c > 0 && cooldowns[c-1] < capMin && cd <= cooldowns[c-1] {
			t.Fatalf("cooldown did not back off below the cap: %v", cooldowns)
		}
	}

	// Survive 2× the last cooldown healthy: the counter resets and the
	// next drain is charged like a first offense again — back to the
	// base cooldown, regardless of how deep the backoff had grown.
	last := cooldowns[len(cooldowns)-1]
	for j := 0; j < 2*last; j++ {
		f.noteBarrier(barrier(false), 0)
	}
	if f.recs[0].drains != 0 {
		t.Fatalf("drain count = %d after surviving 2×cooldown, want 0", f.recs[0].drains)
	}
	if decayed := trip(); decayed != n {
		t.Errorf("cooldown after decay = %d, want base %d again", decayed, n)
	}
}

func TestTraceResolvesCaseInsensitively(t *testing.T) {
	spec, err := Arrival{Bench: "SWAPTIONS", Input: "N"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "swaptions_n" || spec.Priority != 1 {
		t.Errorf("task %q at priority %d, want canonical swaptions_n at the default 1", spec.Name, spec.Priority)
	}
	if _, err := (Arrival{Bench: "nope", Input: "n"}).Spec(); err == nil {
		t.Error("unknown benchmark resolved")
	}
}

// TestSubmitAtReleasesInStableOrder: arrivals scheduled in reverse time
// order, three to a due time, are admitted barrier by barrier exactly as
// a stable sort by due time orders them, each before the first barrier
// horizon past its due time.
func TestSubmitAtReleasesInStableOrder(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 5, QueueCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type arrival struct {
		at   sim.Time
		name string
	}
	var oracle []arrival
	for i := 0; i < 300; i++ {
		a := arrival{at: sim.Time((299-i)/3) * 30 * sim.Millisecond, name: fmt.Sprintf("a%03d", i)}
		oracle = append(oracle, a)
		f.SubmitAt(a.at, lightSpec(a.name))
	}
	sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].at < oracle[j].at })
	var got []arrival
	for horizon := f.cfg.Batch; len(got) < len(oracle); horizon += f.cfg.Batch {
		f.mu.Lock()
		f.releaseLocked(horizon)
		f.mu.Unlock()
		for _, s := range f.EvictQueued(len(oracle)) {
			got = append(got, arrival{name: s.Spec.Name})
		}
		due := sort.Search(len(oracle), func(i int) bool { return oracle[i].at >= horizon })
		if len(got) != due {
			t.Fatalf("horizon %v: released %d arrivals, want the %d due before it", horizon, len(got), due)
		}
	}
	for i := range oracle {
		if got[i].name != oracle[i].name {
			t.Fatalf("release %d is %s, stable order says %s", i, got[i].name, oracle[i].name)
		}
	}
}

// BenchmarkSubmitAt schedules 16,384 arrivals in reverse time order, the
// worst case for a schedule kept sorted on insert.
func BenchmarkSubmitAt(b *testing.B) {
	spec := lightSpec("t")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := New(Config{Boards: 1, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 16384; j > 0; j-- {
			f.SubmitAt(sim.Time(j)*sim.Millisecond, spec)
		}
		b.StopTimer()
		f.Close()
	}
}

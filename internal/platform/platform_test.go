package platform

import (
	"math"
	"testing"

	"pricepower/internal/hw"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

func cpuBoundSpec(name string, demand float64) task.Spec {
	return task.Spec{
		Name:     name,
		Priority: 1,
		MinHR:    24,
		MaxHR:    30,
		Phases:   []task.Phase{{HBCostLittle: demand / 27, SpeedupBig: 2}},
		Loop:     true,
	}
}

func cappedSpec(name string, demand, capHR float64) task.Spec {
	s := cpuBoundSpec(name, demand)
	s.Phases[0].SelfCapHR = capHR
	return s
}

func TestAddAndRemoveTask(t *testing.T) {
	p := NewTC2()
	tk := p.AddTask(cpuBoundSpec("a", 500), 2)
	if len(p.Tasks()) != 1 || p.CoreOf(tk) != 2 {
		t.Fatalf("task not added on core 2")
	}
	p.RemoveTasks(tk)
	if len(p.Tasks()) != 0 {
		t.Fatal("task not removed")
	}
	p.RemoveTasks(tk) // idempotent
}

// finiteSpec is a one-phase task that exits after d.
func finiteSpec(name string, d sim.Time) task.Spec {
	s := cpuBoundSpec(name, 300)
	s.Loop = false
	s.Phases[0].Duration = d
	return s
}

// The tick reports each exiting task once, in finish order, stamped with
// the tick it finished in; TakeFinished drains the report.
func TestTakeFinishedReportsExitsInFinishOrder(t *testing.T) {
	p := NewTC2()
	late := p.AddTask(finiteSpec("late", 30*sim.Millisecond), 0)
	p.AddTask(cpuBoundSpec("loop", 300), 1)
	early := p.AddTask(finiteSpec("early", 10*sim.Millisecond), 2)
	p.Run(20 * sim.Millisecond)
	if got := p.TakeFinished(); len(got) != 1 || got[0] != early || early.FinishedAt() != 10*sim.Millisecond {
		t.Fatalf("after 20 ms TakeFinished = %v (early at %v), want [early] at 10ms", got, early.FinishedAt())
	}
	if got := p.TakeFinished(); len(got) != 0 {
		t.Fatalf("second TakeFinished = %v, want empty", got)
	}
	p.Run(40 * sim.Millisecond)
	if got := p.TakeFinished(); len(got) != 1 || got[0] != late || late.FinishedAt() != 30*sim.Millisecond {
		t.Fatalf("TakeFinished = %v (late at %v), want [late] at 30ms", got, late.FinishedAt())
	}
	if p.NumTasks() != 3 {
		t.Fatalf("the platform itself retires nothing: %d tasks, want 3", p.NumTasks())
	}
}

// RemoveTasks drops a batch in one pass and keeps the survivors in
// creation order, in the task list and the per-core index alike.
func TestRemoveTasksBatch(t *testing.T) {
	p := NewTC2()
	var ts []*task.Task
	for i := 0; i < 6; i++ {
		ts = append(ts, p.AddTask(cpuBoundSpec("t", 200), i%2))
	}
	p.Run(5 * sim.Millisecond)
	p.RemoveTasks(ts[4], ts[1], ts[0], ts[1])
	got := p.Tasks()
	if len(got) != 3 || got[0] != ts[2] || got[1] != ts[3] || got[2] != ts[5] {
		t.Fatalf("Tasks() = %v, want [t2 t3 t5]", got)
	}
	if c0 := p.TasksOnCore(0); len(c0) != 1 || c0[0] != ts[2] {
		t.Fatalf("TasksOnCore(0) = %v, want [t2]", c0)
	}
	if c1 := p.TasksOnCore(1); len(c1) != 2 || c1[0] != ts[3] || c1[1] != ts[5] {
		t.Fatalf("TasksOnCore(1) = %v, want [t3 t5]", c1)
	}
	if n := p.Queue(0).Len() + p.Queue(1).Len(); n != 3 {
		t.Fatalf("run queues hold %d entities, want 3", n)
	}
	p.RemoveTasks() // no-op
	p.Run(5 * sim.Millisecond)
}

func TestTaskReceivesWorkAndBeats(t *testing.T) {
	p := NewTC2()
	little := p.Chip.Clusters[1]
	little.SetLevel(little.NumLevels() - 1)    // 1000 PU
	tk := p.AddTask(cpuBoundSpec("a", 540), 2) // core 2 = first LITTLE core
	p.Run(sim.Second)
	// CPU-bound task alone on a 1000 PU core gets 1000 PU·s of work.
	if got := p.TotalWork(tk); math.Abs(got-1000) > 1 {
		t.Errorf("total work = %v, want ≈1000", got)
	}
	// 1000 PU·s at 20 PU·s/hb = 50 hb over 1 s.
	if hb := tk.Heartbeats(); math.Abs(hb-50) > 1 {
		t.Errorf("heartbeats = %v, want ≈50", hb)
	}
	if pu := p.ConsumedPU(tk); math.Abs(pu-1000) > 1 {
		t.Errorf("ConsumedPU = %v, want ≈1000", pu)
	}
	if u := p.Utilization(2); math.Abs(u-1) > 1e-9 {
		t.Errorf("core util = %v, want 1", u)
	}
}

func TestSelfCappedTaskIdles(t *testing.T) {
	p := NewTC2()
	little := p.Chip.Clusters[1]
	little.SetLevel(little.NumLevels() - 1)
	tk := p.AddTask(cappedSpec("a", 540, 30), 2) // cap 30 hb/s = 600 PU
	p.Run(sim.Second)
	if got := p.TotalWork(tk); math.Abs(got-600) > 1 {
		t.Errorf("capped task work = %v, want ≈600", got)
	}
	if u := p.Utilization(2); math.Abs(u-0.6) > 0.01 {
		t.Errorf("core util = %v, want ≈0.6", u)
	}
}

func TestWeightsShareCore(t *testing.T) {
	p := NewTC2()
	little := p.Chip.Clusters[1]
	little.SetLevel(little.NumLevels() - 1)
	a := p.AddTask(cpuBoundSpec("a", 900), 2)
	b := p.AddTask(cpuBoundSpec("b", 900), 2)
	p.SetWeight(a, 3000)
	p.SetWeight(b, 1000)
	if p.Weight(a) != 3000 {
		t.Fatalf("Weight(a) = %v", p.Weight(a))
	}
	p.Run(sim.Second)
	ratio := p.TotalWork(a) / p.TotalWork(b)
	if math.Abs(ratio-3) > 0.05 {
		t.Errorf("work ratio = %v, want 3", ratio)
	}
}

func TestMigrationChargesCostAndMoves(t *testing.T) {
	p := NewTC2()
	tk := p.AddTask(cpuBoundSpec("a", 500), 2) // LITTLE core
	p.Run(100 * sim.Millisecond)
	before := p.TotalWork(tk)
	if !p.Migrate(tk, 0) { // to big core
		t.Fatal("Migrate returned false")
	}
	if !p.Migrating(tk) {
		t.Error("task not frozen during migration")
	}
	if p.Migrate(tk, 1) {
		t.Error("re-entrant migration allowed")
	}
	// LITTLE→big at min freq costs 2.16 ms; during ~2 ticks the task gets
	// nothing.
	p.Run(2 * sim.Millisecond)
	if got := p.TotalWork(tk); got != before {
		t.Errorf("frozen task received work: %v vs %v", got, before)
	}
	p.Run(10 * sim.Millisecond)
	if p.Migrating(tk) {
		t.Error("task still frozen after cost elapsed")
	}
	if p.CoreOf(tk) != 0 {
		t.Errorf("task on core %d, want 0", p.CoreOf(tk))
	}
	if p.TotalWork(tk) <= before {
		t.Error("task received no work after migration")
	}
	total, cross := p.Migrations()
	if total != 1 || cross != 1 {
		t.Errorf("migrations = %d/%d, want 1/1", total, cross)
	}
}

func TestMigrateNoopCases(t *testing.T) {
	p := NewTC2()
	tk := p.AddTask(cpuBoundSpec("a", 500), 2)
	if p.Migrate(tk, 2) {
		t.Error("same-core migration reported started")
	}
	if p.Migrate(tk, 99) {
		t.Error("out-of-range migration reported started")
	}
}

func TestPowerAccountingAccumulates(t *testing.T) {
	p := NewTC2()
	p.AddTask(cpuBoundSpec("a", 2000), 0) // big core, CPU bound
	p.Run(sim.Second)
	if p.Power() <= 0 {
		t.Error("Power() not positive")
	}
	m := p.Meter()
	if m.Joules() <= 0 || m.Elapsed() != sim.Second {
		t.Errorf("meter = %v J over %v", m.Joules(), m.Elapsed())
	}
	if math.Abs(m.AveragePower()-p.Power()) > 0.5 {
		t.Errorf("avg power %v far from instantaneous %v in steady state",
			m.AveragePower(), p.Power())
	}
	// Cluster meters sum to the chip meter.
	sum := p.ClusterMeter(0).Joules() + p.ClusterMeter(1).Joules()
	if math.Abs(sum-m.Joules()) > 1e-6 {
		t.Errorf("cluster energy %v != chip energy %v", sum, m.Joules())
	}
	if p.ClusterPower(0) <= 0 || p.ClusterPower(1) <= 0 {
		t.Error("cluster power not positive")
	}
}

type recordingGov struct {
	attached *Platform
	ticks    int
}

func (g *recordingGov) Name() string       { return "recording" }
func (g *recordingGov) Attach(p *Platform) { g.attached = p }
func (g *recordingGov) Tick(now sim.Time)  { g.ticks++ }

func TestGovernorDrivenEveryTick(t *testing.T) {
	p := NewTC2()
	g := &recordingGov{}
	p.SetGovernor(g)
	if g.attached != p {
		t.Fatal("Attach not called with platform")
	}
	p.Run(50 * sim.Millisecond)
	if g.ticks != 50 {
		t.Errorf("governor ticked %d times over 50 ms, want 50", g.ticks)
	}
}

func TestTasksOnCore(t *testing.T) {
	p := NewTC2()
	a := p.AddTask(cpuBoundSpec("a", 500), 2)
	b := p.AddTask(cpuBoundSpec("b", 500), 2)
	c := p.AddTask(cpuBoundSpec("c", 500), 0)
	on2 := p.TasksOnCore(2)
	if len(on2) != 2 || on2[0] != a || on2[1] != b {
		t.Errorf("TasksOnCore(2) = %v", on2)
	}
	if got := p.TasksOnCore(0); len(got) != 1 || got[0] != c {
		t.Errorf("TasksOnCore(0) wrong")
	}
	if got := p.TasksOnCore(1); len(got) != 0 {
		t.Errorf("TasksOnCore(1) = %v, want empty", got)
	}
}

// TestRemoveWhileMigratingDoesNotResurrect is the regression test for the
// task-resurrection bug: removing a task frozen mid-migration must cancel
// the pending migration-completion event. Before the fix, the completion
// re-enqueued the dead task's scheduler entity on the destination core,
// where it silently absorbed supply forever.
func TestRemoveWhileMigratingDoesNotResurrect(t *testing.T) {
	p := NewTC2()
	a := p.AddTask(cpuBoundSpec("a", 500), 2)  // LITTLE core
	b := p.AddTask(cpuBoundSpec("b", 2000), 0) // big core, CPU bound
	p.Run(10 * sim.Millisecond)
	if !p.Migrate(a, 0) { // LITTLE→big: ~2.16 ms cost
		t.Fatal("Migrate returned false")
	}
	p.RemoveTasks(a)
	if got := p.TasksOnCore(0); len(got) != 1 || got[0] != b {
		t.Fatalf("TasksOnCore(0) after remove = %v, want just b", got)
	}
	before := p.TotalWork(b)
	p.Run(20 * sim.Millisecond) // run well past the migration cost
	if n := p.queues[0].Len(); n != 1 {
		t.Errorf("destination queue has %d entities, want 1 — dead entity resurrected", n)
	}
	// b must receive the core's entire supply; a resurrected equal-weight
	// entity would absorb half of it.
	supply := p.Chip.Cores[0].SupplyPU()
	want := supply * 0.020
	if got := p.TotalWork(b) - before; math.Abs(got-want) > want*0.02 {
		t.Errorf("b received %.1f PU·s over 20 ms, want ≈%.1f (full supply)", got, want)
	}
	if len(p.Tasks()) != 1 {
		t.Errorf("Tasks() = %d, want 1", len(p.Tasks()))
	}
}

// The per-core index must track migrations from the moment affinity is set
// (frozen tasks report their destination core).
func TestTasksOnCoreTracksMigration(t *testing.T) {
	p := NewTC2()
	a := p.AddTask(cpuBoundSpec("a", 500), 2)
	if !p.Migrate(a, 3) {
		t.Fatal("Migrate returned false")
	}
	if got := p.TasksOnCore(2); len(got) != 0 {
		t.Errorf("TasksOnCore(2) = %v, want empty during migration", got)
	}
	if got := p.TasksOnCore(3); len(got) != 1 || got[0] != a {
		t.Errorf("TasksOnCore(3) = %v, want [a]", got)
	}
	if n := p.NumTasksOnCore(3); n != 1 {
		t.Errorf("NumTasksOnCore(3) = %d, want 1", n)
	}
	p.Run(10 * sim.Millisecond)
	if got := p.TasksOnCore(3); len(got) != 1 || got[0] != a {
		t.Errorf("TasksOnCore(3) after settling = %v, want [a]", got)
	}
}

// The per-core index keeps creation (task ID) order even when tasks arrive
// via migration out of order.
func TestTasksOnCoreCreationOrderAfterChurn(t *testing.T) {
	p := NewTC2()
	a := p.AddTask(cpuBoundSpec("a", 500), 2)
	b := p.AddTask(cpuBoundSpec("b", 500), 3)
	c := p.AddTask(cpuBoundSpec("c", 500), 4)
	p.Migrate(c, 2) // c arrives on core 2 before b
	p.Run(10 * sim.Millisecond)
	p.Migrate(b, 2)
	p.Run(10 * sim.Millisecond)
	got := p.TasksOnCore(2)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("TasksOnCore(2) = %v, want [a b c] in creation order", got)
	}
}

func TestLoadTrackingVisible(t *testing.T) {
	p := NewTC2()
	tk := p.AddTask(cpuBoundSpec("a", 5000), 2) // starved at any freq
	p.Run(200 * sim.Millisecond)
	if p.Load(tk) < 0.9 {
		t.Errorf("starved task load = %v, want ≈1", p.Load(tk))
	}
}

func TestPoweredDownClusterDeliversNothing(t *testing.T) {
	p := NewTC2()
	tk := p.AddTask(cpuBoundSpec("a", 500), 0)
	p.Chip.Clusters[0].PowerOff()
	p.Run(100 * sim.Millisecond)
	if p.TotalWork(tk) != 0 {
		t.Errorf("task on powered-down cluster got %v work", p.TotalWork(tk))
	}
	if hw.ClusterPower(p.Chip.Clusters[0]) != p.Chip.Clusters[0].Spec.OffPower {
		t.Error("powered-down cluster drawing more than OffPower")
	}
}

func TestAddTaskPanicsOnBadCore(t *testing.T) {
	p := NewTC2()
	defer func() {
		if recover() == nil {
			t.Fatal("AddTask on invalid core did not panic")
		}
	}()
	p.AddTask(cpuBoundSpec("a", 500), 17)
}

type countingChecker struct {
	calls int
	last  sim.Time
}

func (c *countingChecker) CheckTick(p *Platform, now sim.Time) {
	c.calls++
	c.last = now
}

func TestAttachCheckerRunsEveryTick(t *testing.T) {
	p := NewTC2()
	p.AttachChecker(nil) // ignored
	c := &countingChecker{}
	p.AttachChecker(c)
	p.AttachChecker(c) // dedup: still called once per tick

	const ticks = 25
	p.Run(ticks * sim.Millisecond)
	if c.calls != ticks {
		t.Errorf("checker called %d times over %d ticks", c.calls, ticks)
	}
	if c.last != ticks*sim.Millisecond {
		t.Errorf("last check at %v, want %v", c.last, ticks*sim.Millisecond)
	}

	second := &countingChecker{}
	p.AttachChecker(second)
	p.Run(sim.Millisecond)
	if c.calls != ticks+1 || second.calls != 1 {
		t.Errorf("after late attach: first %d calls, second %d", c.calls, second.calls)
	}
}

// TestMigrationEmitsTelemetryEvents pins the platform's side of the event
// stream: each Migrate emits one migration event carrying the §5.1 cost
// class (µs intra-cluster, ms cross-cluster) and the per-class counters
// track it, while state snapshots appear at the 100 ms publish cadence.
func TestMigrationEmitsTelemetryEvents(t *testing.T) {
	p := NewTC2()
	ring := telemetry.NewRing(64)
	em := telemetry.NewEmitter(telemetry.NewRegistry(), ring)
	p.AttachTelemetry(em)
	if p.Telemetry() != em {
		t.Fatal("Telemetry accessor does not return the attached emitter")
	}

	tk := p.AddTask(cpuBoundSpec("a", 500), 2)
	p.Run(100 * sim.Millisecond)
	if !p.Migrate(tk, 0) { // LITTLE→big: cross-cluster, ms class
		t.Fatal("Migrate returned false")
	}
	p.Run(20 * sim.Millisecond)
	if !p.Migrate(tk, 1) { // big→big: intra-cluster, µs class
		t.Fatal("intra-cluster Migrate returned false")
	}
	p.Run(200 * sim.Millisecond)

	var migs []telemetry.Event
	for _, ev := range ring.Snapshot() {
		if ev.Kind == telemetry.KindMigration {
			migs = append(migs, ev)
		}
	}
	if len(migs) != 2 {
		t.Fatalf("%d migration events, want 2", len(migs))
	}
	cross, intra := migs[0], migs[1]
	if cross.Class != "ms" || cross.Value < 1e-3 {
		t.Errorf("cross-cluster migration event %+v, want class ms with ≥1 ms cost", cross)
	}
	if intra.Class != "us" || intra.Value <= 0 || intra.Value >= 1e-3 {
		t.Errorf("intra-cluster migration event %+v, want class us with sub-ms cost", intra)
	}
	if cross.Name != "a" || cross.Task != tk.ID || cross.Cluster != 0 || cross.Core != 0 {
		t.Errorf("cross migration event ids wrong: %+v", cross)
	}
	if cross.Time <= 0 || intra.Time <= cross.Time {
		t.Errorf("migration events not timestamped in order: %v, %v", cross.Time, intra.Time)
	}

	reg := em.Registry()
	if got := reg.Counter(`pricepower_migrations_total{class="ms"}`, "").Value(); got != 1 {
		t.Errorf("ms-class migration counter = %d, want 1", got)
	}
	if got := reg.Counter(`pricepower_migrations_total{class="us"}`, "").Value(); got != 1 {
		t.Errorf("us-class migration counter = %d, want 1", got)
	}
	if reg.Counter("pricepower_ticks_total", "").Value() == 0 {
		t.Error("tick counter never incremented")
	}

	// The hardware half of /state was published at the 100 ms cadence.
	st, ok := em.StateSnapshot()
	if !ok {
		t.Fatal("no state snapshot published")
	}
	if len(st.Clusters) != len(p.Chip.Clusters) || st.ChipPowerW <= 0 {
		t.Errorf("state snapshot incomplete: %+v", st)
	}
	for _, c := range st.Clusters {
		if c.FreqMHz <= 0 || c.Name == "" {
			t.Errorf("cluster state not filled: %+v", c)
		}
	}
}

// TestStatsSnapshot pins the router-facing snapshot: it must agree with the
// live accessors, carry every cluster, and share no storage with the
// platform (mutating the snapshot must not disturb a later one).
func TestStatsSnapshot(t *testing.T) {
	p := NewTC2()
	p.AddTask(cpuBoundSpec("a", 400), 0)
	p.AddTask(cpuBoundSpec("b", 400), 3)
	p.Run(200 * sim.Millisecond)

	s := p.Stats(nil)
	if s.Now != p.Now() || s.PowerW != p.Power() || s.Tasks != p.NumTasks() {
		t.Errorf("stats disagree with live accessors: %+v", s)
	}
	if s.Tasks != 2 || p.NumTasks() != 2 {
		t.Errorf("NumTasks = %d, want 2", s.Tasks)
	}
	if s.EnergyJ <= 0 {
		t.Errorf("energy not accumulated: %v", s.EnergyJ)
	}
	if len(s.Clusters) != len(p.Chip.Clusters) {
		t.Fatalf("stats carry %d clusters, want %d", len(s.Clusters), len(p.Chip.Clusters))
	}
	total := 0
	for i, cs := range s.Clusters {
		if cs.ID != i || cs.Name == "" || cs.FreqMHz <= 0 {
			t.Errorf("cluster row %d not filled: %+v", i, cs)
		}
		total += cs.Tasks
	}
	if total != 2 {
		t.Errorf("per-cluster task counts sum to %d, want 2", total)
	}
	s.Clusters[0].Tasks = 99
	if p.Stats(nil).Clusters[0].Tasks == 99 {
		t.Error("Stats shares cluster storage with a prior snapshot")
	}
}

// TestMaxSupplyPU checks the capacity ceiling against the TC2 geometry:
// 2 big cores at 1200 MHz + 3 LITTLE cores at 1000 MHz.
func TestMaxSupplyPU(t *testing.T) {
	p := NewTC2()
	var want float64
	for _, cl := range p.Chip.Clusters {
		top := cl.Spec.Levels[len(cl.Spec.Levels)-1]
		want += float64(top.FreqMHz) * float64(len(cl.Cores))
	}
	if got := p.MaxSupplyPU(); got != want || got <= 0 {
		t.Errorf("MaxSupplyPU = %v, want %v", got, want)
	}
	// The ceiling is static: stepping clusters down must not change it.
	for _, cl := range p.Chip.Clusters {
		cl.StepDown()
	}
	if got := p.MaxSupplyPU(); got != want {
		t.Errorf("MaxSupplyPU after down-steps = %v, want %v", got, want)
	}
}

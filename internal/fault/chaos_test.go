package fault_test

import (
	"fmt"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/exp"
	"pricepower/internal/fault"
	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// faultMaxOver relaxes the tdp-settled streak tolerance under injection:
// a refused down-step or stuck sensor can legitimately pin the smoothed
// power above the slack band for the length of a fault window.
const faultMaxOver = 64

// Chaos acceptance: a randomized fault schedule over a Table 6 workload
// mix, at the paper's 4 W TDP cap, must survive the full invariant set —
// and replay bit-identically: same scenario + same seed ⇒ identical
// digests, which is the injector's determinism contract under the
// concurrent cluster phases.
func TestChaosRandomSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs are seconds-long")
	}
	set, ok := workload.SetByName("m2")
	if !ok {
		t.Fatal("workload set m2 missing")
	}
	const dur = 10 * sim.Second // + 5 s warm-up ≈ 470 rounds at 31.7 ms
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := fault.RandomScenario(seed, 2, 5, 450)
			run := func() *check.Trace {
				rec := check.NewRecorder("chaos", seed, "m2/PPM/4W", check.RecorderOptions{})
				_, err := exp.RunSetOpts("PPM", set, 4, dur, exp.RunOptions{
					Check:         true,
					Recorder:      rec,
					Faults:        fault.NewInjector(sc),
					MaxOverRounds: faultMaxOver,
				})
				if err != nil {
					t.Fatalf("chaos run violated invariants: %v", err)
				}
				return rec.Trace()
			}
			t1 := run()
			t2 := run()
			if i, ok := t1.Diff(t2); !ok {
				t.Fatalf("chaos replay diverged at sample %d (market round %d)", i, t1.RoundAt(i))
			}
			if len(t1.Digests) == 0 {
				t.Fatal("chaos run recorded no market samples")
			}
		})
	}
}

// chaosSpec builds a steady looping task: demand PUs on the LITTLE
// micro-architecture at the 30 hb/s target, 2× speedup on big.
func chaosSpec(name string, demand float64) task.Spec {
	return task.Spec{
		Name: name, Priority: 1, MinHR: 27, MaxHR: 33, Loop: true,
		Phases: []task.Phase{{HBCostLittle: demand / 30, SpeedupBig: 2}},
	}
}

// runPPM boots a fixed 3-task mix on a TC2 under an unconstrained PPM
// governor (a stationary workload without the TDP limit cycle settles to a
// true fixed point), runs it under the invariant checker for `total`, and
// returns the platform and governor for post-run inspection.
func runPPM(t *testing.T, inj platform.FaultInjector, total sim.Time) (*platform.Platform, *ppm.Governor) {
	t.Helper()
	p := platform.NewTC2()
	g := ppm.New(ppm.DefaultConfig(0))
	p.SetGovernor(g)
	if inj != nil {
		p.AttachFaults(inj)
	}
	p.AddTask(chaosSpec("t1", 250), 2)
	p.AddTask(chaosSpec("t2", 300), 3)
	p.AddTask(chaosSpec("t3", 900), 4)
	checker := check.New(check.Options{Market: g.Market(), MaxOverRounds: faultMaxOver})
	p.AttachChecker(checker)
	p.Run(total)
	if err := checker.Err(); err != nil {
		t.Fatalf("invariant violation under faults: %v", err)
	}
	return p, g
}

// Single-fault acceptance: each fault class, injected for a bounded window,
// completes without panic or violation and the system settles back to the
// fault-free fixed point — same V-F levels, same gating, same task
// placement census, degraded flag cleared — within the post-window rounds.
func TestSingleFaultSettlesToBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("settle runs are seconds-long")
	}
	const total = 18 * sim.Second // window [160,190) ends ≈6 s in
	basePlat, baseGov := runPPM(t, nil, total)

	faults := []fault.Fault{
		{Type: fault.PowerNoise, Cluster: -1, Start: 160, Rounds: 30, Magnitude: 3},
		{Type: fault.PowerDropout, Cluster: -1, Start: 160, Rounds: 30},
		{Type: fault.PowerStuck, Cluster: 0, Start: 160, Rounds: 30},
		{Type: fault.DVFSFail, Cluster: 1, Start: 160, Rounds: 30, Magnitude: 1},
		{Type: fault.DVFSDelay, Cluster: 0, Start: 160, Rounds: 30, Magnitude: 100},
		{Type: fault.MigrationBlowup, Cluster: -1, Start: 160, Rounds: 30, Magnitude: 10},
	}
	for _, f := range faults {
		f := f
		t.Run(string(f.Type), func(t *testing.T) {
			inj := fault.NewInjector(fault.Scenario{Seed: 9, Faults: []fault.Fault{f}})
			p, g := runPPM(t, inj, total)
			if inj.Activations() != 1 {
				t.Fatalf("fault window activated %d times, want 1", inj.Activations())
			}
			if g.Market().Degraded() {
				t.Error("market still degraded long after the fault window closed")
			}
			if got, want := len(p.Tasks()), len(basePlat.Tasks()); got != want {
				t.Errorf("%d tasks alive, baseline has %d", got, want)
			}
			for i, cl := range p.Chip.Clusters {
				base := basePlat.Chip.Clusters[i]
				if cl.Level() != base.Level() {
					t.Errorf("cluster %d settled at level %d, baseline %d", i, cl.Level(), base.Level())
				}
				if cl.On != base.On {
					t.Errorf("cluster %d gating %v, baseline %v", i, cl.On, base.On)
				}
			}
			if got, want := g.Market().State(), baseGov.Market().State(); got != want {
				t.Errorf("chip agent state %v, baseline %v", got, want)
			}
		})
	}
}

// The degradation machinery must actually engage: a chip-sensor dropout
// flips the market into degraded mode inside the window (observed mid-run,
// not just at the end), holds the last trusted power, and clears after the
// window plus the healthy-streak hysteresis.
func TestSensorDropoutEntersAndExitsDegraded(t *testing.T) {
	p := platform.NewTC2()
	g := ppm.New(ppm.DefaultConfig(0))
	p.SetGovernor(g)
	inj := fault.NewInjector(fault.Scenario{Seed: 2, Faults: []fault.Fault{
		{Type: fault.PowerDropout, Cluster: -1, Start: 60, Rounds: 40},
	}})
	p.AttachFaults(inj)
	p.AddTask(chaosSpec("t1", 250), 2)
	p.AddTask(chaosSpec("t2", 900), 4)

	var midDegraded bool
	var midPower float64
	p.Engine.At(sim.Time(80)*sim.FromMillis(31.7), func(now sim.Time) {
		midDegraded = g.Market().Degraded()
		midPower = g.Market().LastGoodPower()
	})
	p.Run(8 * sim.Second)

	if !midDegraded {
		t.Error("market not degraded mid-dropout")
	}
	if midPower <= 0 {
		t.Errorf("last trusted power %.3f W mid-dropout, want > 0 (last-good hold)", midPower)
	}
	if g.Market().Degraded() {
		t.Error("market still degraded after the window closed")
	}
	if g.Market().SensorRejects() == 0 {
		t.Error("no sensor rejections counted across a 40-round dropout")
	}
}

// Hot-unplug acceptance: tasks stranded on an unplugged core are evacuated
// (none lost, none starving on an offline core), and the core rejoins the
// market cleanly on replug.
func TestCoreUnplugEvacuatesAndRecovers(t *testing.T) {
	inj := fault.NewInjector(fault.Scenario{Seed: 4, Faults: []fault.Fault{
		{Type: fault.CoreUnplug, Cluster: -1, Core: 2, Start: 60, Rounds: 40},
	}})
	p, g := runPPM(t, inj, 10*sim.Second)

	if !p.CoreOnline(2) {
		t.Error("core 2 still offline after the window closed")
	}
	if got := len(p.Tasks()); got != 3 {
		t.Errorf("%d tasks alive, want 3 — a task was lost", got)
	}
	if g.Evacuations() == 0 {
		t.Error("no evacuations recorded for an unplugged occupied core")
	}
	for _, tk := range p.Tasks() {
		if !p.CoreOnline(p.CoreOf(tk)) {
			t.Errorf("task %s left on offline core %d", tk.Name, p.CoreOf(tk))
		}
		if tk.Heartbeats() == 0 {
			t.Errorf("task %s made no progress", tk.Name)
		}
	}
	// The replugged core's supply agent must have rejoined price discovery
	// with sane state (the checker already pinned price-nonneg throughout).
	if _, c := g.Market().CoreByID(2); c == nil {
		t.Fatal("core 2 missing from the market")
	}
}

// The injector must stay deterministic on a 16-cluster platform, where
// every round drives the reading and actuation hooks of every cluster (run
// under -race in CI's chaos job).
func TestChaosParallelManyCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("many-cluster chaos run is seconds-long")
	}
	run := func() uint64 {
		chip := hw.MustNewChip(hw.ScaledSpec(16, 2))
		p := platform.New(chip, sim.Millisecond)
		g := ppm.New(ppm.DefaultConfig(0))
		p.SetGovernor(g)
		sc := fault.RandomScenario(21, 16, 32, 180)
		p.AttachFaults(fault.NewInjector(sc))
		for i := 0; i < 16; i++ {
			p.AddTask(chaosSpec(fmt.Sprintf("w%d", i), 150+float64(i)*40), i*2)
		}
		rec := check.NewRecorder("parallel-chaos", 21, "scaled-16x2", check.RecorderOptions{
			Market: g.Market(),
		})
		p.AttachChecker(rec)
		checker := check.New(check.Options{Market: g.Market(), MaxOverRounds: faultMaxOver})
		p.AttachChecker(checker)
		p.Run(6 * sim.Second)
		if err := checker.Err(); err != nil {
			t.Fatalf("parallel chaos violated invariants: %v", err)
		}
		return rec.Trace().Final
	}
	if d1, d2 := run(), run(); d1 != d2 {
		t.Fatalf("parallel chaos runs diverged: %016x != %016x", d1, d2)
	}
}

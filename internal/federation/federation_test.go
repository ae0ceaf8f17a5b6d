package federation

import (
	"sort"
	"strings"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// fedSpec is a small looping task at the given priority (the SLA tier
// key): low demand, so backlogs in tests are built deliberately.
func fedSpec(name string, prio int) task.Spec {
	return task.Spec{Name: name, Priority: prio, MinHR: 4, MaxHR: 6,
		Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 1.8}}, Loop: true}
}

// fedHeavy demands ~2000 PU on a LITTLE core — a handful saturate one
// board's supply ceiling, so backlogs stay queued (and evictable)
// instead of being absorbed.
func fedHeavy(name string, prio int) task.Spec {
	return task.Spec{Name: name, Priority: prio, MinHR: 8, MaxHR: 12,
		Phases: []task.Phase{{HBCostLittle: 200, SpeedupBig: 1.8}}, Loop: true}
}

func flat(price float64) PriceTrace {
	return PriceTrace{Intervals: []PriceInterval{{StartH: 0, EndH: 24, PriceKWh: price}}}
}

func mustStep(t *testing.T, f *Federation) {
	t.Helper()
	if err := f.Step(); err != nil {
		if _, only := fleet.CrashErrors(err); only {
			return // absorbed: the region supervises its restarts
		}
		t.Fatal(err)
	}
}

// TestFederationConservation asserts the cross-region zero-loss
// identity at every epoch for R ∈ {1, 2, 4} under routed, pinned, and
// scheduled submissions, queue-cap sheds, an outage window, and active
// migration.
func TestFederationConservation(t *testing.T) {
	for _, regions := range []int{1, 2, 4} {
		t.Run(itoa(regions)+"-regions", func(t *testing.T) {
			cfg := Config{
				Seed:  uint64(100 + regions),
				Check: true,
				Migration: MigrationConfig{
					CostLatency: 5e-6, CostTransfer: 5e-6,
					SustainEpochs: 1, MaxBatch: 4, CooldownEpochs: -1,
				},
			}
			for i := 0; i < regions; i++ {
				price := 0.02 + 0.25*float64(i) // ascending: region 0 cheapest
				cap := 0
				if i == 0 {
					cap = 8 // small cap on one region to force sheds
				}
				boards := 2
				if i == regions-1 {
					boards = 1 // choke the expensive region: backlog stays queued
				}
				cfg.Regions = append(cfg.Regions, RegionConfig{
					Name:  "c" + itoa(i),
					Fleet: fleet.Config{Boards: boards, QueueCap: cap},
					Price: flat(price),
				})
			}
			if regions >= 2 {
				// One region disappears for a window mid-run.
				cfg.Regions[regions-1].Outage = fault.Scenario{
					Faults: []fault.Fault{{Type: fault.RegionOutage, Start: 3, Rounds: 2}},
				}
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			for epoch := 1; epoch <= 10; epoch++ {
				f.Submit(fedSpec("routed", 1), fedSpec("routed", 3))
				if regions >= 2 {
					// Pin a backlog into the most expensive region so the
					// controller has something to move; overflow region
					// 0's small cap to exercise shed accounting.
					if _, err := f.SubmitTo(regions-1, fedHeavy("pin", 2), fedHeavy("pin", 2), fedHeavy("pin", 2)); err != nil {
						t.Fatal(err)
					}
					if _, err := f.SubmitTo(0, fedSpec("flood", 1), fedSpec("flood", 1)); err != nil {
						t.Fatal(err)
					}
				}
				f.SubmitAt(f.Now()+f.epochDur()/2, fedSpec("later", 2))
				mustStep(t, f) // Check=true asserts the ledger inside Step
				if err := check.CheckFederationConservation(f); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
			}
			st := f.StateSnapshot()
			if st.Counters.Submitted == 0 {
				t.Fatal("no external submissions accounted")
			}
			if regions >= 2 && st.Counters.MigratedTasks == 0 {
				t.Error("expected some migration under a forced backlog and near-zero cost")
			}
		})
	}
}

// TestFederationMigrationConvergence: under sustained divergence the
// backlog pinned into the expensive region must drain toward the cheap
// region within a bounded number of epochs, and every moved task must
// arrive (delivered = migrated once transit clears).
func TestFederationMigrationConvergence(t *testing.T) {
	cfg := Config{
		Seed: 9, Check: true,
		Migration: MigrationConfig{
			CostLatency: 5e-5, CostTransfer: 5e-5,
			SustainEpochs: 1, MaxBatch: 8, LatencyEpochs: 1, CooldownEpochs: -1,
		},
		Regions: []RegionConfig{
			{Name: "cheap", Fleet: fleet.Config{Boards: 2}, Price: flat(0.01)},
			{Name: "dear", Fleet: fleet.Config{Boards: 1}, Price: flat(1.0)},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Build a 40-task backlog in the expensive region. A single barrier
	// routes some onto its board; the rest sit queued and evictable.
	specs := make([]task.Spec, 40)
	for i := range specs {
		specs[i] = fedHeavy("bulk", 1)
	}
	if _, err := f.SubmitTo(1, specs...); err != nil {
		t.Fatal(err)
	}

	drained := -1
	for epoch := 1; epoch <= 30; epoch++ {
		mustStep(t, f)
		st := f.StateSnapshot()
		if st.Regions[1].QueueLen == 0 && st.InTransit == 0 {
			drained = epoch
			break
		}
	}
	if drained < 0 {
		st := f.StateSnapshot()
		t.Fatalf("expensive backlog never drained: %+v", st.Regions[1])
	}
	st := f.StateSnapshot()
	if st.Counters.Migrations == 0 || st.Counters.MigratedTasks == 0 {
		t.Fatalf("backlog drained without the controller: %+v", st.Counters)
	}
	if st.Counters.Delivered != st.Counters.MigratedTasks {
		t.Fatalf("delivered %d != migrated %d with empty transit",
			st.Counters.Delivered, st.Counters.MigratedTasks)
	}
	// The moved work must actually live in the cheap region now.
	if st.Regions[0].Live+st.Regions[0].QueueLen == 0 {
		t.Fatal("cheap region took no migrated load")
	}
	if err := check.CheckFederationConservation(f); err != nil {
		t.Fatal(err)
	}
}

// TestFederationNoMigrationBelowCost: identical prices → zero
// divergence → the controller must never move the backlog, however
// long it sits.
func TestFederationNoMigrationBelowCost(t *testing.T) {
	cfg := Config{
		Seed: 4, Check: true,
		Migration: MigrationConfig{CostLatency: 0.01, CostTransfer: 0.01, SustainEpochs: 1},
		Regions: []RegionConfig{
			{Name: "a", Fleet: fleet.Config{Boards: 1}, Price: flat(0.10)},
			{Name: "b", Fleet: fleet.Config{Boards: 1}, Price: flat(0.10)},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	specs := make([]task.Spec, 30)
	for i := range specs {
		specs[i] = fedHeavy("s", 1)
	}
	if _, err := f.SubmitTo(0, specs...); err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 12; epoch++ {
		mustStep(t, f)
	}
	if st := f.StateSnapshot(); st.Counters.Migrations != 0 {
		t.Fatalf("%d migrations with zero price divergence", st.Counters.Migrations)
	}
}

// faultedConfig is the replay scenario the acceptance criteria name: 3
// regions, one board crash (supervised restart) in one region, one
// region-outage window in another, migration enabled.
func faultedConfig(seed uint64) Config {
	crash := fault.Scenario{
		Seed:   1,
		Faults: []fault.Fault{{Type: fault.BoardCrash, Start: 6, Rounds: 1}},
	}
	return Config{
		Seed: seed, Check: true,
		Migration: MigrationConfig{
			CostLatency: 5e-5, CostTransfer: 5e-5,
			SustainEpochs: 2, MaxBatch: 6,
		},
		Regions: []RegionConfig{
			{Name: "us", Fleet: fleet.Config{Boards: 2}, Price: flat(0.30)},
			{
				Name: "eu",
				Fleet: fleet.Config{
					Boards: 2, RestartAfter: 4,
					Faults: map[int]fault.Scenario{0: crash},
				},
				Price: flat(0.05),
			},
			{
				Name: "ap", Fleet: fleet.Config{Boards: 1}, Price: flat(0.12),
				Outage: fault.Scenario{
					Faults: []fault.Fault{{Type: fault.RegionOutage, Start: 4, Rounds: 2}},
				},
			},
		},
	}
}

func runFaulted(t *testing.T, seed uint64, epochs int) []uint64 {
	t.Helper()
	f, err := New(faultedConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for epoch := 1; epoch <= epochs; epoch++ {
		// Deterministic arrival schedule: mixed tiers, some pinned into
		// the expensive region to keep the controller busy.
		f.Submit(fedSpec("w", 1), fedSpec("w", 2), fedSpec("w", 3))
		if _, err := f.SubmitTo(0, fedHeavy("p", 1), fedHeavy("p", 1)); err != nil {
			t.Fatal(err)
		}
		mustStep(t, f)
		if err := check.CheckFederationConservation(f); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	return f.DigestVector()
}

// TestFederationFaultedReplayBitIdentical is the acceptance gate: the
// 3-region faulted run (board crash + region outage) replays with a
// bit-identical federation digest vector, and the vector is seed- and
// fault-sensitive.
func TestFederationFaultedReplayBitIdentical(t *testing.T) {
	a := runFaulted(t, 1234, 12)
	b := runFaulted(t, 1234, 12)
	if len(a) != 4 {
		t.Fatalf("digest vector has %d entries, want 4 (controller + 3 regions)", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("digest %d diverged across identical runs: %016x vs %016x", i, a[i], b[i])
		}
	}
	c := runFaulted(t, 4321, 12)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical digest vectors")
	}
}

// TestFederationOutageEconomics: a region in outage earns nothing,
// draws nothing, counts SLA violations for its resident tiers, and its
// queue holds work for the ledger.
func TestFederationOutageEconomics(t *testing.T) {
	cfg := Config{
		Seed: 5, Check: true,
		Migration: MigrationConfig{Disabled: true},
		Regions: []RegionConfig{
			{Name: "up", Fleet: fleet.Config{Boards: 1}, Price: flat(0.10)},
			{
				Name: "down", Fleet: fleet.Config{Boards: 1}, Price: flat(0.10),
				Outage: fault.Scenario{
					Faults: []fault.Fault{{Type: fault.RegionOutage, Start: 3, Rounds: 100}},
				},
			},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.SubmitTo(1, fedSpec("g", 3), fedSpec("g", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitTo(0, fedSpec("g", 3)); err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		mustStep(t, f)
	}
	pre := f.StateSnapshot().Regions[1]
	if pre.RevenueUSD <= 0 || pre.EnergyKWh <= 0 {
		t.Fatalf("region earned/drew nothing while up: %+v", pre)
	}
	for epoch := 3; epoch <= 6; epoch++ {
		mustStep(t, f)
	}
	post := f.StateSnapshot().Regions[1]
	if !post.Down {
		t.Fatal("region not marked down inside its outage window")
	}
	if post.RevenueUSD != pre.RevenueUSD {
		t.Errorf("revenue accrued during outage: %v → %v", pre.RevenueUSD, post.RevenueUSD)
	}
	if post.EnergyKWh != pre.EnergyKWh {
		t.Errorf("energy accrued during outage: %v → %v", pre.EnergyKWh, post.EnergyKWh)
	}
	if post.Violations <= pre.Violations {
		t.Errorf("no SLA violations counted during outage: %d → %d", pre.Violations, post.Violations)
	}
	upR := f.StateSnapshot().Regions[0]
	if upR.RevenueUSD <= pre.RevenueUSD/4 {
		t.Errorf("up region revenue %v implausibly low vs %v", upR.RevenueUSD, pre.RevenueUSD)
	}
	if err := check.CheckFederationConservation(f); err != nil {
		t.Fatal(err)
	}
}

// TestFederationMetricsStackLabels is the exposition regression test:
// region labels stack outside board labels on fleet series, and the
// federation's own economics series carry region labels.
func TestFederationMetricsStackLabels(t *testing.T) {
	cfg := Config{
		Seed: 2,
		Regions: []RegionConfig{
			{Name: "east", Fleet: fleet.Config{Boards: 2}, Price: flat(0.1)},
			{Name: "west", Fleet: fleet.Config{Boards: 1}, Price: flat(0.2)},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Submit(fedSpec("m", 2))
	mustStep(t, f)

	var b strings.Builder
	if err := f.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pricepower_fleet_submitted_total{region="east"}`,
		`{region="east",board="0"}`,
		`{region="west",board="0"}`,
		`pricepower_fed_revenue_usd_total{region="east"}`,
		`pricepower_fed_epoch_revenue_usd_bucket{region="east",le=`,
		"pricepower_fed_epochs 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// HELP/TYPE dedup must survive the merge of R region fleets.
	if strings.Count(out, "# TYPE pricepower_fleet_submitted_total") != 1 {
		t.Error("fleet series TYPE header duplicated across regions")
	}
}

// TestFederationCountsCompletions: finite tasks finish and retire on the
// region boards (one of which crashes and restarts mid-run), and the
// cross-region ledger closes at every epoch with each region's completed
// count taken from its boards.
func TestFederationCountsCompletions(t *testing.T) {
	finite := func(name string, d sim.Time) task.Spec {
		s := fedSpec(name, 2)
		s.Loop = false
		s.Phases[0].Duration = d
		return s
	}
	cfg := Config{Seed: 77, Check: true}
	for i := 0; i < 2; i++ {
		fc := fleet.Config{Boards: 2}
		if i == 0 {
			fc.RestartAfter = 1
			fc.Faults = map[int]fault.Scenario{1: {Faults: []fault.Fault{{Type: fault.BoardCrash, Start: 6, Rounds: 1}}}}
		}
		cfg.Regions = append(cfg.Regions, RegionConfig{Name: "c" + itoa(i), Fleet: fc, Price: flat(0.05 + 0.1*float64(i))})
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitted := 0
	for epoch := 1; epoch <= 10; epoch++ {
		f.Submit(finite("short", 300*sim.Millisecond), finite("long", 700*sim.Millisecond), fedSpec("loop", 1))
		if _, err := f.SubmitTo(1, finite("pinned", 300*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		submitted += 4
		mustStep(t, f)
		if err := check.CheckFederationConservation(f); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	st := f.StateSnapshot()
	completed, live := 0, 0
	for _, r := range st.Regions {
		completed += r.Completed
		live += r.Live
	}
	if st.Counters.BoardCrashes != 1 {
		t.Fatalf("board crashes = %d, want 1", st.Counters.BoardCrashes)
	}
	// 30 finite tasks, all but the last two epochs' worth long done.
	if completed < 20 || completed > 30 {
		t.Fatalf("completed = %d, want 20..30 of the 30 finite tasks", completed)
	}
	if live+completed > submitted {
		t.Fatalf("live %d + completed %d exceeds the %d submitted", live, completed, submitted)
	}
}

// TestSubmitAtReleasesInStableOrder: external arrivals scheduled in
// reverse time order, three to a due time, are routed epoch by epoch
// exactly as a stable sort by due time orders them, each at the first
// epoch starting at or after its due time.
func TestSubmitAtReleasesInStableOrder(t *testing.T) {
	f, err := New(Config{Seed: 3, Regions: []RegionConfig{
		{Name: "r0", Fleet: fleet.Config{Boards: 1, QueueCap: 1024}, Price: flat(0.1)},
	}})
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
		a := arrival{at: sim.Time((299-i)/3) * 100 * sim.Millisecond, name: "a" + itoa(i)}
		oracle = append(oracle, a)
		f.SubmitAt(a.at, fedSpec(a.name, 1))
	}
	sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].at < oracle[j].at })
	var got []string
	for epoch := 1; len(got) < len(oracle); epoch++ {
		f.mu.Lock()
		f.releaseLocked(epoch)
		f.mu.Unlock()
		for _, s := range f.regions[0].Fleet().EvictQueued(len(oracle)) {
			got = append(got, s.Spec.Name)
		}
		start := sim.Time(epoch-1) * f.epochDur()
		due := sort.Search(len(oracle), func(i int) bool { return oracle[i].at > start })
		if len(got) != due {
			t.Fatalf("epoch %d: released %d arrivals, want the %d due by %v", epoch, len(got), due, start)
		}
	}
	for i := range oracle {
		if got[i] != oracle[i].name {
			t.Fatalf("release %d is %s, stable order says %s", i, got[i], oracle[i].name)
		}
	}
}

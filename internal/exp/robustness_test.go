package exp

import (
	"math"
	"testing"

	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// Determinism: the whole system — platform, scheduler, market, LBT — is a
// pure function of its inputs. Two identical runs must produce identical
// results to the last bit.
func TestRunDeterminism(t *testing.T) {
	set, _ := workload.SetByName("m2")
	a, err := RunSet("PPM", set, 4.0, 20*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSet("PPM", set, 4.0, 20*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

// fuzzOne runs a random workload under one governor and checks the global
// invariants that must hold for ANY workload: no panic, power within the
// platform envelope, work actually delivered, and (with a TDP) the cap
// respected on average.
func fuzzOne(t *testing.T, governor string, seed uint64, wtdp float64) {
	t.Helper()
	rng := sim.NewRand(seed)
	specs := workload.Random(rng, workload.DefaultRandomConfig(2+rng.Intn(5)))
	p := platform.NewTC2()
	g, err := NewGovernor(governor, wtdp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetGovernor(g)
	PlaceOnLittle(p, specs)
	pr := metrics.NewProbe(p, 2*sim.Second)
	pr.Attach()
	p.Run(20 * sim.Second)

	if w := pr.AveragePower(); w <= 0 || w > 8.5 || math.IsNaN(w) {
		t.Errorf("%s seed %d: average power %v outside the platform envelope", governor, seed, w)
	}
	if wtdp > 0 {
		if w := pr.AveragePower(); w > wtdp*1.15 {
			t.Errorf("%s seed %d: average power %.2f breaks the %.1f W budget", governor, seed, w, wtdp)
		}
	}
	var beats float64
	for _, tk := range p.Tasks() {
		beats += tk.Heartbeats()
		if hr := tk.HeartRate(p.Now()); math.IsNaN(hr) || hr < 0 {
			t.Errorf("%s seed %d: task %s heart rate %v", governor, seed, tk.Name, hr)
		}
	}
	if beats <= 0 {
		t.Errorf("%s seed %d: no work delivered at all", governor, seed)
	}
}

// TestFuzzGovernors sweeps random workloads through all three governors
// with and without a TDP budget.
func TestFuzzGovernors(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, gov := range GovernorNames {
		for _, seed := range seeds {
			fuzzOne(t, gov, seed, 0)
			fuzzOne(t, gov, seed, 4.0)
		}
	}
}

// Random workloads also drive the dynamic case: tasks arriving and leaving
// at random times must never wedge the governor.
func TestFuzzChurn(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		specs := workload.Random(rng, workload.DefaultRandomConfig(6))
		p := platform.NewTC2()
		g, _ := NewGovernor("PPM", 4.0)
		p.SetGovernor(g)
		var live []*task.Task
		// First two tasks at boot, the rest staggered; removals interleave.
		live = append(live, p.AddTask(specs[0], 2), p.AddTask(specs[1], 3))
		for i := 2; i < len(specs); i++ {
			spec := specs[i]
			at := sim.FromSeconds(rng.Range(1, 15))
			p.Engine.At(at, func(now sim.Time) {
				live = append(live, p.AddTask(spec, 2))
			})
		}
		p.Engine.At(sim.FromSeconds(8), func(now sim.Time) {
			p.RemoveTasks(live[0])
		})
		p.Run(25 * sim.Second)
		if len(p.Tasks()) == 0 {
			t.Errorf("seed %d: all tasks vanished", seed)
		}
		if w := p.Power(); w <= 0 || math.IsNaN(w) {
			t.Errorf("seed %d: power %v after churn", seed, w)
		}
	}
}

func TestRandomGeneratorBounds(t *testing.T) {
	rng := sim.NewRand(42)
	cfg := workload.DefaultRandomConfig(50)
	specs := workload.Random(rng, cfg)
	if len(specs) != 50 {
		t.Fatalf("generated %d specs", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid random spec: %v", err)
		}
		if s.Priority < 1 || s.Priority > cfg.PriorityMax {
			t.Errorf("priority %d out of bounds", s.Priority)
		}
		for _, ph := range s.Phases {
			d := ph.HBCostLittle * s.TargetHR()
			if d < cfg.DemandMin*0.7-1 || d > cfg.DemandMax*1.3+1 {
				t.Errorf("phase demand %v outside bounds", d)
			}
			if ph.SpeedupBig < cfg.SpeedupMin || ph.SpeedupBig > cfg.SpeedupMax {
				t.Errorf("speedup %v outside bounds", ph.SpeedupBig)
			}
		}
	}
	if workload.Random(rng, workload.RandomConfig{}) != nil {
		t.Error("zero-task config produced specs")
	}
}

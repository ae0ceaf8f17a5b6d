package fault

import (
	"reflect"
	"testing"

	"pricepower/internal/platform"
	"pricepower/internal/sim"
)

func TestBackoffDeterministicGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * sim.Millisecond, Max: 80 * sim.Millisecond, Factor: 2, Jitter: 0.5, Seed: 7}
	for attempt := 0; attempt < 10; attempt++ {
		d1, d2 := b.Next(attempt), b.Next(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: Next not deterministic: %v != %v", attempt, d1, d2)
		}
		grown := b.grown(attempt)
		if lo := sim.Time(grown * (1 - b.Jitter)); d1 < lo || d1 > sim.Time(grown) {
			t.Errorf("attempt %d: delay %v outside jitter band [%v, %v]", attempt, d1, lo, sim.Time(grown))
		}
		if d1 > b.Max {
			t.Errorf("attempt %d: delay %v above cap %v", attempt, d1, b.Max)
		}
	}
	// The un-jittered schedule grows geometrically until the cap.
	want := []float64{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.grown(i); got != w*float64(sim.Millisecond) {
			t.Errorf("grown(%d) = %v, want %v ms", i, got, w)
		}
	}
}

func TestBackoffDefaultsAndFloor(t *testing.T) {
	b := Backoff{Base: sim.Millisecond} // Factor and Max defaulted
	if got, want := b.grown(1), 2*float64(sim.Millisecond); got != want {
		t.Errorf("default factor: grown(1) = %v, want %v", got, want)
	}
	if got, want := b.grown(100), 32*float64(sim.Millisecond); got != want {
		t.Errorf("default cap: grown(100) = %v, want 32·Base %v", got, want)
	}
	// Full jitter can shrink the delay to zero; the floor keeps it positive
	// so a retry never lands on the same engine event.
	tiny := Backoff{Base: 1, Jitter: 1}
	for attempt := 0; attempt < 8; attempt++ {
		if d := tiny.Next(attempt); d < 1 {
			t.Errorf("attempt %d: delay %v below 1", attempt, d)
		}
	}
}

func TestBackoffNextFromMatchesSeededRNG(t *testing.T) {
	b := Backoff{Base: 10 * sim.Millisecond, Jitter: 0.5}
	r1, r2 := sim.NewRand(99), sim.NewRand(99)
	for attempt := 0; attempt < 6; attempt++ {
		if d1, d2 := b.NextFrom(r1, attempt), b.NextFrom(r2, attempt); d1 != d2 {
			t.Fatalf("attempt %d: NextFrom diverged across equal-seed RNGs: %v != %v", attempt, d1, d2)
		}
	}
}

func TestHashAndUnit(t *testing.T) {
	if hash3(1, 2, 3, 4) != hash3(1, 2, 3, 4) {
		t.Error("hash3 not deterministic")
	}
	if hash3(1, 2, 3, 4) == hash3(1, 2, 3, 5) {
		t.Error("hash3 insensitive to its last argument")
	}
	if hash3(1, 2, 3, 4) == hash3(2, 2, 3, 4) {
		t.Error("hash3 insensitive to the seed")
	}
	for i := uint64(0); i < 1000; i++ {
		if u := unit(mix64(i)); u < 0 || u >= 1 {
			t.Fatalf("unit(mix64(%d)) = %v outside [0,1)", i, u)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	ok := Scenario{Faults: []Fault{{Type: PowerDropout, Cluster: -1, Start: 5, Rounds: 3}}}
	if err := ok.Validate(2, 5); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bad := []Scenario{
		{Faults: []Fault{{Type: "nonsense", Cluster: 0, Start: 0, Rounds: 1}}},
		{Faults: []Fault{{Type: PowerNoise, Cluster: 0, Start: -1, Rounds: 1}}},
		{Faults: []Fault{{Type: PowerNoise, Cluster: 0, Start: 0, Rounds: 0}}},
		{Faults: []Fault{{Type: PowerNoise, Cluster: 2, Start: 0, Rounds: 1}}},
		{Faults: []Fault{{Type: CoreUnplug, Cluster: -1, Core: 5, Start: 0, Rounds: 1}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(2, 5); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestWindowEdges(t *testing.T) {
	sc := Scenario{Faults: []Fault{{Type: PowerDropout, Cluster: -1, Start: 10, Rounds: 5}}}
	in := NewInjector(sc)
	period := sc.Period()
	cases := []struct {
		now  sim.Time
		open bool
	}{
		{9 * period, false},
		{10*period - 1, false},
		{10 * period, true},
		{14 * period, true},
		{15*period - 1, true},
		{15 * period, false},
	}
	for _, c := range cases {
		if got := in.windowOpen(0, c.now); got != c.open {
			t.Errorf("windowOpen at %v = %v, want %v", c.now, got, c.open)
		}
	}
}

// Perturbation hooks are pure functions of (seed, fault, target, time):
// same inputs → same outputs, and each fault class transforms the reading
// the documented way.
func TestInjectorPerturbations(t *testing.T) {
	sc := Scenario{
		Seed: 11,
		Faults: []Fault{
			{Type: PowerNoise, Cluster: -1, Start: 0, Rounds: 100, Magnitude: 2},
			{Type: PowerDropout, Cluster: 1, Start: 0, Rounds: 100},
			{Type: PowerStuck, Cluster: 0, Start: 0, Rounds: 100},
			{Type: DVFSFail, Cluster: 0, Start: 0, Rounds: 100, Magnitude: 1},
			{Type: DVFSDelay, Cluster: 1, Start: 0, Rounds: 100, Magnitude: 100},
			{Type: MigrationBlowup, Cluster: -1, Start: 0, Rounds: 100, Magnitude: 10},
		},
	}
	in := NewInjector(sc)
	for i := range in.active {
		in.active[i] = true
	}
	in.stuck[2] = 3.5 // the power-stuck capture
	now := 100 * sim.Millisecond

	// Chip sensor (cluster -1): noise applies, dropout on cluster 1 also
	// matches the wildcard chip read and zeroes it.
	if got := in.PowerReading(-1, 4, now); got != 0 {
		t.Errorf("chip reading with an active dropout = %v, want 0", got)
	}
	// Cluster 0: the stuck fault sits after the noise fault in the
	// schedule, so it wins — faults apply in schedule order.
	if got := in.PowerReading(0, 4, now); got != 3.5 {
		t.Errorf("cluster 0 reading %v, want the stuck capture 3.5", got)
	}

	refused, delay := in.DVFSOutcome(0, now)
	if !refused {
		t.Error("dvfs-fail with magnitude 1 did not refuse")
	}
	refused, delay = in.DVFSOutcome(1, now)
	if refused {
		t.Error("cluster 1 refused without a dvfs-fail targeting it")
	}
	if lo, hi := sim.FromMillis(75), sim.FromMillis(125); delay < lo || delay > hi {
		t.Errorf("dvfs-delay %v outside ±25%% of 100 ms", delay)
	}

	if got := in.MigrationCost(sim.Millisecond, now); got != 10*sim.Millisecond {
		t.Errorf("migration blowup ×10 gave %v", got)
	}
}

// Noise is a stateless hash of (seed, target, time): bounded by the
// magnitude, reproducible at the same instant, varying across instants.
func TestPowerNoiseDeterministicBoundedVarying(t *testing.T) {
	sc := Scenario{Seed: 5, Faults: []Fault{
		{Type: PowerNoise, Cluster: 0, Start: 0, Rounds: 100, Magnitude: 2},
	}}
	in := NewInjector(sc)
	in.active[0] = true
	now := 50 * sim.Millisecond
	got := in.PowerReading(0, 10, now)
	if got < 8 || got > 12 {
		t.Errorf("noisy reading %v outside 10 ± 2", got)
	}
	if again := in.PowerReading(0, 10, now); again != got {
		t.Errorf("same instant diverged: %v != %v", again, got)
	}
	varies := false
	for i := 1; i <= 8 && !varies; i++ {
		varies = in.PowerReading(0, 10, now+sim.Time(i)*sim.Millisecond) != got
	}
	if !varies {
		t.Error("noise constant across instants")
	}
	if in.PowerReading(1, 10, now) != 10 {
		t.Error("noise leaked onto untargeted cluster 1")
	}
}

// BeginTick toggles hot-unplug on window edges and captures stuck-sensor
// values at entry.
func TestBeginTickUnplugAndStuckCapture(t *testing.T) {
	p := platform.NewTC2()
	sc := Scenario{Faults: []Fault{
		{Type: CoreUnplug, Cluster: -1, Core: 3, Start: 2, Rounds: 3},
		{Type: PowerStuck, Cluster: 0, Start: 2, Rounds: 3},
	}}
	in := NewInjector(sc)
	period := sc.Period()

	in.BeginTick(p, 0)
	if p.Chip.Cores[3].Offline {
		t.Fatal("core offline before the window opened")
	}
	in.BeginTick(p, 2*period)
	if !p.Chip.Cores[3].Offline {
		t.Fatal("core not unplugged at window entry")
	}
	if in.Activations() != 2 || in.ActiveCount() != 2 {
		t.Errorf("activations=%d active=%d, want 2/2", in.Activations(), in.ActiveCount())
	}
	// The stuck reading is frozen at the entry capture from then on.
	if got := in.PowerReading(0, 99, 3*period); got == 99 {
		t.Error("power-stuck window did not override the live reading")
	}
	in.BeginTick(p, 5*period)
	if p.Chip.Cores[3].Offline {
		t.Fatal("core not replugged at window exit")
	}
	if in.ActiveCount() != 0 {
		t.Errorf("windows still active after exit: %d", in.ActiveCount())
	}
}

func TestRandomScenarioDeterministicAndBounded(t *testing.T) {
	const clusters, cores, horizon = 2, 5, 400
	a := RandomScenario(123, clusters, cores, horizon)
	b := RandomScenario(123, clusters, cores, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RandomScenario not deterministic in its seed")
	}
	if c := RandomScenario(124, clusters, cores, horizon); reflect.DeepEqual(a, c) {
		t.Error("adjacent seeds generated identical schedules")
	}
	for seed := uint64(0); seed < 50; seed++ {
		sc := RandomScenario(seed, clusters, cores, horizon)
		if err := sc.Validate(clusters, cores); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if n := len(sc.Faults); n < 3 || n > 6 {
			t.Fatalf("seed %d: %d faults outside [3,6]", seed, n)
		}
		for i, f := range sc.Faults {
			if f.Start < 10 || f.Start+f.Rounds > horizon-10 {
				t.Errorf("seed %d fault %d: window [%d,%d) leaves [10,%d)",
					seed, i, f.Start, f.Start+f.Rounds, horizon-10)
			}
		}
	}
}

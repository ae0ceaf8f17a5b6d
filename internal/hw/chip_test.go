package hw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTC2SpecValid(t *testing.T) {
	spec := TC2Spec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("TC2 spec invalid: %v", err)
	}
	if len(spec.Clusters) != 2 {
		t.Fatalf("TC2 has %d clusters, want 2", len(spec.Clusters))
	}
	big, little := spec.Clusters[0], spec.Clusters[1]
	if big.Type != Big || big.NumCores != 2 {
		t.Errorf("big cluster = %v %d cores, want Big 2", big.Type, big.NumCores)
	}
	if little.Type != Little || little.NumCores != 3 {
		t.Errorf("LITTLE cluster = %v %d cores, want Little 3", little.Type, little.NumCores)
	}
	if big.MaxFreqMHz() != 1200 || little.MaxFreqMHz() != 1000 {
		t.Errorf("max freqs = %d/%d, want 1200/1000", big.MaxFreqMHz(), little.MaxFreqMHz())
	}
	if little.MinFreqMHz() != 350 {
		t.Errorf("LITTLE min freq = %d, want 350", little.MinFreqMHz())
	}
}

func TestNewChipTopology(t *testing.T) {
	chip := NewTC2()
	if len(chip.Cores) != 5 {
		t.Fatalf("TC2 chip has %d cores, want 5", len(chip.Cores))
	}
	if got := chip.ClusterOf(0); got != chip.Clusters[0] {
		t.Errorf("core 0 in cluster %d, want 0", got.ID)
	}
	if got := chip.ClusterOf(4); got != chip.Clusters[1] {
		t.Errorf("core 4 in cluster %d, want 1", got.ID)
	}
	for i, c := range chip.Cores {
		if c.ID != i {
			t.Errorf("core at index %d has ID %d", i, c.ID)
		}
	}
	if !strings.Contains(chip.String(), "big") || !strings.Contains(chip.String(), "LITTLE") {
		t.Errorf("String() = %q, want both core type names", chip.String())
	}
}

func TestNewChipRejectsBadSpec(t *testing.T) {
	bad := []ChipSpec{
		{Name: "empty", TDP: 1},
		{Name: "noTDP", Clusters: TC2Spec().Clusters},
		{Name: "noLevels", TDP: 1, Clusters: []ClusterSpec{{Name: "x", NumCores: 1}}},
		{Name: "descending", TDP: 1, Clusters: []ClusterSpec{{
			Name: "x", NumCores: 1,
			Levels: []VFLevel{{1000, 1.0}, {500, 0.9}},
		}}},
		{Name: "zeroCores", TDP: 1, Clusters: []ClusterSpec{{
			Name: "x", NumCores: 0, Levels: []VFLevel{{500, 0.9}},
		}}},
	}
	for _, spec := range bad {
		if _, err := NewChip(spec); err == nil {
			t.Errorf("NewChip(%s) accepted invalid spec", spec.Name)
		}
	}
}

func TestClusterDVFSSteps(t *testing.T) {
	chip := NewTC2()
	cl := chip.Clusters[1] // LITTLE
	if cl.Level() != 0 {
		t.Fatalf("fresh cluster at level %d, want 0", cl.Level())
	}
	if cl.StepDown() {
		t.Error("StepDown succeeded at bottom of ladder")
	}
	for i := 1; i < cl.NumLevels(); i++ {
		if !cl.StepUp() {
			t.Fatalf("StepUp failed at level %d", i-1)
		}
	}
	if cl.StepUp() {
		t.Error("StepUp succeeded at top of ladder")
	}
	if cl.SupplyPU() != 1000 {
		t.Errorf("top supply = %v PU, want 1000", cl.SupplyPU())
	}
	if cl.Transitions() != cl.NumLevels()-1 {
		t.Errorf("transitions = %d, want %d", cl.Transitions(), cl.NumLevels()-1)
	}
}

func TestClusterSetLevelClamps(t *testing.T) {
	cl := NewTC2().Clusters[0]
	if !cl.SetLevel(100) {
		t.Error("SetLevel(100) reported no change from level 0")
	}
	if cl.Level() != cl.NumLevels()-1 {
		t.Errorf("SetLevel(100) landed on %d, want top", cl.Level())
	}
	if !cl.SetLevel(-5) {
		t.Error("SetLevel(-5) reported no change")
	}
	if cl.Level() != 0 {
		t.Errorf("SetLevel(-5) landed on %d, want 0", cl.Level())
	}
	if cl.SetLevel(0) {
		t.Error("SetLevel(current) reported a change")
	}
}

func TestLevelForSupplyRoundsUp(t *testing.T) {
	cl := NewTC2().Clusters[1] // LITTLE: 350,400,500,...
	cases := []struct {
		want   float64
		expect int
	}{
		{0, 0}, {350, 0}, {351, 1}, {450, 2}, {1000, 7}, {5000, 7},
	}
	for _, c := range cases {
		if got := cl.LevelForSupply(c.want); got != c.expect {
			t.Errorf("LevelForSupply(%v) = %d, want %d", c.want, got, c.expect)
		}
	}
}

func TestPowerDownCutsSupplyAndPower(t *testing.T) {
	chip := NewTC2()
	cl := chip.Clusters[0]
	cl.SetLevel(cl.NumLevels() - 1)
	for _, c := range cl.Cores {
		c.Utilization = 1
	}
	onPower := ClusterPower(cl)
	cl.PowerOff()
	if cl.SupplyPU() != 0 {
		t.Errorf("powered-off cluster supplies %v PU", cl.SupplyPU())
	}
	if got := ClusterPower(cl); got != cl.Spec.OffPower {
		t.Errorf("off power = %v, want %v", got, cl.Spec.OffPower)
	}
	if onPower < 10*cl.Spec.OffPower {
		t.Errorf("on power %v suspiciously close to off power", onPower)
	}
	cl.PowerOn()
	if cl.Level() != 0 {
		t.Errorf("PowerOn resumed at level %d, want 0", cl.Level())
	}
	if cl.Cores[0].SupplyPU() != float64(cl.Spec.MinFreqMHz()) {
		t.Errorf("core supply after PowerOn = %v", cl.Cores[0].SupplyPU())
	}
}

// TestPowerCalibration pins the envelope the paper reports: LITTLE cluster
// ≈2 W max, big cluster ≈6 W max, chip max ≈8 W (== TDP).
func TestPowerCalibration(t *testing.T) {
	chip := NewTC2()
	big, little := chip.Clusters[0], chip.Clusters[1]
	if got := MaxClusterPower(little); got < 1.8 || got > 2.2 {
		t.Errorf("LITTLE max power = %.2f W, want ≈2 W", got)
	}
	if got := MaxClusterPower(big); got < 5.7 || got > 6.3 {
		t.Errorf("big max power = %.2f W, want ≈6 W", got)
	}
	total := MaxClusterPower(big) + MaxClusterPower(little)
	if total < 7.6 || total > 8.4 {
		t.Errorf("chip max power = %.2f W, want ≈8 W", total)
	}
}

func TestPowerMonotonicInLevelAndUtil(t *testing.T) {
	chip := NewTC2()
	cl := chip.Clusters[0]
	prev := -1.0
	for l := 0; l < cl.NumLevels(); l++ {
		cl.SetLevel(l)
		for _, c := range cl.Cores {
			c.Utilization = 1
		}
		p := ClusterPower(cl)
		if p <= prev {
			t.Errorf("power not increasing with level: %v at level %d after %v", p, l, prev)
		}
		prev = p
	}
	// Utilization monotonicity at fixed level.
	for _, c := range cl.Cores {
		c.Utilization = 0.2
	}
	low := ClusterPower(cl)
	for _, c := range cl.Cores {
		c.Utilization = 0.9
	}
	if high := ClusterPower(cl); high <= low {
		t.Errorf("power not increasing with utilization: %v vs %v", high, low)
	}
}

func TestChipPowerIsSumOfClusters(t *testing.T) {
	chip := NewTC2()
	for _, c := range chip.Cores {
		c.Utilization = 0.5
	}
	clusters := make([]float64, len(chip.Clusters))
	got := ChipPower(chip, clusters)
	var sum float64
	for i, cl := range chip.Clusters {
		if w := ClusterPower(cl); clusters[i] != w {
			t.Errorf("cluster %d sampled at %v, ClusterPower %v", i, clusters[i], w)
		}
		sum += clusters[i]
	}
	if got != sum {
		t.Errorf("ChipPower = %v, sum of clusters = %v", got, sum)
	}
}

func TestEnergyMeter(t *testing.T) {
	var m EnergyMeter
	if m.AveragePower() != 0 {
		t.Error("fresh meter has non-zero average power")
	}
	m.Accumulate(2.0, 500000) // 2 W for 0.5 s
	m.Accumulate(4.0, 500000) // 4 W for 0.5 s
	if got := m.Joules(); got != 3.0 {
		t.Errorf("Joules = %v, want 3", got)
	}
	if got := m.AveragePower(); got != 3.0 {
		t.Errorf("AveragePower = %v, want 3", got)
	}
	if got := m.PeakPower(); got != 4.0 {
		t.Errorf("PeakPower = %v, want 4", got)
	}
	m.Reset()
	if m.Joules() != 0 || m.Elapsed() != 0 {
		t.Error("Reset did not clear the meter")
	}
}

func TestScaledSpecShapes(t *testing.T) {
	for _, n := range []int{1, 2, 16, 256} {
		spec := ScaledSpec(n, 4)
		if err := spec.Validate(); err != nil {
			t.Fatalf("ScaledSpec(%d,4) invalid: %v", n, err)
		}
		if len(spec.Clusters) != n {
			t.Fatalf("ScaledSpec(%d,4) has %d clusters", n, len(spec.Clusters))
		}
		top := spec.Clusters[len(spec.Clusters)-1].MaxFreqMHz()
		if n > 1 && top != 3000 {
			t.Errorf("ScaledSpec(%d) top cluster max freq = %d, want 3000", n, top)
		}
	}
}

// Property: power is always positive and below the analytic ceiling for any
// utilization assignment and level.
func TestPowerBoundsProperty(t *testing.T) {
	chip := NewTC2()
	f := func(level uint8, u1, u2, u3, u4, u5 float64) bool {
		clamp := func(u float64) float64 {
			u = math.Abs(u)
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return 0.5
			}
			if u > 1 {
				u = math.Mod(u, 1)
			}
			return u
		}
		us := []float64{clamp(u1), clamp(u2), clamp(u3), clamp(u4), clamp(u5)}
		for i, c := range chip.Cores {
			c.Utilization = us[i]
		}
		for _, cl := range chip.Clusters {
			cl.SetLevel(int(level) % cl.NumLevels())
		}
		p := ChipPower(chip, make([]float64, len(chip.Clusters)))
		max := MaxClusterPower(chip.Clusters[0]) + MaxClusterPower(chip.Clusters[1])
		return p > 0 && p <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

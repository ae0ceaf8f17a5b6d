package metrics

import (
	"math"
	"testing"

	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Len() != 0 {
		t.Error("empty series not zeroed")
	}
	if !math.IsInf(s.Max(), -1) || !math.IsInf(s.Min(), 1) {
		t.Error("empty series extremes wrong")
	}
	s.Add(1, 2)
	s.Add(2, 4)
	s.Add(3, 6)
	if s.Len() != 3 || s.Mean() != 4 || s.Min() != 2 || s.Max() != 6 {
		t.Errorf("series stats = len %d mean %v min %v max %v", s.Len(), s.Mean(), s.Min(), s.Max())
	}
}

func TestSeriesQuantileAndMax(t *testing.T) {
	series := func(vals ...float64) *Series {
		s := &Series{}
		for i, v := range vals {
			s.Add(sim.Time(i), v)
		}
		return s
	}
	cases := []struct {
		name    string
		s       *Series
		q       float64
		want    float64
		wantMax float64
	}{
		{"median-odd", series(5, 1, 3), 0.5, 3, 5},
		{"median-even-lower", series(4, 1, 3, 2), 0.5, 2, 4},
		{"p90-of-ten", series(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 0.9, 9, 10},
		{"p99-small-n", series(1, 2, 3), 0.99, 3, 3},
		{"zero-is-min", series(7, 2, 9), 0, 2, 9},
		{"one-is-max", series(7, 2, 9), 1, 9, 9},
		{"clamped-low", series(4, 8), -0.5, 4, 8},
		{"clamped-high", series(4, 8), 1.5, 8, 8},
		{"single", series(42), 0.5, 42, 42},
		{"duplicates", series(2, 2, 2, 100), 0.75, 2, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			if got := tc.s.Max(); got != tc.wantMax {
				t.Errorf("Max() = %v, want %v", got, tc.wantMax)
			}
		})
	}
	var empty Series
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty series quantile is not NaN")
	}
	// Quantile must not mutate the series order.
	s := series(3, 1, 2)
	s.Quantile(0.5)
	if s.Values[0] != 3 || s.Values[1] != 1 || s.Values[2] != 2 {
		t.Error("Quantile sorted the series in place")
	}
}

// probeRig runs a single task at a fixed supply so every metric is
// predictable.
func probeRig(demand float64, warmup, dur sim.Time) (*platform.Platform, *Probe, *task.Task) {
	p := platform.NewTC2()
	little := p.Chip.Clusters[1]
	little.SetLevel(little.NumLevels() - 1) // 1000 PU fixed
	tk := p.AddTask(task.Spec{
		Name: "t", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
		Phases: []task.Phase{{HBCostLittle: demand / 27, SpeedupBig: 2, SelfCapHR: 27}},
	}, 2)
	pr := NewProbe(p, warmup)
	pr.Attach()
	p.Run(warmup + dur)
	return p, pr, tk
}

func TestProbeInRangeTask(t *testing.T) {
	// Demand 540 PU on a 1000 PU core, self-capped at target: always in range.
	_, pr, tk := probeRig(540, sim.Second, 5*sim.Second)
	if got := pr.AnyBelowFrac(); got > 0.02 {
		t.Errorf("AnyBelowFrac = %v for a satisfied task", got)
	}
	if got := pr.BelowFrac(tk); got > 0.02 {
		t.Errorf("BelowFrac = %v", got)
	}
	if got := pr.OutsideFrac(tk); got > 0.02 {
		t.Errorf("OutsideFrac = %v", got)
	}
	if pr.Samples() != int(5*sim.Second/sim.Millisecond) {
		t.Errorf("Samples = %d", pr.Samples())
	}
}

func TestProbeStarvedTask(t *testing.T) {
	// Demand 3000 PU on a 1000 PU core: always below range after warm-up.
	_, pr, tk := probeRig(3000, sim.Second, 5*sim.Second)
	if got := pr.AnyBelowFrac(); got < 0.95 {
		t.Errorf("AnyBelowFrac = %v for a starved task", got)
	}
	if got := pr.BelowFrac(tk); got < 0.95 {
		t.Errorf("BelowFrac = %v", got)
	}
}

func TestProbePowerAndEnergy(t *testing.T) {
	p, pr, _ := probeRig(540, sim.Second, 5*sim.Second)
	if pr.AveragePower() <= 0 || pr.PeakPower() < pr.AveragePower()-1e-9 {
		t.Errorf("power stats: avg %v peak %v", pr.AveragePower(), pr.PeakPower())
	}
	// Energy over the measured window ≈ avg power × 5 s.
	want := pr.AveragePower() * 5
	if math.Abs(pr.Energy()-want) > 0.2*want {
		t.Errorf("Energy = %v, want ≈%v", pr.Energy(), want)
	}
	// The platform meter covers warm-up too, so it reads more.
	if p.Meter().Joules() <= pr.Energy() {
		t.Error("probe energy not excluding warm-up")
	}
}

func TestProbeWarmupExcluded(t *testing.T) {
	// During warm-up nothing is counted.
	p := platform.NewTC2()
	pr := NewProbe(p, 2*sim.Second)
	pr.Attach()
	p.Run(sim.Second)
	if pr.Samples() != 0 {
		t.Errorf("probe sampled %d times during warm-up", pr.Samples())
	}
	if pr.AveragePower() != 0 || pr.AnyBelowFrac() != 0 {
		t.Error("probe accumulated metrics during warm-up")
	}
}

func TestProbeSeriesCapture(t *testing.T) {
	p := platform.NewTC2()
	tk := p.AddTask(task.Spec{
		Name: "t", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
		Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 2}},
	}, 2)
	pr := NewProbe(p, sim.Second)
	pr.EnableSeries(sim.Second, 100*sim.Millisecond)
	pr.Attach()
	p.Run(3 * sim.Second)
	if pr.PowerSeries == nil || pr.PowerSeries.Len() == 0 {
		t.Fatal("no power series captured")
	}
	hr := pr.HRSeries(tk)
	if hr == nil || hr.Len() == 0 {
		t.Fatal("no heart-rate series captured")
	}
	// ~20 samples over the 2 measured seconds at 100 ms period.
	if hr.Len() < 15 || hr.Len() > 25 {
		t.Errorf("series length = %d, want ≈20", hr.Len())
	}
	// Times strictly increasing.
	for i := 1; i < hr.Len(); i++ {
		if hr.Times[i] <= hr.Times[i-1] {
			t.Fatal("series times not increasing")
		}
	}
}

func TestProbeUnknownTaskZero(t *testing.T) {
	p := platform.NewTC2()
	pr := NewProbe(p, 0)
	pr.Attach()
	other := task.New(99, task.Spec{
		Name: "x", Priority: 1, MinHR: 1, MaxHR: 2,
		Phases: []task.Phase{{HBCostLittle: 1, SpeedupBig: 1}},
	})
	if pr.BelowFrac(other) != 0 || pr.OutsideFrac(other) != 0 {
		t.Error("unknown task has non-zero fractions")
	}
}

// HeartbeatsDelivered sums in a fixed task order: probes attached to one
// multi-task run report bitwise-equal totals. (A sum in map order differs
// in the last bits from probe to probe.)
func TestProbeHeartbeatsDeterministic(t *testing.T) {
	p := platform.NewTC2()
	for i := 0; i < 8; i++ {
		p.AddTask(task.Spec{
			Name: "t", Priority: 1 + i%3, MinHR: 24, MaxHR: 30, Loop: true,
			Phases: []task.Phase{{HBCostLittle: 7.3 + 3.1*float64(i), SpeedupBig: 1.7}},
		}, i%5)
	}
	probes := make([]*Probe, 16)
	for i := range probes {
		probes[i] = NewProbe(p, 100*sim.Millisecond)
		probes[i].Attach()
	}
	p.Run(2 * sim.Second)
	want := probes[0].HeartbeatsDelivered()
	if want <= 0 {
		t.Fatalf("no heartbeats delivered: %v", want)
	}
	for i, pr := range probes[1:] {
		if got := pr.HeartbeatsDelivered(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("probe %d: %v (%016x), probe 0: %v (%016x)",
				i+1, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

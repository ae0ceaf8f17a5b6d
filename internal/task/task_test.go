package task

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/hw"
	"pricepower/internal/sim"
)

func basicSpec() Spec {
	return Spec{
		Name:     "t",
		Priority: 1,
		MinHR:    24,
		MaxHR:    30,
		Phases: []Phase{
			{Duration: sim.Second, HBCostLittle: 20, SpeedupBig: 2},
			{Duration: sim.Second, HBCostLittle: 40, SpeedupBig: 2},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	good := basicSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Priority = 0 },
		func(s *Spec) { s.MinHR = 0 },
		func(s *Spec) { s.MaxHR = s.MinHR - 1 },
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Phases[0].HBCostLittle = 0 },
		func(s *Spec) { s.Phases[1].SpeedupBig = 0.5 },
	}
	for i, mutate := range bad {
		s := basicSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTargetHRIsMidpoint(t *testing.T) {
	s := basicSpec()
	if got := s.TargetHR(); got != 27 {
		t.Errorf("TargetHR = %v, want 27", got)
	}
}

func TestHBCostPerCoreType(t *testing.T) {
	p := Phase{HBCostLittle: 20, SpeedupBig: 2}
	if p.HBCost(hw.Little) != 20 {
		t.Errorf("LITTLE cost = %v, want 20", p.HBCost(hw.Little))
	}
	if p.HBCost(hw.Big) != 10 {
		t.Errorf("big cost = %v, want 10", p.HBCost(hw.Big))
	}
}

func TestDemandDiffersAcrossCoreTypes(t *testing.T) {
	tk := New(1, basicSpec())
	dl := tk.DemandPU(hw.Little)
	db := tk.DemandPU(hw.Big)
	if dl != 27*20 {
		t.Errorf("LITTLE demand = %v, want 540", dl)
	}
	if db != 27*10 {
		t.Errorf("big demand = %v, want 270", db)
	}
	if db >= dl {
		t.Error("demand on big core not lower than on LITTLE core")
	}
}

func TestAdvanceEmitsHeartbeats(t *testing.T) {
	tk := New(1, basicSpec())
	// 540 PU·s of work at 20 PU·s/hb = 27 heartbeats.
	tk.Advance(540, hw.Little, sim.Second, sim.Second)
	if math.Abs(tk.Heartbeats()-27) > 1e-9 {
		t.Errorf("heartbeats = %v, want 27", tk.Heartbeats())
	}
	// Same work on a big core yields twice the beats.
	tk2 := New(2, basicSpec())
	tk2.Advance(540, hw.Big, sim.Second, sim.Second)
	if math.Abs(tk2.Heartbeats()-54) > 1e-9 {
		t.Errorf("big-core heartbeats = %v, want 54", tk2.Heartbeats())
	}
}

func TestPhaseProgressionAndLooping(t *testing.T) {
	s := basicSpec()
	s.Loop = true
	tk := New(1, s)
	if tk.PhaseIndex() != 0 {
		t.Fatal("fresh task not in phase 0")
	}
	tk.Advance(0, hw.Little, sim.Second, sim.Second)
	if tk.PhaseIndex() != 1 {
		t.Errorf("after 1s in phase 0 (duration 1s), phase = %d", tk.PhaseIndex())
	}
	tk.Advance(0, hw.Little, sim.Second, 2*sim.Second)
	if tk.PhaseIndex() != 0 || tk.Finished() {
		t.Errorf("looping task phase = %d finished = %v, want 0 false",
			tk.PhaseIndex(), tk.Finished())
	}
}

func TestNonLoopingTaskFinishes(t *testing.T) {
	tk := New(1, basicSpec())
	for i := sim.Time(0); i < 3*sim.Second; i += sim.Millisecond {
		tk.Advance(1, hw.Little, sim.Millisecond, i)
	}
	if !tk.Finished() {
		t.Fatal("task did not finish after all phases")
	}
	if tk.WantPU(hw.Little) != 0 {
		t.Errorf("finished task wants %v PU", tk.WantPU(hw.Little))
	}
	if tk.DemandPU(hw.Little) != 0 {
		t.Errorf("finished task demands %v PU", tk.DemandPU(hw.Little))
	}
	hb := tk.Heartbeats()
	tk.Advance(100, hw.Little, sim.Millisecond, 3*sim.Second)
	if tk.Heartbeats() != hb {
		t.Error("finished task still emitting heartbeats")
	}
}

func TestPhaseSkipsMultipleBoundaries(t *testing.T) {
	s := basicSpec()
	s.Phases[0].Duration = sim.Millisecond
	s.Phases[1].Duration = sim.Millisecond
	s.Loop = true
	tk := New(1, s)
	// One big 5ms step crosses several phase boundaries.
	tk.Advance(0, hw.Little, 5*sim.Millisecond, 5*sim.Millisecond)
	if tk.PhaseIndex() != 1 {
		t.Errorf("phase = %d after 5ms of 1ms phases, want 1", tk.PhaseIndex())
	}
}

func TestWantPUSelfCap(t *testing.T) {
	s := basicSpec()
	tk := New(1, s)
	if tk.WantPU(hw.Little) != -1 {
		t.Errorf("CPU-bound phase want = %v, want -1", tk.WantPU(hw.Little))
	}
	s.Phases[0].SelfCapHR = 30
	tk2 := New(2, s)
	if got := tk2.WantPU(hw.Little); got != 600 {
		t.Errorf("self-capped want = %v PU, want 600", got)
	}
	if got := tk2.WantPU(hw.Big); got != 300 {
		t.Errorf("self-capped want on big = %v PU, want 300", got)
	}
}

func TestHeartRateWindow(t *testing.T) {
	tk := New(1, basicSpec())
	// Deliver a steady 540 PU: heart rate should settle at 27 hb/s.
	for now := sim.Millisecond; now <= sim.Second; now += sim.Millisecond {
		tk.Advance(540*sim.Millisecond.Seconds(), hw.Little, sim.Millisecond, now)
	}
	hr := tk.HeartRate(sim.Second)
	if math.Abs(hr-27) > 0.5 {
		t.Errorf("steady heart rate = %v, want ≈27", hr)
	}
	if !tk.InRange(sim.Second) {
		t.Error("task at target not reported in range")
	}
	if tk.BelowRange(sim.Second) {
		t.Error("task at target reported below range")
	}
}

func TestHeartRateTracksSupplyDrop(t *testing.T) {
	s := basicSpec()
	s.Phases = []Phase{{HBCostLittle: 20, SpeedupBig: 2}} // one infinite phase
	tk := New(1, s)
	now := sim.Time(0)
	step := func(pu float64, d sim.Time) {
		for end := now + d; now < end; now += sim.Millisecond {
			tk.Advance(pu*sim.Millisecond.Seconds(), hw.Little, sim.Millisecond, now+sim.Millisecond)
		}
	}
	step(540, 600*sim.Millisecond)
	step(270, 600*sim.Millisecond) // halve the supply
	hr := tk.HeartRate(now)
	if math.Abs(hr-13.5) > 1 {
		t.Errorf("heart rate after supply halved = %v, want ≈13.5", hr)
	}
	if !tk.BelowRange(now) {
		t.Error("undersupplied task not reported below range")
	}
}

// TestDemandConversion reproduces Table 4: converting heart rate to demand
// with reference range 24–30 hb/s (target 27).
func TestDemandConversion(t *testing.T) {
	cases := []struct {
		hr, freq, util, want float64
	}{
		{15, 500, 1.00, 900},  // phase 1: s = 500 PU
		{10, 800, 0.50, 1080}, // phase 2: s = 400 PU
		{40, 1000, 1.00, 675}, // phase 3: s = 1000 PU, demand lowered
	}
	for i, c := range cases {
		s := c.freq * c.util
		got := EstimateDemand(27, s, c.hr)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("phase %d: EstimateDemand = %v, want %v", i+1, got, c.want)
		}
	}
}

func TestEstimateDemandNoBeatsFallsBack(t *testing.T) {
	if got := EstimateDemand(27, 350, 0); got != 350 {
		t.Errorf("EstimateDemand with hr=0 returned %v, want consumed supply 350", got)
	}
}

// Property: demand estimation is consistent — feeding back the estimated
// demand as supply, assuming linear scaling, lands on the target heart rate.
func TestEstimateDemandConsistencyProperty(t *testing.T) {
	f := func(hrX, sX uint16) bool {
		hr := float64(hrX%1000)/10 + 0.1 // 0.1 .. 100.1
		s := float64(sX%3000) + 1        // 1 .. 3000
		d := EstimateDemand(27, s, hr)
		// hb cost implied by the observation:
		cost := s / hr
		predicted := d / cost
		return math.Abs(predicted-27) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestWindowEdgeCases(t *testing.T) {
	w := NewWindow(100 * sim.Millisecond)
	if w.Rate(0) != 0 {
		t.Error("empty window rate != 0")
	}
	w.Add(sim.Millisecond, 1)
	if w.Rate(sim.Millisecond) != 0 {
		t.Error("single-sample window rate != 0")
	}
	w.Add(2*sim.Millisecond, 2)
	if got := w.Rate(2 * sim.Millisecond); math.Abs(got-2000) > 1e-6 {
		t.Errorf("two-sample rate = %v, want 2000", got)
	}
}

func TestWindowEvictsOldSamples(t *testing.T) {
	w := NewWindow(100 * sim.Millisecond)
	// 10 hb/s for 1s, then 100 hb/s; after the window slides, only the fast
	// rate should be visible.
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		now += sim.Millisecond
		w.Add(now, 0.01)
	}
	for i := 0; i < 200; i++ {
		now += sim.Millisecond
		w.Add(now, 0.1)
	}
	if got := w.Rate(now); math.Abs(got-100) > 5 {
		t.Errorf("windowed rate = %v, want ≈100", got)
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid spec did not panic")
		}
	}()
	New(1, Spec{})
}

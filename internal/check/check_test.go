package check_test

import (
	"strings"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/core"
	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// newCheckedPlatform builds a TC2 platform under the PPM governor with the
// given specs placed on the LITTLE cluster and a fully-wired checker.
func newCheckedPlatform(t *testing.T, wtdp float64, specs []task.Spec) (*platform.Platform, *check.Checker) {
	t.Helper()
	p := platform.NewTC2()
	cfg := ppm.DefaultConfig(wtdp)
	cfg.Profiles = func(name string, ct hw.CoreType) (float64, bool) {
		pr, ok := workload.ProfileFor(name)
		if !ok {
			return 0, false
		}
		return pr.Demand(ct), true
	}
	g := ppm.New(cfg)
	p.SetGovernor(g)
	var little []int
	for _, c := range p.Chip.Cores {
		if c.Type() == hw.Little {
			little = append(little, c.ID)
		}
	}
	for i, s := range specs {
		p.AddTask(s, little[i%len(little)])
	}
	thermal := hw.NewThermalModel(p.Chip, nil, 25)
	p.AttachThermal(thermal)
	c := check.New(check.Options{Market: g.Market(), Thermal: thermal, TDP: wtdp})
	p.AttachChecker(c)
	return p, c
}

func setSpecs(t *testing.T, name string) []task.Spec {
	t.Helper()
	set, ok := workload.SetByName(name)
	if !ok {
		t.Fatalf("unknown set %s", name)
	}
	specs, err := set.Specs(1)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// A healthy simulation must produce zero violations.
func TestCleanRunNoViolations(t *testing.T) {
	p, c := newCheckedPlatform(t, 4, setSpecs(t, "m2"))
	p.Run(2 * sim.Second)
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if c.Total() != 0 || len(c.Violations()) != 0 {
		t.Fatalf("Total=%d Violations=%d, want 0/0", c.Total(), len(c.Violations()))
	}
}

func hasInvariant(vs []check.Violation, id string) bool {
	for _, v := range vs {
		if v.Invariant == id {
			return true
		}
	}
	return false
}

// Pulling a live task's entity off its run queue behind the platform's back
// must trip task-accounting.
func TestTaskAccountingTrip(t *testing.T) {
	p, c := newCheckedPlatform(t, 0, setSpecs(t, "m2"))
	p.Run(100 * sim.Millisecond)
	if c.Total() != 0 {
		t.Fatalf("unexpected violations before corruption: %v", c.Err())
	}
	tk := p.Tasks()[0]
	if p.Migrating(tk) {
		t.Skip("task mid-migration at snapshot point")
	}
	p.Queue(p.CoreOf(tk)).Remove(p.EntityOf(tk))
	c.CheckTick(p, p.Now())
	if !hasInvariant(c.Violations(), "task-accounting") {
		t.Fatalf("dequeued live task not reported; got %v", c.Violations())
	}
}

// A checker that has watermarked one platform must flag a state whose
// vruntime and energy meters run backwards — simulated by pointing the same
// checker at a fresh platform of identical shape (all meters at zero).
func TestMonotonicityWatermarks(t *testing.T) {
	specs := setSpecs(t, "m2")
	p1, c := newCheckedPlatform(t, 0, specs)
	p1.Run(500 * sim.Millisecond)
	if c.Total() != 0 {
		t.Fatalf("unexpected violations: %v", c.Err())
	}
	p2 := platform.NewTC2()
	var little []int
	for _, cr := range p2.Chip.Cores {
		if cr.Type() == hw.Little {
			little = append(little, cr.ID)
		}
	}
	for i, s := range specs {
		p2.AddTask(s, little[i%len(little)])
	}
	p2.Run(sim.Millisecond)
	c.CheckTick(p2, p1.Now())
	if !hasInvariant(c.Violations(), "vruntime-monotone") {
		t.Errorf("vruntime rollback not reported; got %v", c.Violations())
	}
	if !hasInvariant(c.Violations(), "energy-monotone") {
		t.Errorf("energy rollback not reported; got %v", c.Violations())
	}
}

// singleCoreMarket builds a 1-cluster 1-core market for the market-level
// invariant trips.
func singleCoreMarket(cfg core.Config, ladder, power []float64) *core.Market {
	ctl := core.NewLadderControl(ladder, power)
	return core.NewMarket(cfg, []core.ClusterControl{ctl}, []int{1})
}

// Draining the global allowance below the b_min·(n+1) floor must trip
// allowance-floor (and the top-level budget conservation that the drained
// allowance no longer matches the fan-out).
func TestAllowanceFloorTrip(t *testing.T) {
	m := singleCoreMarket(core.Config{InitialAllowance: 100}, []float64{300}, nil)
	a := m.AddTask(1, 0)
	a.Demand = 200
	m.StepOnce()
	m.SetAllowance(0)
	c := check.New(check.Options{Market: m})
	c.CheckMarket(m, 0)
	if !hasInvariant(c.Violations(), "allowance-floor") {
		t.Errorf("drained allowance not reported; got %v", c.Violations())
	}
	if !hasInvariant(c.Violations(), "budget-conserved") {
		t.Errorf("fan-out mismatch not reported; got %v", c.Violations())
	}
}

// Growing the allowance after distribution breaks ΣA_v = A.
func TestBudgetConservationTrip(t *testing.T) {
	m := singleCoreMarket(core.Config{InitialAllowance: 100}, []float64{300}, nil)
	a := m.AddTask(1, 0)
	a.Demand = 200
	m.StepOnce()
	c := check.New(check.Options{Market: m})
	c.CheckMarket(m, 0)
	if c.Total() != 0 {
		t.Fatalf("consistent market reported violations: %v", c.Err())
	}
	m.SetAllowance(2 * m.Allowance())
	c.CheckMarket(m, 0)
	if !hasInvariant(c.Violations(), "budget-conserved") {
		t.Errorf("inflated allowance not reported; got %v", c.Violations())
	}
}

// A market whose cheapest rung already exceeds the TDP can never settle
// under the budget: tdp-settled must fire once the window elapses, while
// state-classified stays quiet (the chip agent correctly reports
// emergency).
func TestTDPSettledTrip(t *testing.T) {
	m := singleCoreMarket(core.Config{InitialAllowance: 100, Wtdp: 1},
		[]float64{300}, []float64{10})
	a := m.AddTask(1, 0)
	a.Demand = 200
	c := check.New(check.Options{Market: m})
	for i := 0; i < check.SettlingRounds+8; i++ {
		m.StepOnce()
		a.Observed = a.Purchased()
		c.CheckMarket(m, 0)
	}
	if !hasInvariant(c.Violations(), "tdp-settled") {
		t.Errorf("10 W chip under a 1 W TDP not reported; got %v", c.Violations())
	}
	if hasInvariant(c.Violations(), "state-classified") {
		t.Errorf("consistent state machine flagged: %v", c.Violations())
	}
}

// A bounded excursion above the slack band — as the EWMA trails a workload
// burst the state machine is already throttling — must NOT trip
// tdp-settled: only streaks longer than MaxOverRounds mean control is
// lost. Regression for a false positive surfaced on PPM/h2 under a 4 W
// cap, where a one-round 0.04% overshoot was reported while the chip
// agent sat in emergency with power back under the band the next round.
func TestTDPSettledTransientTolerated(t *testing.T) {
	m := singleCoreMarket(core.Config{InitialAllowance: 100, Wtdp: 1},
		[]float64{300}, []float64{10})
	a := m.AddTask(1, 0)
	a.Demand = 200
	c := check.New(check.Options{Market: m, MaxOverRounds: 3})
	// The rounds past the settling window are checked and over: streak 3.
	for i := 0; i < check.SettlingRounds+3; i++ {
		m.StepOnce()
		a.Observed = a.Purchased()
		c.CheckMarket(m, 0)
	}
	if hasInvariant(c.Violations(), "tdp-settled") {
		t.Errorf("transient within MaxOverRounds reported: %v", c.Violations())
	}
	// One more over-budget round exceeds the window.
	m.StepOnce()
	a.Observed = a.Purchased()
	c.CheckMarket(m, 0)
	if !hasInvariant(c.Violations(), "tdp-settled") {
		t.Errorf("persistent excursion past MaxOverRounds not reported; got %v", c.Violations())
	}
}

// MaxViolations caps the recorded list while Total keeps counting.
func TestMaxViolationsCap(t *testing.T) {
	m := singleCoreMarket(core.Config{InitialAllowance: 100}, []float64{300}, nil)
	a := m.AddTask(1, 0)
	a.Demand = 200
	m.StepOnce()
	m.SetAllowance(0)
	c := check.New(check.Options{Market: m})
	for i := 0; i <= check.MaxViolations; i++ {
		c.CheckMarket(m, 0)
	}
	if len(c.Violations()) != check.MaxViolations {
		t.Errorf("recorded %d violations, want cap of %d", len(c.Violations()), check.MaxViolations)
	}
	if c.Total() <= check.MaxViolations {
		t.Errorf("Total=%d, want > %d", c.Total(), check.MaxViolations)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Errorf("Err() = %v", err)
	}
	// The error lists every recorded violation, not only the first.
	if got, want := strings.Count(err.Error(), "\n"), len(c.Violations()); got != want {
		t.Errorf("Err() lists %d violations, want %d:\n%v", got, want, err)
	}
	for _, v := range c.Violations() {
		if !strings.Contains(err.Error(), v.String()) {
			t.Errorf("Err() lacks violation %s", v)
		}
	}
}

package lbt

import (
	"math"
	"testing"

	"pricepower/internal/core"
)

// tc2ish builds a 2-cluster market shaped like TC2: cluster 0 "big"
// (2 cores, 500–1200 PU, expensive) and cluster 1 "LITTLE" (3 cores,
// 350–1000 PU, cheap).
func tc2ish() (*core.Market, *core.LadderControl, *core.LadderControl) {
	big := core.NewLadderControl(
		[]float64{500, 700, 900, 1200},
		[]float64{2.0, 3.0, 4.5, 6.0})
	little := core.NewLadderControl(
		[]float64{350, 500, 700, 1000},
		[]float64{0.5, 0.8, 1.2, 2.0})
	cfg := core.Config{InitialAllowance: 10, InitialBid: 1, Tolerance: 0.2}
	m := core.NewMarket(cfg, []core.ClusterControl{big, little}, []int{2, 3})
	return m, big, little
}

// est builds an estimator with fixed per-cluster demands: demands[agentID]
// = [demand on cluster 0 (big), demand on cluster 1 (LITTLE)].
func est(demands map[int][2]float64) Estimator {
	return EstimatorFunc(func(a *core.TaskAgent, cluster int) float64 {
		return demands[a.ID][cluster]
	})
}

func TestPriceAtLevelPaperExample(t *testing.T) {
	// §3.3: P=$10, δ=0.02, 3 levels up → $10.612.
	got := PriceAtLevel(10, 0.02, 3)
	if math.Abs(got-10.612) > 0.001 {
		t.Errorf("PriceAtLevel(10, 0.02, 3) = %v, want ≈10.612", got)
	}
	// Down steps deflate.
	down := PriceAtLevel(10, 0.02, -2)
	if math.Abs(down-10*0.98*0.98) > 1e-9 {
		t.Errorf("PriceAtLevel(10, 0.02, -2) = %v, want %v", down, 10*0.98*0.98)
	}
	if PriceAtLevel(7, 0.1, 0) != 7 {
		t.Error("zero steps changed the price")
	}
}

// A task running on the expensive big cluster whose demand fits the LITTLE
// cluster should be migrated there for power efficiency.
func TestMigratePowerEfficiencyToLittle(t *testing.T) {
	m, big, _ := tc2ish()
	a := m.AddTask(1, 0) // on big core 0
	big.SetLevel(3)
	a.Demand, a.Observed = 400, 400
	m.StepOnce()

	// Demand 400 on big, 800 on LITTLE — still fits a LITTLE core.
	p := NewPlanner(m, est(map[int][2]float64{a.ID: {400, 800}}))
	mv := p.PlanMigrate()
	if mv == nil {
		t.Fatal("no migration proposed")
	}
	if mv.Agent != a || mv.Kind != Migrate {
		t.Fatalf("unexpected move %v", mv)
	}
	if mv.ToCore < 2 {
		t.Errorf("moved to core %d, want a LITTLE core (2-4)", mv.ToCore)
	}
	if mv.SpendAfter >= mv.SpendBefore {
		t.Errorf("spend did not decrease: %v → %v", mv.SpendBefore, mv.SpendAfter)
	}
	if mv.Reason != "power-efficiency" {
		t.Errorf("reason = %q", mv.Reason)
	}
}

// A task whose LITTLE demand exceeds the whole LITTLE ladder must move to
// the big cluster when starving (performance branch).
func TestMigratePerformanceToBig(t *testing.T) {
	m, _, little := tc2ish()
	a := m.AddTask(1, 2) // on LITTLE core (global ID 2)
	little.SetLevel(3)   // 1000 PU, still not enough
	a.Demand, a.Observed = 1600, 1000
	m.StepOnce()

	p := NewPlanner(m, est(map[int][2]float64{a.ID: {800, 1600}}))
	mv := p.PlanMigrate()
	if mv == nil {
		t.Fatal("no migration proposed")
	}
	if mv.ToCore != 0 && mv.ToCore != 1 {
		t.Errorf("moved to core %d, want a big core", mv.ToCore)
	}
	if mv.Reason != "performance" {
		t.Errorf("reason = %q", mv.Reason)
	}
}

// No movement should be proposed when the current mapping is already the
// cheapest satisfying one.
func TestNoMoveWhenAlreadyOptimal(t *testing.T) {
	m, _, _ := tc2ish()
	a := m.AddTask(1, 2) // LITTLE core, fits fine
	a.Demand, a.Observed = 400, 400
	m.StepOnce()
	p := NewPlanner(m, est(map[int][2]float64{a.ID: {200, 400}}))
	if mv := p.PlanMigrate(); mv != nil {
		t.Errorf("proposed %v for an already-optimal mapping", mv)
	}
}

// Load balancing: two tasks crowding one core while a sibling core is idle
// should split within the cluster.
func TestBalanceSplitsCrowdedCore(t *testing.T) {
	m, _, little := tc2ish()
	a := m.AddTask(1, 2)
	b := m.AddTask(1, 2) // both on LITTLE core 2
	little.SetLevel(3)
	a.Demand, a.Observed = 700, 500
	b.Demand, b.Observed = 700, 500
	m.StepOnce()

	p := NewPlanner(m, est(map[int][2]float64{a.ID: {350, 700}, b.ID: {350, 700}}))
	mv := p.PlanBalance()
	if mv == nil {
		t.Fatal("no balance proposed")
	}
	if mv.Kind != Balance {
		t.Errorf("kind = %v", mv.Kind)
	}
	if mv.ToCore != 3 && mv.ToCore != 4 {
		t.Errorf("balanced to core %d, want another LITTLE core", mv.ToCore)
	}
	if mv.FromCore != 2 {
		t.Errorf("from core %d, want 2", mv.FromCore)
	}
}

// Balancing away from the constrained core lets the cluster drop its V-F
// level: spend must fall even though demand is satisfied either way.
func TestBalanceReducesSpendViaLowerLevel(t *testing.T) {
	m, _, little := tc2ish()
	a := m.AddTask(1, 2)
	b := m.AddTask(1, 2)
	little.SetLevel(3) // 1000 PU covers both (500+500)
	a.Demand, a.Observed = 500, 500
	b.Demand, b.Observed = 500, 500
	m.StepOnce()
	p := NewPlanner(m, est(map[int][2]float64{a.ID: {250, 500}, b.ID: {250, 500}}))
	mv := p.PlanBalance()
	if mv == nil {
		t.Fatal("no balance proposed despite level-halving opportunity")
	}
	if mv.SpendAfter >= mv.SpendBefore {
		t.Errorf("spend %v → %v, want reduction", mv.SpendBefore, mv.SpendAfter)
	}
}

// The performance branch must not improve a low-priority task at the cost
// of a higher-priority one.
func TestPerformanceBranchProtectsHighPriority(t *testing.T) {
	m, big, little := tc2ish()
	// High-priority task occupying big core 0; its demand uses most of it.
	hi := m.AddTask(7, 0)
	big.SetLevel(3)
	hi.Demand, hi.Observed = 1100, 1100
	// Low-priority task starving on LITTLE.
	lo := m.AddTask(1, 2)
	little.SetLevel(3)
	lo.Demand, lo.Observed = 1600, 1000
	m.StepOnce()

	demands := map[int][2]float64{
		hi.ID: {1100, 2200},
		lo.ID: {800, 1600},
	}
	p := NewPlanner(m, est(demands))
	mv := p.PlanMigrate()
	// Moving lo onto a big core: the pair (1100+800) exceeds even the top
	// 1200 PU rung on core 0's cluster only if they share a core; lo should
	// go to the *other* big core (core 1), which is fine — but if it must
	// share with hi, the move is rejected. Either way hi's ratio must stay 1.
	if mv != nil {
		pl, sc := p.newPlan(Migrate)
		cand := pl.move(pl.indexOf(mv.Agent, mv.FromCore), mv.FromCore, mv.ToCore)
		pl.evalWhole(sc, &cand)
		r, ok := ratiosByAgent(pl, sc.after)[hi]
		if !ok || r < 1-1e-6 {
			t.Errorf("move %v degrades the high-priority task to %v", mv, r)
		}
	}
}

// In an overloaded core, estimated supply splits by priority.
func TestSplitByPriorityWaterFill(t *testing.T) {
	var sc scratch
	got := make([]float64, 2)
	sc.splitByPriority([]float64{900, 900}, []int{3, 1}, 1000, got)
	if math.Abs(got[0]-750) > 1e-6 || math.Abs(got[1]-250) > 1e-6 {
		t.Errorf("split = %v/%v, want 750/250", got[0], got[1])
	}
	// Capping: the first task's demand below its share redistributes to
	// the second.
	sc.splitByPriority([]float64{100, 2000}, []int{3, 1}, 1000, got)
	if math.Abs(got[0]-100) > 1e-6 || math.Abs(got[1]-900) > 1e-6 {
		t.Errorf("capped split = %v/%v, want 100/900", got[0], got[1])
	}
}

func TestEvaluateEmptyClusterSpendsNothing(t *testing.T) {
	m, _, _ := tc2ish()
	a := m.AddTask(1, 2)
	a.Demand = 400
	p := NewPlanner(m, est(map[int][2]float64{a.ID: {200, 400}}))
	pl, _ := p.newPlan(Migrate)
	// Only the LITTLE cluster should contribute spend.
	if pl.res.spend <= 0 {
		t.Error("no spend at all")
	}
	if pl.evs[0].spend != 0 {
		t.Errorf("empty big cluster spends %v", pl.evs[0].spend)
	}
	base := pl.res.spend
	// Adding a big-cluster task increases spend.
	b := m.AddTask(1, 0)
	b.Demand = 400
	p2 := NewPlanner(m, est(map[int][2]float64{a.ID: {200, 400}, b.ID: {400, 800}}))
	if pl2, _ := p2.newPlan(Migrate); pl2.res.spend <= base {
		t.Errorf("spend %v not above %v after adding big task", pl2.res.spend, base)
	}
}

func TestPlanOnEmptyMarket(t *testing.T) {
	m, _, _ := tc2ish()
	p := NewPlanner(m, est(nil))
	if mv := p.PlanMigrate(); mv != nil {
		t.Errorf("empty market proposed %v", mv)
	}
	if mv := p.PlanBalance(); mv != nil {
		t.Errorf("empty market proposed %v", mv)
	}
}

func TestPlanForClusterScopesWork(t *testing.T) {
	m, _, little := tc2ish()
	a := m.AddTask(1, 2)
	little.SetLevel(3)
	a.Demand, a.Observed = 1600, 1000
	m.StepOnce()
	p := NewPlanner(m, est(map[int][2]float64{a.ID: {800, 1600}}))
	if mv := p.PlanForCluster(1, Migrate); mv == nil {
		t.Error("constrained cluster proposed nothing")
	}
	if mv := p.PlanForCluster(0, Migrate); mv != nil {
		t.Errorf("empty cluster proposed %v", mv)
	}
}

func TestKindString(t *testing.T) {
	if Balance.String() != "balance" || Migrate.String() != "migrate" {
		t.Error("kind names wrong")
	}
}

func TestMoveString(t *testing.T) {
	m, _, _ := tc2ish()
	a := m.AddTask(1, 0)
	mv := &Move{Agent: a, FromCore: 0, ToCore: 2, Kind: Migrate, Reason: "performance"}
	if s := mv.String(); s == "" {
		t.Error("empty move string")
	}
}

// Termination property (§3.3.1): repeatedly applying proposed moves reaches
// a fixed point — no cyclic task movement.
func TestNoCyclicMovement(t *testing.T) {
	m, big, little := tc2ish()
	big.SetLevel(1)
	little.SetLevel(2)
	agents := []*core.TaskAgent{
		m.AddTask(2, 0), m.AddTask(1, 2), m.AddTask(1, 2), m.AddTask(3, 3),
	}
	demands := map[int][2]float64{
		agents[0].ID: {300, 600},
		agents[1].ID: {400, 800},
		agents[2].ID: {250, 500},
		agents[3].ID: {500, 1000},
	}
	for _, a := range agents {
		a.Demand = demands[a.ID][1]
		a.Observed = a.Demand
	}
	m.StepOnce()
	p := NewPlanner(m, est(demands))
	moves := 0
	for i := 0; i < 50; i++ {
		mv := p.PlanMigrate()
		if mv == nil {
			mv = p.PlanBalance()
		}
		if mv == nil {
			break
		}
		m.MoveTask(mv.Agent, mv.ToCore)
		moves++
	}
	if moves >= 50 {
		t.Fatal("task movement did not terminate (cycle)")
	}
	// After settling, neither planner proposes anything.
	if mv := p.PlanMigrate(); mv != nil {
		t.Errorf("migration still proposed after fixed point: %v", mv)
	}
	if mv := p.PlanBalance(); mv != nil {
		t.Errorf("balance still proposed after fixed point: %v", mv)
	}
}

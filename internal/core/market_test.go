package core

import (
	"math"
	"testing"

	"pricepower/internal/sim"
)

// feedback copies each agent's purchased supply into its observation — the
// market-only test harness stands in for the platform measurement loop.
func feedback(agents ...*TaskAgent) {
	for _, a := range agents {
		a.Observed = a.Purchased()
	}
}

// singleCoreMarket builds a 1-cluster 1-core market over the given ladder.
func singleCoreMarket(cfg Config, ladder, power []float64) (*Market, *LadderControl) {
	ctl := NewLadderControl(ladder, power)
	m := NewMarket(cfg, []ClusterControl{ctl}, []int{1})
	return m, ctl
}

// TestTable1Dynamics reproduces Table 1: two tasks on a 300-PU core
// starting from $1 bids converge to their 200/100 PU demands in two rounds.
func TestTable1Dynamics(t *testing.T) {
	cfg := Config{InitialAllowance: 1000, InitialBid: 1, Wtdp: 0}
	m, _ := singleCoreMarket(cfg, []float64{300}, nil)
	ta := m.AddTask(1, 0)
	tb := m.AddTask(1, 0)
	ta.Demand, tb.Demand = 200, 100

	// Round 1: initial bids stand (no price history yet).
	m.StepOnce()
	if ta.Bid() != 1 || tb.Bid() != 1 {
		t.Fatalf("round 1 bids = %v/%v, want 1/1", ta.Bid(), tb.Bid())
	}
	cc := m.Cluster(0).Cores[0]
	if math.Abs(cc.Price()-2.0/300) > 1e-9 {
		t.Errorf("round 1 price = %v, want %v", cc.Price(), 2.0/300)
	}
	if math.Abs(ta.Purchased()-150) > 1e-6 || math.Abs(tb.Purchased()-150) > 1e-6 {
		t.Errorf("round 1 supplies = %v/%v, want 150/150", ta.Purchased(), tb.Purchased())
	}

	// Round 2: bids adjust by (d−s)·P.
	feedback(ta, tb)
	m.StepOnce()
	if math.Abs(ta.Bid()-4.0/3) > 1e-3 {
		t.Errorf("round 2 bid(a) = %v, want ≈1.33", ta.Bid())
	}
	if math.Abs(tb.Bid()-2.0/3) > 1e-3 {
		t.Errorf("round 2 bid(b) = %v, want ≈0.66", tb.Bid())
	}
	if math.Abs(ta.Purchased()-200) > 0.5 || math.Abs(tb.Purchased()-100) > 0.5 {
		t.Errorf("round 2 supplies = %v/%v, want 200/100", ta.Purchased(), tb.Purchased())
	}
	if !ta.Satisfied() || !tb.Satisfied() {
		t.Error("demands not satisfied at equilibrium")
	}
}

// TestTable2ClusterDynamics reproduces Table 2: a demand step from 200 to
// 300 PU inflates the price past δ=0.2 and the cluster agent raises the
// supply from 300 to 400 PU; in the settle round the new price becomes the
// base and both tasks are satisfied.
func TestTable2ClusterDynamics(t *testing.T) {
	cfg := Config{InitialAllowance: 1000, InitialBid: 1, Tolerance: 0.2}
	m, ctl := singleCoreMarket(cfg, []float64{300, 400, 500, 600}, nil)
	ta := m.AddTask(1, 0)
	tb := m.AddTask(1, 0)
	ta.Demand, tb.Demand = 200, 100

	// Rounds 1-2 (Table 1 prologue).
	m.StepOnce()
	feedback(ta, tb)
	m.StepOnce()
	feedback(ta, tb)
	base := m.Cluster(0).Cores[0].BasePrice()
	if math.Abs(base-2.0/300) > 1e-6 {
		t.Fatalf("base price = %v, want %v", base, 2.0/300)
	}

	// Round 3: demand of ta rises to 300.
	ta.Demand = 300
	m.StepOnce()
	cc := m.Cluster(0).Cores[0]
	if math.Abs(ta.Bid()-1.999) > 5e-3 {
		t.Errorf("round 3 bid(a) = %v, want ≈1.99", ta.Bid())
	}
	if math.Abs(cc.Price()-0.00889) > 1e-4 {
		t.Errorf("round 3 price = %v, want ≈0.0088", cc.Price())
	}
	if ctl.SupplyPU() != 400 {
		t.Fatalf("supply after inflation = %v, want 400", ctl.SupplyPU())
	}
	if !m.Cluster(0).Frozen() {
		t.Error("cluster not frozen after V-F change")
	}

	// Round 4: bids frozen, price re-discovered at new supply, base reset.
	bidA, bidB := ta.Bid(), tb.Bid()
	feedback(ta, tb)
	m.StepOnce()
	if ta.Bid() != bidA || tb.Bid() != bidB {
		t.Error("bids changed during the settle round")
	}
	if math.Abs(cc.Price()-bidA/400-bidB/400) > 1e-6 {
		t.Errorf("round 4 price = %v, want %v", cc.Price(), (bidA+bidB)/400)
	}
	if math.Abs(cc.BasePrice()-cc.Price()) > 1e-12 {
		t.Error("base price not reset to settle-round price")
	}
	if math.Abs(ta.Purchased()-300) > 1 || math.Abs(tb.Purchased()-100) > 1 {
		t.Errorf("round 4 supplies = %v/%v, want 300/100", ta.Purchased(), tb.Purchased())
	}
	if m.Cluster(0).Frozen() {
		t.Error("cluster still frozen after settle round")
	}
}

// table3Market builds the Table 3 scenario: supply ladder {300..600} where
// 600 PU costs 3 W (emergency), 500 PU costs 2 W (threshold) and lower
// levels 0.8 W; Wtdp = 2.25 W, Wth = 1.75 W; priorities 2 vs 1.
func table3Market() (*Market, *TaskAgent, *TaskAgent, *LadderControl) {
	cfg := Config{
		InitialAllowance: 4.5, InitialBid: 1, Tolerance: 0.2,
		Wtdp: 2.25, Wth: 1.75, SavingsCap: 5,
	}
	m, ctl := singleCoreMarket(cfg,
		[]float64{300, 400, 500, 600},
		[]float64{0.8, 0.8, 2.0, 3.0})
	ta := m.AddTask(2, 0)
	tb := m.AddTask(1, 0)
	return m, ta, tb, ctl
}

// TestTable3ChipDynamics reproduces the chip-level trajectory of Table 3
// qualitatively: under overload the system passes through the emergency
// state, the allowance is cut, and it stabilizes in the threshold state with
// the high-priority task satisfied and the low-priority task suffering.
func TestTable3ChipDynamics(t *testing.T) {
	m, ta, tb, ctl := table3Market()
	ta.Demand, tb.Demand = 300, 100

	run := func(n int) {
		for i := 0; i < n; i++ {
			feedback(ta, tb)
			m.StepOnce()
		}
	}

	// Prologue: both demands satisfiable at 400 PU (0.8 W, normal state).
	run(12)
	if m.State() != Normal {
		t.Fatalf("prologue state = %v, want normal", m.State())
	}
	if ctl.SupplyPU() != 400 {
		t.Fatalf("prologue supply = %v, want 400", ctl.SupplyPU())
	}
	if !ta.Satisfied() || !tb.Satisfied() {
		t.Fatal("prologue demands not satisfied")
	}

	// Allowance distribution follows priorities 2:1 (a_ta = 2·a_tb).
	if math.Abs(ta.Allowance()-2*tb.Allowance()) > 1e-9 {
		t.Errorf("allowances = %v/%v, want 2:1", ta.Allowance(), tb.Allowance())
	}

	// Round 5 of the paper: tb's demand jumps to 300; combined demand 600
	// needs the 3 W level — unsustainable under Wtdp = 2.25 W.
	tb.Demand = 300
	sawEmergency := false
	curbed := false
	maxSupply := 0.0
	prevA := m.Allowance()
	for i := 0; i < 60; i++ {
		feedback(ta, tb)
		m.StepOnce()
		if m.State() == Emergency {
			sawEmergency = true
			if m.Allowance() < prevA {
				curbed = true
			}
		}
		prevA = m.Allowance()
		if s := ctl.SupplyPU(); s > maxSupply {
			maxSupply = s
		}
	}
	if !sawEmergency {
		t.Error("system never reached the emergency state")
	}
	if maxSupply != 600 {
		t.Errorf("max supply = %v, want 600 (overshoot into emergency)", maxSupply)
	}

	// Steady state: threshold, 500 PU (2 W), allowance cut below the peak.
	if m.State() != Threshold {
		t.Errorf("final state = %v, want threshold", m.State())
	}
	if got := ctl.SupplyPU(); got != 500 {
		t.Errorf("final supply = %v, want 500", got)
	}
	if !curbed {
		t.Error("allowance never curbed during an emergency round")
	}

	// The high-priority task meets its demand; the low-priority one suffers.
	if math.Abs(ta.Purchased()-300) > 15 {
		t.Errorf("high-priority supply = %v, want ≈300", ta.Purchased())
	}
	if tb.Purchased() > 215 {
		t.Errorf("low-priority supply = %v, want ≈200 (suffering)", tb.Purchased())
	}
	if tb.Satisfied() {
		t.Error("low-priority task satisfied despite overload")
	}

	// Price equilibrium: further rounds leave the V-F level alone.
	level := ctl.Level()
	run(20)
	if ctl.Level() != level {
		t.Errorf("V-F level still moving at steady state: %d → %d", level, ctl.Level())
	}
	if !m.Stable() {
		t.Error("market not reporting stability at steady state")
	}
}

// TestSavingsAccrueWhenUnderbidding verifies §3.2.3's savings mechanism: an
// agent bidding below its allowance accumulates the difference, capped at
// SavingsCap × allowance.
func TestSavingsAccrueWhenUnderbidding(t *testing.T) {
	cfg := Config{InitialAllowance: 10, InitialBid: 1, SavingsCap: 2}
	m, _ := singleCoreMarket(cfg, []float64{300}, nil)
	ta := m.AddTask(1, 0)
	ta.Demand = 100
	for i := 0; i < 50; i++ {
		feedback(ta)
		m.StepOnce()
	}
	if ta.Savings() <= 0 {
		t.Fatal("no savings accrued while underbidding")
	}
	if cap := cfg.SavingsCap * ta.Allowance(); ta.Savings() > cap+1e-9 {
		t.Errorf("savings %v exceed cap %v", ta.Savings(), cap)
	}
}

// TestSavingsSpentWhenOverbidding verifies the drain path: when the bid must
// exceed the allowance, savings make up the difference and deplete.
func TestSavingsSpentWhenOverbidding(t *testing.T) {
	cfg := Config{InitialAllowance: 2, InitialBid: 1, SavingsCap: 5, Tolerance: 1e9}
	m, _ := singleCoreMarket(cfg, []float64{300}, nil)
	ta := m.AddTask(1, 0)
	tb := m.AddTask(1, 0)
	// Dormant phase: ta demands little, saves.
	ta.Demand, tb.Demand = 50, 250
	for i := 0; i < 100; i++ {
		feedback(ta, tb)
		m.StepOnce()
	}
	saved := ta.Savings()
	if saved <= 0 {
		t.Fatal("no savings accrued in dormant phase")
	}
	// Active phase: ta now demands more than its allowance can buy.
	ta.Demand = 280
	for i := 0; i < 200; i++ {
		feedback(ta, tb)
		m.StepOnce()
	}
	if ta.Savings() >= saved {
		t.Errorf("savings did not drain in active phase: %v → %v", saved, ta.Savings())
	}
	// Its bid may exceed its allowance only thanks to savings.
	if ta.Bid() > ta.Allowance()+ta.Savings()+1e-9 {
		t.Errorf("bid %v exceeds allowance+savings %v", ta.Bid(), ta.Allowance()+ta.Savings())
	}
}

func TestBidsRespectFloor(t *testing.T) {
	cfg := Config{InitialAllowance: 10, InitialBid: 1, MinBid: 0.05}
	m, _ := singleCoreMarket(cfg, []float64{300}, nil)
	ta := m.AddTask(1, 0)
	ta.Demand = 0 // wants nothing; bid should fall to the floor, not 0
	for i := 0; i < 100; i++ {
		feedback(ta)
		m.StepOnce()
	}
	if ta.Bid() != 0.05 {
		t.Errorf("bid = %v, want floor 0.05", ta.Bid())
	}
}

func TestEmptyClusterDriftsToBottomAndPricesZero(t *testing.T) {
	cfg := Config{InitialAllowance: 10}
	m, ctl := singleCoreMarket(cfg, []float64{300, 400, 500}, nil)
	ctl.SetLevel(2)
	for i := 0; i < 5; i++ {
		m.StepOnce()
	}
	if ctl.Level() != 0 {
		t.Errorf("empty cluster at level %d, want 0", ctl.Level())
	}
	if got := m.Cluster(0).Cores[0].Price(); got != 0 {
		t.Errorf("empty core price = %v, want 0", got)
	}
}

func TestAllowanceDistributionInverseToPower(t *testing.T) {
	cfg := Config{InitialAllowance: 9, InitialBid: 1}
	hot := NewLadderControl([]float64{1000}, []float64{6})
	cold := NewLadderControl([]float64{1000}, []float64{2})
	m := NewMarket(cfg, []ClusterControl{hot, cold}, []int{1, 1})
	a := m.AddTask(1, 0)
	b := m.AddTask(1, 1)
	a.Demand, b.Demand = 500, 500
	m.StepOnce()
	// Weights: hot (W−6)/8 = 0.25, cold (W−2)/8 = 0.75.
	if math.Abs(m.Cluster(0).Allowance()-9*0.25) > 1e-9 {
		t.Errorf("hot cluster allowance = %v, want %v", m.Cluster(0).Allowance(), 9*0.25)
	}
	if math.Abs(m.Cluster(1).Allowance()-9*0.75) > 1e-9 {
		t.Errorf("cold cluster allowance = %v, want %v", m.Cluster(1).Allowance(), 9*0.75)
	}
	// Conservation: cluster allowances sum to A.
	sum := m.Cluster(0).Allowance() + m.Cluster(1).Allowance()
	if math.Abs(sum-m.Allowance()) > 1e-9 {
		t.Errorf("ΣA_v = %v, A = %v", sum, m.Allowance())
	}
}

func TestEmptyClusterGetsNoAllowance(t *testing.T) {
	cfg := Config{InitialAllowance: 9, InitialBid: 1}
	c0 := NewLadderControl([]float64{1000}, []float64{2})
	c1 := NewLadderControl([]float64{1000}, []float64{2})
	m := NewMarket(cfg, []ClusterControl{c0, c1}, []int{1, 1})
	a := m.AddTask(1, 0)
	a.Demand = 500
	m.StepOnce()
	if m.Cluster(1).Allowance() != 0 {
		t.Errorf("empty cluster allowance = %v, want 0", m.Cluster(1).Allowance())
	}
	if math.Abs(m.Cluster(0).Allowance()-9) > 1e-9 {
		t.Errorf("occupied cluster allowance = %v, want 9", m.Cluster(0).Allowance())
	}
}

func TestMoveTaskKeepsMoney(t *testing.T) {
	cfg := Config{InitialAllowance: 10, InitialBid: 1}
	c0 := NewLadderControl([]float64{500}, nil)
	c1 := NewLadderControl([]float64{500}, nil)
	m := NewMarket(cfg, []ClusterControl{c0, c1}, []int{2, 2})
	a := m.AddTask(1, 0)
	a.Demand = 100
	for i := 0; i < 20; i++ {
		feedback(a)
		m.StepOnce()
	}
	savings := a.Savings()
	if savings <= 0 {
		t.Fatal("expected savings before move")
	}
	m.MoveTask(a, 3)
	_, dst := m.CoreByID(3)
	if len(dst.Tasks) != 1 || dst.Tasks[0] != a {
		t.Fatal("task not on destination core")
	}
	if a.Savings() != savings {
		t.Errorf("savings changed across move: %v → %v", savings, a.Savings())
	}
	_, src := m.CoreByID(0)
	if len(src.Tasks) != 0 {
		t.Error("task still on source core")
	}
}

func TestRemoveTask(t *testing.T) {
	cfg := Config{InitialAllowance: 10}
	m, _ := singleCoreMarket(cfg, []float64{300}, nil)
	a := m.AddTask(1, 0)
	m.RemoveTask(a)
	if n := m.taskCount(); n != 0 {
		t.Errorf("task count after removal = %d", n)
	}
	m.RemoveTask(a) // idempotent
}

func TestStateClassification(t *testing.T) {
	m, _ := singleCoreMarket(Config{Wtdp: 4, Wth: 3.5}, []float64{300}, nil)
	cases := []struct {
		w    float64
		want State
	}{{1, Normal}, {3.4, Normal}, {3.5, Threshold}, {3.99, Threshold}, {4, Emergency}, {9, Emergency}}
	for _, c := range cases {
		if got := m.classify(c.w); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.w, got, c.want)
		}
	}
	// No TDP configured: always normal.
	m2, _ := singleCoreMarket(Config{}, []float64{300}, nil)
	if got := m2.classify(100); got != Normal {
		t.Errorf("classify without TDP = %v, want normal", got)
	}
}

func TestStateString(t *testing.T) {
	if Normal.String() != "normal" || Threshold.String() != "threshold" || Emergency.String() != "emergency" {
		t.Error("state names wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Wtdp: 4}.withDefaults()
	if c.MinBid <= 0 || c.Tolerance <= 0 || c.SavingsCap <= 0 ||
		c.InitialAllowance <= 0 || c.InitialBid <= 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	if math.Abs(c.Wth-3.6) > 1e-9 {
		t.Errorf("default Wth = %v, want 3.6", c.Wth)
	}
	// Explicit values survive.
	c2 := Config{MinBid: 0.5, Wtdp: 4}.withDefaults()
	if c2.MinBid != 0.5 {
		t.Error("explicit MinBid overwritten")
	}
}

// Property: purchases always exhaust the supply exactly when there are
// bidders (Σ s_t = S_c), at any demand mix.
func TestPurchaseConservationProperty(t *testing.T) {
	cfg := Config{InitialAllowance: 100, InitialBid: 1}
	m, _ := singleCoreMarket(cfg, []float64{777}, nil)
	agents := []*TaskAgent{m.AddTask(1, 0), m.AddTask(3, 0), m.AddTask(2, 0)}
	demands := [][]float64{{100, 200, 300}, {0, 0, 900}, {500, 500, 500}, {10, 10, 10}}
	for _, ds := range demands {
		for i, a := range agents {
			a.Demand = ds[i]
		}
		for r := 0; r < 10; r++ {
			feedback(agents...)
			m.StepOnce()
			var sum float64
			for _, a := range agents {
				sum += a.Purchased()
			}
			if math.Abs(sum-777) > 1e-6 {
				t.Fatalf("Σ purchased = %v, want 777 (demands %v)", sum, ds)
			}
		}
	}
}

// TestZeroPowerDoesNotReseedEWMA is the regression test for the EWMA seed
// sentinel: a chip legitimately reading 0 W (all clusters gated or a
// zero-power ladder rung) must count as a real sample. With the old
// `wAvg == 0` sentinel every 0 W round re-seeded the average, so the next
// raw power spike was classified unsmoothed and the state machine
// overreacted (here: straight to Emergency instead of staying Normal).
func TestZeroPowerDoesNotReseedEWMA(t *testing.T) {
	ctl := NewLadderControl([]float64{100, 200}, []float64{0, 10})
	m := NewMarket(Config{InitialAllowance: 10, InitialBid: 1, Wtdp: 8, Wth: 6},
		[]ClusterControl{ctl}, []int{1})
	a := m.AddTask(1, 0)
	a.Demand = 50

	// Several rounds at a legitimate 0 W reading.
	for i := 0; i < 3; i++ {
		m.StepOnce()
		feedback(a)
		if m.SmoothedPower() != 0 {
			t.Fatalf("round %d: smoothed power = %v, want 0", i, m.SmoothedPower())
		}
		if m.State() != Normal {
			t.Fatalf("round %d: state = %v, want normal", i, m.State())
		}
	}

	// Raw power spikes to 10 W (above Wtdp). The smoothed reading must move
	// only by the EWMA step — 0.3·10 = 3 W, well inside the normal zone.
	ctl.SetLevel(1)
	m.StepOnce()
	if got := m.SmoothedPower(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("smoothed power after spike = %v, want 3.0 (EWMA step)", got)
	}
	if m.State() != Normal {
		t.Errorf("state after smoothed spike = %v, want normal (raw classification overreacts)",
			m.State())
	}
}

// The O(1) core index must agree with the hierarchy for every ID, and
// reject out-of-range IDs.
func TestCoreByIDIndex(t *testing.T) {
	controls := []ClusterControl{
		NewLadderControl([]float64{300}, nil),
		NewLadderControl([]float64{400}, nil),
		NewLadderControl([]float64{500}, nil),
	}
	m := NewMarket(Config{}, controls, []int{2, 3, 1})
	id := 0
	for _, v := range m.Clusters {
		for _, c := range v.Cores {
			gv, gc := m.CoreByID(id)
			if gv != v || gc != c || gc.ID != id {
				t.Errorf("CoreByID(%d) = (%v,%v), want (%v,%v)", id, gv, gc, v, c)
			}
			id++
		}
	}
	if v, c := m.CoreByID(-1); v != nil || c != nil {
		t.Error("CoreByID(-1) not nil")
	}
	if v, c := m.CoreByID(id); v != nil || c != nil {
		t.Errorf("CoreByID(%d) not nil", id)
	}
}

// Task agents carry their core back-reference through add/move/remove.
func TestTaskAgentCoreBackref(t *testing.T) {
	c0 := NewLadderControl([]float64{500}, nil)
	c1 := NewLadderControl([]float64{500}, nil)
	m := NewMarket(Config{InitialAllowance: 10}, []ClusterControl{c0, c1}, []int{1, 1})
	a := m.AddTask(1, 0)
	if _, c := m.CoreByID(0); a.Core() != c {
		t.Errorf("Core() after AddTask = %v, want core 0", a.Core())
	}
	m.MoveTask(a, 1)
	if _, c := m.CoreByID(1); a.Core() != c {
		t.Errorf("Core() after MoveTask = %v, want core 1", a.Core())
	}
	m.RemoveTask(a)
	if a.Core() != nil {
		t.Errorf("Core() after RemoveTask = %v, want nil", a.Core())
	}
}

// manyClusterMarket builds a market of clusters × coresPer cores over
// ladders of five different bases, with tasksPer seeded random-demand
// agents on every core.
func manyClusterMarket(seed uint64, clusters, coresPer, tasksPer int) (*Market, []*TaskAgent) {
	rng := sim.NewRand(seed)
	controls := make([]ClusterControl, clusters)
	cores := make([]int, clusters)
	for i := range controls {
		base := 300 + 100*float64(i%5)
		controls[i] = NewLadderControl(
			[]float64{base, base * 1.5, base * 2, base * 3},
			[]float64{0.5, 1, 1.8, 3})
		cores[i] = coresPer
	}
	m := NewMarket(Config{InitialAllowance: 50, InitialBid: 1, Wtdp: float64(clusters)},
		controls, cores)
	var agents []*TaskAgent
	for coreID := 0; coreID < clusters*coresPer; coreID++ {
		for t := 0; t < tasksPer; t++ {
			ag := m.AddTask(1+rng.Intn(7), coreID)
			ag.Demand = rng.Range(20, 500)
			agents = append(agents, ag)
		}
	}
	return m, agents
}

// TestManyClusterStressChurn runs a many-cluster market with
// Add/Move/Remove churn between rounds — the index structures (CoreByID
// slices, task-agent core back-references) must stay consistent.
func TestManyClusterStressChurn(t *testing.T) {
	const clusters, coresPer = 48, 4
	m, agents := manyClusterMarket(55, clusters, coresPer, 2)
	rng := sim.NewRand(99)
	numCores := clusters * coresPer
	for round := 0; round < 60; round++ {
		m.StepOnce()
		for _, a := range agents {
			if a.Core() != nil {
				a.Observed = a.Purchased()
			}
		}
		// Churn between rounds: move one agent, remove one, add one.
		if i := rng.Intn(len(agents)); agents[i].Core() != nil {
			m.MoveTask(agents[i], rng.Intn(numCores))
		}
		if i := rng.Intn(len(agents)); agents[i].Core() != nil {
			m.RemoveTask(agents[i])
		}
		na := m.AddTask(1+rng.Intn(7), rng.Intn(numCores))
		na.Demand = rng.Range(20, 500)
		agents = append(agents, na)
	}
	// Invariant: every live agent's back-reference is listed by its core.
	live := 0
	for _, a := range agents {
		c := a.Core()
		if c == nil {
			continue
		}
		live++
		found := false
		for _, t2 := range c.Tasks {
			if t2 == a {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("agent %d not listed on its core %d", a.ID, c.ID)
		}
	}
	if live != m.taskCount() {
		t.Errorf("live agents %d != market task count %d", live, m.taskCount())
	}
}

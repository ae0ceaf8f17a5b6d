package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/sim"
)

// convergenceLadder is the convergence property's per-core V-F ladder (PU)
// and convergenceTol its cluster agents' tolerance δ.
var convergenceLadder = []float64{300, 400, 500, 600, 800, 1000}

const convergenceTol = 0.2

// stillRounds is how long the ladder must hold still with every demand met
// for the property to count a market as converged.
const stillRounds = 100

// convergenceMarket builds the convergence property's market for one
// sampled seed: one core on convergenceLadder holding one to four tasks of
// random priority, whose demands d total at most 900 PU, so some rung
// serves every vector.
func convergenceMarket(seed uint64) (m *Market, ctl *LadderControl, agents []*TaskAgent, d float64) {
	rng := sim.NewRand(seed)
	cfg := Config{InitialAllowance: 50, InitialBid: 1, Tolerance: convergenceTol}
	ctl = NewLadderControl(convergenceLadder, nil)
	m = NewMarket(cfg, []ClusterControl{ctl}, []int{1})
	n := 1 + rng.Intn(4)
	agents = make([]*TaskAgent, n)
	for i := range agents {
		agents[i] = m.AddTask(1+rng.Intn(7), 0)
		agents[i].Demand = rng.Range(20, 900/float64(n))
		d += agents[i].Demand
	}
	return m, ctl, agents, d
}

// stepUpRounds is how many rounds after a rung's base price the cluster
// agent steps up from supply s under total demand d > s. Summed over the
// core's tasks, Eq. 1 with every task observing its purchase reads
// Σb' = Σb + (d−s)·P, and P = Σb/s, so the price grows by the factor d/s
// a round and first reaches (1+δ)·base after ⌈ln(1+δ)/ln(d/s)⌉ rounds.
func stepUpRounds(d, s float64) int {
	return int(math.Ceil(math.Log1p(convergenceTol) / math.Log(d/s)))
}

// convergenceHorizon is the round by which Eq. 1 says a market with total
// demand d has converged. The first round sets the base price, and each
// rung below d costs its stepUpRounds plus the frozen observation round
// after the step, which sets the next rung's base. The same update makes
// every bid proportional to its task's demand, so a round later every
// task on a rung s ≥ d is served and the still window runs.
func convergenceHorizon(d float64) int {
	h := 1 + stillRounds
	for _, s := range convergenceLadder {
		if s >= d-1e-9 { // served within TaskAgent.Satisfied's tolerance
			break
		}
		h += stepUpRounds(d, s) + 1
	}
	return h
}

// Property (§3.2.4 scenario 1): for any demand vector satisfiable somewhere
// on the ladder, the market converges to a stable state — no V-F changes,
// all demands met — within the horizon Eq. 1 implies for it. Demands a
// fraction of a PU above a rung inflate the price by a factor barely above
// one per round, so that horizon grows without bound as a demand nears a
// rung (TestMarketStepUpRoundFollowsEq1); no fixed horizon fits them all.
func TestMarketConvergenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m, ctl, agents, d := convergenceMarket(seed)
		still := 0
		level := ctl.Level()
		for round, horizon := 0, convergenceHorizon(d); round < horizon; round++ {
			m.StepOnce()
			for _, a := range agents {
				a.Observed = a.Purchased()
			}
			sat := true
			for _, a := range agents {
				if !a.Satisfied() {
					sat = false
					break
				}
			}
			if ctl.Level() == level && sat {
				still++
				if still >= stillRounds {
					return true
				}
			} else {
				still = 0
				level = ctl.Level()
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestMarketStepUpRoundFollowsEq1 pins a vector the property once drew
// from the clock and failed under a fixed 3,000-round horizon: one task
// demanding 400.0046 PU against the 400 PU rung. Eq. 1 inflates the price
// by d/s = 1 + 1.15·10⁻⁵ a round there, so the cluster agent steps up to
// 500 PU exactly stepUpRounds(d, 400) ≈ 15,821 rounds after the base round
// that follows the step onto 400 PU.
func TestMarketStepUpRoundFollowsEq1(t *testing.T) {
	m, ctl, agents, d := convergenceMarket(0xa72ea52852311788)
	if len(agents) != 1 || d <= 400 || d > 400.01 {
		t.Fatalf("seed draws %d tasks demanding %v PU, want one just above 400", len(agents), d)
	}
	at400 := 0
	for round := 1; round <= convergenceHorizon(d); round++ {
		m.StepOnce()
		agents[0].Observed = agents[0].Purchased()
		switch ctl.SupplyPU() {
		case 400:
			if at400 == 0 {
				at400 = round
			}
		case 500:
			if want := at400 + 1 + stepUpRounds(d, 400); round != want {
				t.Fatalf("stepped up to 500 PU at round %d, Eq. 1 predicts %d", round, want)
			}
			return
		}
	}
	t.Fatal("never stepped up past 400 PU within the horizon")
}

// Property: the hierarchical allowance distribution conserves money — task
// allowances sum to the global allowance (within float error) whenever all
// clusters hold tasks — and respects priorities within a core.
func TestAllowanceConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		c0 := NewLadderControl([]float64{500, 1000}, []float64{1, 2})
		c1 := NewLadderControl([]float64{400, 800}, []float64{0.5, 1})
		m := NewMarket(Config{InitialAllowance: 100, InitialBid: 1},
			[]ClusterControl{c0, c1}, []int{2, 2})
		var agents []*TaskAgent
		for coreID := 0; coreID < 4; coreID++ {
			for i := 0; i < 1+rng.Intn(3); i++ {
				a := m.AddTask(1+rng.Intn(7), coreID)
				a.Demand = rng.Range(10, 400)
				agents = append(agents, a)
			}
		}
		m.StepOnce()
		var sum float64
		for _, a := range agents {
			sum += a.Allowance()
		}
		if math.Abs(sum-m.Allowance()) > 1e-6*m.Allowance() {
			return false
		}
		// Priority monotonicity within each core: higher priority never
		// receives a smaller allowance.
		for coreID := 0; coreID < 4; coreID++ {
			_, core := m.CoreByID(coreID)
			for _, x := range core.Tasks {
				for _, y := range core.Tasks {
					if x.Priority > y.Priority && x.Allowance() < y.Allowance()-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: bids always respect the paper's constraint
// b_min ≤ b_t ≤ a_t + m_t after every round, for any demand schedule.
func TestBidBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		cfg := Config{InitialAllowance: 20, InitialBid: 1, MinBid: 0.01, SavingsCap: 3}
		ctl := NewLadderControl([]float64{300, 600}, []float64{1, 2})
		m := NewMarket(cfg, []ClusterControl{ctl}, []int{1})
		a := m.AddTask(2, 0)
		b := m.AddTask(1, 0)
		agents := []*TaskAgent{a, b}
		for round := 0; round < 100; round++ {
			if rng.Intn(10) == 0 {
				a.Demand = rng.Range(0, 800)
				b.Demand = rng.Range(0, 800)
			}
			savBefore := []float64{a.Savings(), b.Savings()}
			frozen := m.Cluster(0).Frozen()
			m.StepOnce()
			for i, ag := range agents {
				if ag.Bid() < cfg.MinBid-1e-12 {
					return false
				}
				// The bid revised this round is capped by this round's
				// allowance plus the savings carried into the round (frozen
				// rounds keep the previous bid, whose cap used older values).
				if !frozen && ag.Bid() > ag.Allowance()+savBefore[i]+1e-9 {
					return false
				}
				if ag.Savings() < -1e-12 {
					return false
				}
				if ag.Savings() > cfg.SavingsCap*ag.Allowance()+1e-9 {
					return false
				}
				ag.Observed = ag.Purchased()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

package lbt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/core"
	"pricepower/internal/sim"
)

// randomMarket builds a market with nClusters clusters of nCores cores and
// random tasks/demands, mirroring the Table 7 setup.
func randomMarket(rng *sim.Rand, nClusters, nCores int) (*core.Market, Estimator, []*core.TaskAgent) {
	return randomMarketWith(rng, core.Config{InitialAllowance: 100}, nClusters, nCores)
}

// randomMarketWith is randomMarket under the given market configuration.
func randomMarketWith(rng *sim.Rand, cfg core.Config, nClusters, nCores int) (*core.Market, Estimator, []*core.TaskAgent) {
	controls := make([]core.ClusterControl, nClusters)
	coresPer := make([]int, nClusters)
	for i := range controls {
		maxS := rng.Range(400, 2000)
		controls[i] = core.NewLadderControl(
			[]float64{maxS / 4, maxS / 2, 3 * maxS / 4, maxS},
			[]float64{0.5, 1, 2, 4})
		coresPer[i] = nCores
	}
	m := core.NewMarket(cfg, controls, coresPer)
	demands := make(map[int][]float64)
	var agents []*core.TaskAgent
	for coreID := 0; coreID < nClusters*nCores; coreID++ {
		for i := 0; i < 1+rng.Intn(3); i++ {
			a := m.AddTask(1+rng.Intn(7), coreID)
			ds := make([]float64, nClusters)
			for k := range ds {
				ds[k] = rng.Range(10, 600)
			}
			demands[a.ID] = ds
			agents = append(agents, a)
		}
	}
	est := EstimatorFunc(func(a *core.TaskAgent, cluster int) float64 {
		return demands[a.ID][cluster]
	})
	return m, est, agents
}

// ratiosByAgent keys a plan's per-agent ratios by agent.
func ratiosByAgent(pl *plan, pairs []ratioPair) map[*core.TaskAgent]float64 {
	out := make(map[*core.TaskAgent]float64, len(pairs))
	for _, a := range pairs {
		out[pl.agents[a.k]] = a.r
	}
	return out
}

// refVerdict is the map-based reference for candEval's verdicts: perf(M′) ≥
// perf(M) over every task both mappings rate, and the perf(M′) > perf(M)
// witness with its gain.
func refVerdict(oldR, newR map[*core.TaskAgent]float64) (perfOK bool, ben *core.TaskAgent, gain float64) {
	hurt := func(o, n float64) bool {
		return !(n >= satisfiedRatio && o >= satisfiedRatio) && n < o-ratioSlack
	}
	perfOK = true
	for t, o := range oldR {
		n, ok := newR[t]
		if !ok {
			continue
		}
		if hurt(o, n) {
			perfOK = false
		}
		if o >= satisfiedRatio || n <= o+minGain {
			continue
		}
		if ben == nil || t.Priority > ben.Priority ||
			(t.Priority == ben.Priority && (n-o > gain || (n-o == gain && t.ID < ben.ID))) {
			ben, gain = t, n-o
		}
	}
	if ben == nil {
		return perfOK, nil, 0
	}
	for t, o := range oldR {
		if n, ok := newR[t]; ok && t.Priority > ben.Priority && hurt(o, n) {
			return perfOK, nil, 0
		}
	}
	return perfOK, ben, gain
}

// Property: the candidate evaluation (evalMove) of a single move of an
// arbitrary agent to an arbitrary core agrees with a fresh plan of the
// market with that move actually applied — aggregates, every affected
// task's ratio, and the two branches' verdicts. Half the markets carry a
// TDP budget, where candidates are re-evaluated chip-wide under the cap on
// the mapping regrouped by agent ID, exactly as the fresh plan groups it,
// so there the two must agree bit for bit. The others take the incremental
// per-cluster patching that keeps the Table 7 sweep fast; it appends the
// mover to its new core, so sums may differ in the last bits.
func TestIncrementalEvalMatchesFull(t *testing.T) {
	tdpSeen := 0
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		cfg := core.Config{InitialAllowance: 100}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
		if rng.Intn(2) == 0 {
			cfg.Wtdp = rng.Range(1, 12)
			tdpSeen++
			near = func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		}
		m, est, _ := randomMarketWith(rng, cfg, 2+rng.Intn(3), 1+rng.Intn(3))
		p := NewPlanner(m, est)
		pl, sc := p.newPlan()
		// Plans reuse their planner's tables, so the reference plans come
		// from a second planner while pl stays live.
		ref := NewPlanner(m, est)
		baseR := make(map[*core.TaskAgent]float64, len(pl.agents))
		for k, a := range pl.agents {
			baseR[a] = pl.ratio[k]
		}
		k := 0

		for trial := 0; trial < 20; trial++ {
			// Half the trials move the previous trial's agent again, so
			// consecutive candidates share a mover as the planner's do.
			if trial%2 == 0 {
				k = rng.Intn(len(pl.agents))
			}
			agent := pl.agents[k]
			from := agent.Core().ID
			toCore := rng.Intn(len(pl.cores))
			if toCore == from {
				continue
			}
			mv := pl.move(k, from, toCore)
			inc := pl.evalMove(sc, &mv)
			incR := ratiosByAgent(pl, sc.after)

			m.MoveTask(agent, toCore)
			full, _ := ref.newPlan()
			m.MoveTask(agent, from)
			fullR := make(map[*core.TaskAgent]float64, len(full.agents))
			for fk, a := range full.agents {
				fullR[a] = full.ratio[fk]
			}

			if !near(inc.spend, full.res.spend) {
				t.Logf("seed %v: spend %v != %v", seed, inc.spend, full.res.spend)
				return false
			}
			if inc.unsat != full.res.unsat {
				t.Logf("seed %v: unsat %d != %d", seed, inc.unsat, full.res.unsat)
				return false
			}
			if !near(inc.minRatio, full.res.minRatio) {
				t.Logf("seed %v: minRatio %v != %v", seed, inc.minRatio, full.res.minRatio)
				return false
			}
			// Every affected ratio matches, the mover's included.
			if _, ok := incR[agent]; !ok {
				t.Logf("seed %v: mover %d missing from the affected ratios", seed, agent.ID)
				return false
			}
			for tk, r := range incR {
				if !near(r, fullR[tk]) {
					t.Logf("seed %v: ratio of task %d %v != %v", seed, tk.ID, r, fullR[tk])
					return false
				}
			}
			perfOK, ben, gain := refVerdict(baseR, fullR)
			if inc.perfOK != perfOK || inc.ben != ben || !near(inc.gain, gain) {
				t.Logf("seed %v: verdict perfOK=%v ben=%v gain=%v, want %v %v %v",
					seed, inc.perfOK, inc.ben, inc.gain, perfOK, ben, gain)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if tdpSeen == 0 {
		t.Error("no TDP market drawn; the TDP path went untested")
	}
}

// planAllocsBound caps a plan's allocations on the markets below.
// The measured count is 1 when the plan proposes a move: the caller's copy
// of it. The plan's tables, its scratch and the per-cluster proposal slots
// are the planner's own, reused from plan to plan. The markets offer a few
// hundred candidates, so one allocation per candidate — or per cluster —
// would exceed the bound many times over; the headroom of 2 absorbs
// runtime changes, not per-candidate work.
const planAllocsBound = 3

// Plans allocate per plan, never per candidate: PlanMigrate, PlanBalance,
// and a round that plans both kinds from one plan. (AllocsPerRun runs at
// GOMAXPROCS 1, so this is the single-goroutine path; the fan-out adds its
// goroutines, and one scratch per extra goroutine the first time.)
func TestPlanMigrateAllocations(t *testing.T) {
	m, est, _ := randomMarket(sim.NewRand(7), 16, 2)
	p := NewPlanner(m, est)
	// On this market a mover costs so much on any other cluster that no
	// migration wins, so a round falls through to load balancing.
	rm, rest, _ := randomMarket(sim.NewRand(8), 16, 2)
	round := NewPlanner(rm, EstimatorFunc(func(a *core.TaskAgent, c int) float64 {
		if v, _ := rm.CoreByID(a.Core().ID); v.ID != c {
			return 1e6
		}
		return rest.DemandOn(a, c)
	}))
	if round.PlanMigrate() != nil || round.PlanBalance() == nil {
		t.Fatal("the round market does not plan both kinds")
	}
	for _, c := range []struct {
		name string
		plan func() *Move
	}{
		{"PlanMigrate", p.PlanMigrate},
		{"PlanBalance", p.PlanBalance},
		{"PlanRound", func() *Move { return round.PlanRound(true, true) }},
	} {
		if c.plan() == nil {
			t.Fatalf("%s proposes nothing; the guard would not cover a full plan", c.name)
		}
		if got := testing.AllocsPerRun(20, func() { c.plan() }); got > planAllocsBound {
			t.Errorf("%s allocates %v times per plan, bound %d", c.name, got, planAllocsBound)
		}
	}
}

package lbt

import (
	"math"
	"runtime"
	"sync"

	"pricepower/internal/core"
)

// PlanMigrate proposes at most one cross-cluster task migration following
// Figure 3, or nil when no candidate improves on the current mapping. The
// returned move is the caller's own copy.
func (p *Planner) PlanMigrate() *Move {
	return p.PlanRound(true, false)
}

// PlanBalance proposes at most one intra-cluster load-balancing movement,
// or nil when no candidate improves on the current mapping.
func (p *Planner) PlanBalance() *Move {
	return p.PlanRound(false, true)
}

// PlanRound plans one bid round's movement: when migrate is set, the move
// PlanMigrate would propose; failing that, when balance is set, the move
// PlanBalance would propose. Both kinds read one snapshot of the market,
// so a round whose migration and balancing cadences coincide builds one
// plan, not two.
func (p *Planner) PlanRound(migrate, balance bool) *Move {
	if !migrate && !balance {
		return nil
	}
	pl, sc := p.newPlan()
	if len(pl.agents) == 0 {
		return nil
	}
	if migrate {
		if mv := pl.chipWide(sc, Migrate); mv != nil || !balance {
			return mv
		}
	}
	return pl.chipWide(sc, Balance)
}

// PlanForCluster runs the constrained-core planning of a single cluster (the
// unit of work the paper's Table 7 measures: one constrained core evaluating
// its tasks against every other cluster).
func (p *Planner) PlanForCluster(cluster int, kind Kind) *Move {
	pl, sc := p.newPlan()
	mv, _ := pl.planCluster(sc, pl.clusters[cluster], kind)
	if mv.Agent == nil {
		return nil
	}
	return &mv
}

// planFanOutMin is the cluster count from which chip-wide planning spreads
// the clusters over GOMAXPROCS goroutines: the fan-out pays once a plan's
// work outweighs starting and joining them. On two CPUs
// (BenchmarkChipWidePlan shapes, cut-off lowered for the measurement,
// medians of 5, -cpu 2 against -cpu 1), 8 cores × 8 tasks per cluster ran 1.3× slower at 8 clusters and
// gained 1.07× at 16, 1.14× at 32 and 1.43× at 64 (BenchmarkChipWidePlan:
// 7.7 → 5.4 ms); 4 cores × 2 tasks ran 1.25× slower at 8 and at 16 clusters
// and gained 1.08× at 32. Smaller markets, such as the paper's two-cluster
// TC2 boards, plan on one goroutine.
const planFanOutMin = 32

// chipWide evaluates all clusters' constrained cores for movements of one
// kind and approves the single best one chip-wide. The plan's inputs are
// built once, before any candidate is evaluated, and only read afterwards;
// each planning goroutine owns its scratch and writes only its clusters'
// result slots. So on many-cluster markets (the paper's "the task agents
// perform performance and savings estimations in parallel, which enables
// the computational overhead to be distributed across the entire chip")
// the clusters plan concurrently; the chip agent's final selection reduces
// their proposals in deterministic cluster order, so the result does not
// depend on GOMAXPROCS.
func (pl *plan) chipWide(sc *scratch, kind Kind) *Move {
	p, clusters := pl.Planner, pl.clusters
	p.moves, p.evals = resize(p.moves, len(clusters)), resize(p.evals, len(clusters))
	moves, evals := p.moves, p.evals
	w := min(runtime.GOMAXPROCS(0), len(clusters))
	if w > 1 && len(clusters) >= planFanOutMin {
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 1; k < w; k++ {
			sc := pl.scratch(k) // sized here: the goroutines only read pl
			go func() {
				defer wg.Done()
				pl.planStride(sc, kind, k, w)
			}()
		}
		pl.planStride(sc, kind, 0, w)
		wg.Wait()
	} else {
		pl.planStride(sc, kind, 0, 1)
	}

	best := -1
	for i := range moves {
		if moves[i].Agent == nil {
			continue
		}
		if best < 0 || pl.better(evals[i], evals[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	mv := moves[best]
	return &mv
}

// planStride plans clusters first, first+step, … into the planner's
// per-cluster proposal slots.
func (pl *plan) planStride(sc *scratch, kind Kind, first, step int) {
	for i := first; i < len(pl.clusters); i += step {
		pl.moves[i], pl.evals[i] = pl.planCluster(sc, pl.clusters[i], kind)
	}
}

// planCluster proposes the best movement out of cluster v's constrained
// core, together with its evaluation; a zero Move (nil Agent) proposes
// nothing.
func (pl *plan) planCluster(sc *scratch, v *core.ClusterAgent, kind Kind) (Move, candEval) {
	cc := v.ConstrainedCore()
	if cc == nil {
		return Move{}, candEval{}
	}
	// Figure 3 branch: if every task meets its demand in steady state, aim
	// for power efficiency; otherwise look for performance.
	if pl.res.allSat {
		return pl.planPower(sc, v, cc, kind)
	}
	return pl.planPerformance(sc, v, cc, kind)
}

// eachCandidate evaluates every eligible task of the constrained core cc
// against every target core, in task-then-target order, and hands each
// evaluation to visit.
func (pl *plan) eachCandidate(sc *scratch, v *core.ClusterAgent, cc *core.CoreAgent, kind Kind, visit func(t *core.TaskAgent, target int, ev candEval)) {
	targets := pl.targets(sc, v, cc, kind)
	for _, t := range cc.Tasks {
		if !pl.eligible(t) {
			continue
		}
		k := pl.indexOf(t, cc.ID)
		for _, target := range targets {
			mv := pl.move(k, cc.ID, target)
			visit(t, target, pl.evalMove(sc, &mv))
		}
	}
}

// planPower: all demands met — pick the movement with the lowest estimated
// spend among those that keep perf (no task's ratio degrades).
func (pl *plan) planPower(sc *scratch, v *core.ClusterAgent, cc *core.CoreAgent, kind Kind) (Move, candEval) {
	var best Move
	var bestEval candEval
	bestSpend := pl.res.spend * (1 - pl.MinSpendGain)
	if pl.MinSpendGain == 0 {
		bestSpend = pl.res.spend - eps
	}
	pl.eachCandidate(sc, v, cc, kind, func(t *core.TaskAgent, target int, ev candEval) {
		if !ev.perfOK || ev.spend >= bestSpend {
			return
		}
		bestSpend = ev.spend
		bestEval = ev
		best = Move{
			Agent: t, FromCore: cc.ID, ToCore: target, Kind: kind,
			SpendBefore: pl.res.spend, SpendAfter: ev.spend,
			Reason: "power-efficiency",
		}
	})
	return best, bestEval
}

// planPerformance: some demands unmet — find the movement out of this
// constrained core whose resulting mapping is best under the paper's
// perf(M′) > perf(M) order: some task's supply-demand ratio improves while
// no task of higher priority than the beneficiary degrades. The mover need
// not be the beneficiary: relocating a satisfied task can make room for a
// starving core-mate. Candidates must not increase the number of missing
// tasks (cycle breaking) nor deepen the worst miss (maximin floor), and
// are ranked by the beneficiary's priority, then its ratio gain, then spend
// (§3.3: equal performance → better spending).
func (pl *plan) planPerformance(sc *scratch, v *core.ClusterAgent, cc *core.CoreAgent, kind Kind) (Move, candEval) {
	var best Move
	var bestEval candEval
	bestUnsat := math.MaxInt32
	bestPrio := math.MinInt32
	bestGain := 0.0
	bestSpend := math.Inf(1)
	pl.eachCandidate(sc, v, cc, kind, func(t *core.TaskAgent, target int, ev candEval) {
		if ev.unsat > pl.res.unsat {
			return // never increase the number of missing tasks
		}
		if ev.unsat == pl.res.unsat && ev.minRatio < pl.res.minRatio-ratioSlack {
			return // maximin floor: don't deepen the worst miss
		}
		ben, gain := ev.ben, ev.gain
		if ben == nil {
			return
		}
		better := false
		switch {
		case ev.unsat < bestUnsat:
			better = true
		case ev.unsat == bestUnsat && ben.Priority > bestPrio:
			better = true
		case ev.unsat == bestUnsat && ben.Priority == bestPrio && gain > bestGain+1e-9:
			better = true
		case ev.unsat == bestUnsat && ben.Priority == bestPrio &&
			math.Abs(gain-bestGain) <= 1e-9 && ev.spend < bestSpend-eps:
			better = true
		}
		if better {
			bestUnsat, bestPrio, bestGain, bestSpend = ev.unsat, ben.Priority, gain, ev.spend
			bestEval = ev
			best = Move{
				Agent: t, FromCore: cc.ID, ToCore: target, Kind: kind,
				SpendBefore: pl.res.spend, SpendAfter: ev.spend,
				Reason: "performance",
			}
		}
	})
	return best, bestEval
}

// targets lists the candidate destination cores for a task leaving
// cluster v's constrained core cc: for load balancing, the most
// over-supplied unconstrained core of v itself; for migration, that core in
// every other cluster.
func (pl *plan) targets(sc *scratch, v *core.ClusterAgent, cc *core.CoreAgent, kind Kind) []int {
	out := sc.targets[:0]
	if kind == Balance {
		if c := bestTargetIn(v, cc); c >= 0 {
			out = append(out, c)
		}
	} else {
		for ci, c := range pl.migrateTo {
			if ci != v.ID && c >= 0 {
				out = append(out, c)
			}
		}
	}
	sc.targets = out
	return out
}

// bestTargetIn returns the most over-supplied unconstrained core of cluster
// v, excluding core `skip`; -1 if the cluster offers no target. A cluster
// whose every core is constrained (e.g. a single-core cluster) offers its
// least-loaded core, so single-core clusters remain reachable.
func bestTargetIn(v *core.ClusterAgent, skip *core.CoreAgent) int {
	constrained := v.ConstrainedCore()
	supply := v.Control.SupplyPU()
	best, bestOver := -1, math.Inf(-1)
	for _, c := range v.Cores {
		if c == skip {
			continue
		}
		if c == constrained && len(v.Cores) > 1 {
			continue
		}
		if over := c.Oversupply(supply); over > bestOver {
			best, bestOver = c.ID, over
		}
	}
	return best
}

// better ranks two candidate evaluations for the chip agent's final
// selection across clusters. In performance mode both carry a beneficiary:
// planPerformance proposes no move without one.
func (pl *plan) better(ev, best candEval) bool {
	if pl.res.allSat {
		return ev.spend < best.spend-eps
	}
	// Performance mode: fewest missing tasks first, then the
	// higher-priority beneficiary, then the larger ratio gain, then spend.
	if ev.unsat != best.unsat {
		return ev.unsat < best.unsat
	}
	if ev.ben.Priority != best.ben.Priority {
		return ev.ben.Priority > best.ben.Priority
	}
	if math.Abs(ev.gain-best.gain) > 1e-9 {
		return ev.gain > best.gain
	}
	return ev.spend < best.spend-eps
}

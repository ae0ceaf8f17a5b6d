package lbt

import (
	"math"
	"runtime"
	"sync"

	"pricepower/internal/core"
)

// PlanMigrate proposes at most one cross-cluster task migration following
// Figure 3, or nil when no candidate improves on the current mapping.
func (p *Planner) PlanMigrate() *Move {
	return p.plan(Migrate)
}

// PlanBalance proposes at most one intra-cluster load-balancing movement,
// or nil when no candidate improves on the current mapping.
func (p *Planner) PlanBalance() *Move {
	return p.plan(Balance)
}

// PlanForCluster runs the constrained-core planning of a single cluster (the
// unit of work the paper's Table 7 measures: one constrained core evaluating
// its tasks against every other cluster).
func (p *Planner) PlanForCluster(cluster int, kind Kind) *Move {
	base := p.currentAssignment()
	baseChip := p.evalChip(base)
	mv, _ := p.planCluster(p.Market.Clusters[cluster], kind, base, baseChip)
	return mv
}

// planFanOutMin is the cluster count from which chip-wide planning spreads
// the clusters over GOMAXPROCS goroutines. The value is the round pool's
// former auto-enable threshold, kept as is rather than derived from a
// measured crossover: on two CPUs, fanned-out plans ran ≈1.6× faster than
// on one at 16, 32 and 64 clusters and ≈1.25× at 8. Smaller markets, such
// as the paper's two-cluster TC2 boards, plan on one goroutine.
const planFanOutMin = 16

// plan evaluates all clusters' constrained cores and approves the single
// best movement chip-wide. Per-cluster planning reads only the shared
// base evaluation and writes its own slot, so on many-cluster markets (the
// paper's "the task agents perform performance and savings estimations in
// parallel, which enables the computational overhead to be distributed
// across the entire chip") the clusters plan concurrently; the chip
// agent's final selection reduces their proposals in deterministic
// cluster order, so the result does not depend on GOMAXPROCS.
func (p *Planner) plan(kind Kind) *Move {
	base := p.currentAssignment()
	if len(base) == 0 {
		return nil
	}
	baseChip := p.evalChip(base)

	clusters := p.Market.Clusters
	moves := make([]*Move, len(clusters))
	evals := make([]candEval, len(clusters))
	planStride := func(first, step int) {
		for i := first; i < len(clusters); i += step {
			moves[i], evals[i] = p.planCluster(clusters[i], kind, base, baseChip)
		}
	}
	w := min(runtime.GOMAXPROCS(0), len(clusters))
	if w > 1 && len(clusters) >= planFanOutMin {
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 1; k < w; k++ {
			go func() {
				defer wg.Done()
				planStride(k, w)
			}()
		}
		planStride(0, w)
		wg.Wait()
	} else {
		planStride(0, 1)
	}

	var best *Move
	var bestEval candEval
	for i := range moves {
		if moves[i] == nil {
			continue
		}
		if best == nil || p.better(baseChip, evals[i], bestEval) {
			best, bestEval = moves[i], evals[i]
		}
	}
	return best
}

// planCluster proposes the best movement out of cluster v's constrained
// core, together with its incremental evaluation.
func (p *Planner) planCluster(v *core.ClusterAgent, kind Kind, base assignment, baseChip chipEval) (*Move, candEval) {
	cc := v.ConstrainedCore()
	if cc == nil {
		return nil, candEval{}
	}
	// Figure 3 branch: if every task meets its demand in steady state, aim
	// for power efficiency; otherwise look for performance.
	if baseChip.res.allSat {
		return p.planPower(v, cc, kind, base, baseChip)
	}
	return p.planPerformance(v, cc, kind, base, baseChip)
}

// planPower: all demands met — pick the movement with the lowest estimated
// spend among those that keep perf (no task's ratio degrades).
func (p *Planner) planPower(v *core.ClusterAgent, cc *core.CoreAgent, kind Kind, base assignment, baseChip chipEval) (*Move, candEval) {
	var best *Move
	var bestEval candEval
	bestSpend := baseChip.res.spend * (1 - p.MinSpendGain)
	if p.MinSpendGain == 0 {
		bestSpend = baseChip.res.spend - eps
	}
	targets := p.targets(v, cc, kind)
	for _, t := range cc.Tasks {
		if !p.eligible(t) {
			continue
		}
		for _, target := range targets {
			ev := p.evalMove(baseChip, base, t, target)
			if !perfNotWorse(ev.newAffected, ev.oldAffected) {
				continue
			}
			if ev.spend < bestSpend {
				bestSpend = ev.spend
				bestEval = ev
				best = &Move{
					Agent: t, FromCore: cc.ID, ToCore: target, Kind: kind,
					SpendBefore: baseChip.res.spend, SpendAfter: ev.spend,
					Reason: "power-efficiency",
				}
			}
		}
	}
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
func (p *Planner) planPerformance(v *core.ClusterAgent, cc *core.CoreAgent, kind Kind, base assignment, baseChip chipEval) (*Move, candEval) {
	var best *Move
	var bestEval candEval
	bestUnsat := math.MaxInt32
	bestPrio := math.MinInt32
	bestGain := 0.0
	bestSpend := math.Inf(1)
	targets := p.targets(v, cc, kind)
	for _, t := range cc.Tasks {
		if !p.eligible(t) {
			continue
		}
		for _, target := range targets {
			ev := p.evalMove(baseChip, base, t, target)
			if ev.unsat > baseChip.res.unsat {
				continue // never increase the number of missing tasks
			}
			if ev.unsat == baseChip.res.unsat && ev.minRatio < baseChip.res.minRatio-ratioSlack {
				continue // maximin floor: don't deepen the worst miss
			}
			ben, gain := beneficiary(ev.newAffected, ev.oldAffected)
			if ben == nil {
				continue
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
				best = &Move{
					Agent: t, FromCore: cc.ID, ToCore: target, Kind: kind,
					SpendBefore: baseChip.res.spend, SpendAfter: ev.spend,
					Reason: "performance",
				}
			}
		}
	}
	return best, bestEval
}

// beneficiary finds the highest-priority task whose ratio improves from old
// to new while no task of strictly higher priority degrades — the witness
// of the paper's perf(M′) > perf(M) condition. It returns nil when the
// condition fails. Only tasks in the affected clusters need inspecting:
// every other ratio is unchanged by a single move.
func beneficiary(newR, oldR map[*core.TaskAgent]float64) (*core.TaskAgent, float64) {
	var ben *core.TaskAgent
	var gain float64
	for t, o := range oldR {
		n, ok := newR[t]
		if !ok {
			continue
		}
		// Only an unsatisfied task that meaningfully improves counts as a
		// beneficiary — already-in-range tasks are not worth migrations.
		if o >= satisfiedRatio || n <= o+minGain {
			continue
		}
		// Ties broken by gain, then agent ID, so the witness — and the
		// gain the candidate ranking sees — never depends on map order.
		if ben == nil || t.Priority > ben.Priority ||
			(t.Priority == ben.Priority && (n-o > gain ||
				(n-o == gain && t.ID < ben.ID))) {
			ben, gain = t, n-o
		}
	}
	if ben == nil {
		return nil, 0
	}
	if !noHigherPriorityHurt(newR, oldR, ben.Priority) {
		return nil, 0
	}
	return ben, gain
}

// targets lists the candidate destination cores for a task leaving
// cluster v's constrained core cc: for load balancing, the most
// over-supplied unconstrained core of v itself; for migration, that core in
// every other cluster.
func (p *Planner) targets(v *core.ClusterAgent, cc *core.CoreAgent, kind Kind) []int {
	var out []int
	if kind == Balance {
		if c := p.bestTargetIn(v, cc); c >= 0 {
			out = append(out, c)
		}
		return out
	}
	for _, other := range p.Market.Clusters {
		if other == v {
			continue
		}
		if c := p.bestTargetIn(other, nil); c >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// bestTargetIn returns the most over-supplied unconstrained core of cluster
// v, excluding core `skip`; -1 if the cluster offers no target. A cluster
// whose every core is constrained (e.g. a single-core cluster) offers its
// least-loaded core, so single-core clusters remain reachable.
func (p *Planner) bestTargetIn(v *core.ClusterAgent, skip *core.CoreAgent) int {
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

// withMove returns a copy of the assignment with the move applied.
func (p *Planner) withMove(base assignment, mv *Move) assignment {
	out := make(assignment, len(base))
	for t, c := range base {
		out[t] = c
	}
	out[mv.Agent] = mv.ToCore
	return out
}

// better ranks two candidate evaluations for the chip agent's final
// selection across clusters.
func (p *Planner) better(baseChip chipEval, ev, best candEval) bool {
	if baseChip.res.allSat {
		return ev.spend < best.spend-eps
	}
	// Performance mode: fewest missing tasks first, then the
	// higher-priority beneficiary, then the larger ratio gain, then spend.
	if ev.unsat != best.unsat {
		return ev.unsat < best.unsat
	}
	benNew, gainNew := beneficiary(ev.newAffected, ev.oldAffected)
	benOld, gainOld := beneficiary(best.newAffected, best.oldAffected)
	if benNew == nil {
		return false
	}
	if benOld == nil {
		return true
	}
	if benNew.Priority != benOld.Priority {
		return benNew.Priority > benOld.Priority
	}
	if math.Abs(gainNew-gainOld) > 1e-9 {
		return gainNew > gainOld
	}
	return ev.spend < best.spend-eps
}

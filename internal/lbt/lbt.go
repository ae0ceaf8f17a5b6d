// Package lbt implements the paper's Load-Balancing and Task-migration
// module (§3.3): finding a task-to-core mapping that is better than the
// current one in performance and/or power, one task movement at a time.
//
// Mappings are compared with two metrics:
//
//   - perf(M): a priority-lexicographic comparison of the tasks'
//     supply/demand ratios — M′ beats M if some task's ratio improves while
//     no higher-priority task's ratio degrades;
//   - spend(M): the aggregate steady-state spending Σ b_t, whose reduction
//     translates to lower V-F levels and hence lower power.
//
// Candidate generation follows the paper's overhead-reducing heuristic: only
// tasks on each cluster's *constrained* core contemplate moving, and the
// only target considered per cluster is its most over-supplied
// unconstrained core. Load balancing targets a core in the same cluster;
// task migration targets cores in other clusters. One movement is approved
// per invocation, and the module is disabled in the emergency state (the
// supply-demand module owns that regime).
//
// Steady-state estimation (§3.3): the demand of a task on another cluster
// comes from off-line profiles through the Estimator interface; supply is
// demand rounded up to the next V-F rung unless the ladder tops out, in
// which case supply is split across the core's tasks in proportion to
// priority. The paper estimates spend as Σ steady-state bids with prices
// extrapolated by Eq. 2 (P_{Z+1} = P_Z·(1+δ), exported here as
// PriceAtLevel); because a powered-down or empty cluster emits no price
// signal at all, our estimator instead prices a mapping directly in the
// units the market's inverse-to-power allowance feedback makes prices track
// at equilibrium: the cluster's estimated power (idle floor plus
// utilization-scaled dynamic power at the chosen rung). This keeps spend(M)
// comparisons meaningful across heterogeneous clusters; see DESIGN.md for
// the substitution note.
package lbt

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pricepower/internal/core"
)

// Estimator supplies profiled steady-state demand of a task agent on a
// given cluster (the paper's off-line profiling table, §5.2).
type Estimator interface {
	DemandOn(agent *core.TaskAgent, cluster int) float64
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(agent *core.TaskAgent, cluster int) float64

// DemandOn calls f.
func (f EstimatorFunc) DemandOn(a *core.TaskAgent, cluster int) float64 { return f(a, cluster) }

// Kind distinguishes the two movement flavours.
type Kind int

const (
	// Balance moves a task to another core in the same cluster.
	Balance Kind = iota
	// Migrate moves a task to a core in another cluster.
	Migrate
)

// String names the kind.
func (k Kind) String() string {
	if k == Balance {
		return "balance"
	}
	return "migrate"
}

// Move is one approved task movement.
type Move struct {
	Agent    *core.TaskAgent
	FromCore int
	ToCore   int
	Kind     Kind
	// SpendBefore/SpendAfter are the estimated steady-state aggregate
	// spends of the old and new mappings.
	SpendBefore, SpendAfter float64
	// Reason records which Figure-3 branch proposed the move.
	Reason string
}

// String renders the move for logs.
func (m *Move) String() string {
	return fmt.Sprintf("%s task %d: core %d → %d (%s, spend %.4f → %.4f)",
		m.Kind, m.Agent.ID, m.FromCore, m.ToCore, m.Reason, m.SpendBefore, m.SpendAfter)
}

// PriceAtLevel applies Eq. 2 recursively: the estimated price after moving
// `steps` V-F rungs up (positive) or down (negative) from a level priced at
// p, with tolerance δ. The paper's example: PriceAtLevel(10, 0.02, 3) ≈
// 10.612.
func PriceAtLevel(p, delta float64, steps int) float64 {
	for ; steps > 0; steps-- {
		p += p * delta
	}
	for ; steps < 0; steps++ {
		p -= p * delta
	}
	return p
}

// Planner evaluates candidate mappings over a market.
type Planner struct {
	Market *core.Market
	Est    Estimator

	// Eligible optionally filters which task agents may move this
	// invocation (governors use it for per-task migration cooldowns so
	// noisy observations cannot flap a task between clusters). Nil means
	// every task is eligible.
	Eligible func(*core.TaskAgent) bool

	// MinSpendGain is the minimum fractional spend reduction a
	// power-efficiency move must achieve (e.g. 0.03 = 3 %). Movement is not
	// free — cross-cluster migration costs milliseconds — so marginal wins
	// are not worth churn. Zero accepts any strict reduction.
	MinSpendGain float64

	// Storage reused by every plan, regrown only when the market grows:
	// the plan's tables, one scratch per planning goroutine, and the
	// per-cluster proposals. A plan is valid until the next one starts.
	pl        plan
	scratches []*scratch
	moves     []Move
	evals     []candEval
}

// NewPlanner builds a planner for the market with the given profile
// estimator.
func NewPlanner(m *core.Market, est Estimator) *Planner {
	return &Planner{Market: m, Est: est}
}

func (p *Planner) eligible(t *core.TaskAgent) bool {
	return p.Eligible == nil || p.Eligible(t)
}

const eps = 1e-9

// satisfiedRatio is the supply/demand ratio treated as "demand met". The
// demand conversion targets the middle of the reference heart-rate range
// (Table 4), and the range is ±5–10 % wide, so a task at ≥ 96 % of its
// target still sits inside its range; chasing the last few percent with
// multi-millisecond migrations would thrash on observation noise.
const satisfiedRatio = 0.96

// ratioSlack is the tolerated per-task ratio degradation when comparing
// mappings, and minGain the smallest improvement worth acting on.
const (
	ratioSlack = 0.01
	minGain    = 0.02
)

// plan is one planning invocation's inputs, built once and only read while
// candidates are evaluated (concurrently, on many-cluster markets): the
// market's mapping as per-core task slices, every agent's estimated demand
// on its own cluster, the base mapping's evaluation, and each cluster's
// migration target. Agents are addressed by their index k into the
// parallel slices. Core c's tasks are k ∈ [first[c], first[c+1]) in
// ascending agent-ID order, which is the order every order-sensitive float
// sum (core demand, consumed supply, water-filling) sees, so a replay
// evaluates bit-identically.
type plan struct {
	*Planner
	clusters []*core.ClusterAgent
	wtdp     float64

	agents []*core.TaskAgent
	ids    []int     // ids[k] = k: the base mapping's per-core index lists
	prio   []int     // agents[k].Priority
	own    []float64 // agents[k]'s estimated demand on its own cluster
	first  []int     // per global core ID, plus a final end index
	cstart []int     // cluster ci's tasks start at cstart[ci]

	maxCoreTasks int

	evs   []clusterEval // base mapping, per cluster
	cores []coreEval    // base mapping, per global core ID
	ratio []float64     // base mapping's supply/demand ratio of agent k
	res   evalResult
	// lowMins are the three smallest cluster minimum ratios of the base
	// mapping, with their clusters (-1: none).
	lowMins [3]clusterMin

	// migrateTo is each cluster's most over-supplied unconstrained core
	// (-1: none), filled for migration plans.
	migrateTo []int
}

// newPlan snapshots the market into the planner's plan tables and
// evaluates its current mapping. The returned scratch is free for the
// calling goroutine's candidates. The plan and scratch are the planner's
// own storage: the next newPlan overwrites them.
func (p *Planner) newPlan(kind Kind) (*plan, *scratch) {
	clusters := p.Market.Clusters
	pl := &p.pl
	n, nCores := 0, 0
	for _, v := range clusters {
		nCores += len(v.Cores)
		for _, c := range v.Cores {
			n += len(c.Tasks)
		}
	}
	*pl = plan{
		Planner:   p,
		clusters:  clusters,
		wtdp:      p.Market.Config().Wtdp,
		agents:    pl.agents[:0],
		ids:       resize(pl.ids, n),
		prio:      resize(pl.prio, n),
		own:       resize(pl.own, n),
		first:     resize(pl.first, nCores+1),
		cstart:    resize(pl.cstart, len(clusters)+1),
		evs:       resize(pl.evs, len(clusters)),
		cores:     resize(pl.cores, nCores),
		ratio:     resize(pl.ratio, n),
		migrateTo: pl.migrateTo,
	}
	for ci, v := range clusters {
		pl.cstart[ci] = len(pl.agents)
		for _, c := range v.Cores {
			pl.first[c.ID] = len(pl.agents)
			pl.maxCoreTasks = max(pl.maxCoreTasks, len(c.Tasks))
			pl.agents = append(pl.agents, c.Tasks...)
			slices.SortFunc(pl.agents[pl.first[c.ID]:], func(a, b *core.TaskAgent) int {
				return cmp.Compare(a.ID, b.ID)
			})
		}
		for k := pl.cstart[ci]; k < len(pl.agents); k++ {
			pl.ids[k], pl.prio[k] = k, pl.agents[k].Priority
			pl.own[k] = p.Est.DemandOn(pl.agents[k], ci)
		}
	}
	pl.first[nCores], pl.cstart[len(clusters)] = n, n

	sc := pl.scratch(0)
	pl.res = pl.evaluate(sc, nil, pl.evs, pl.cores, pl.ratio)
	pl.lowMins = lowestMins(pl.evs)

	if kind == Migrate {
		pl.migrateTo = resize(pl.migrateTo, len(clusters))
		for ci, v := range clusters {
			pl.migrateTo[ci] = bestTargetIn(v, nil)
		}
	}
	return pl, sc
}

// scratch is one planning goroutine's reusable candidate state.
type scratch struct {
	from, to taskList      // the candidate's source and destination core lists
	cores    []coreEval    // re-evaluated cores, per global core ID
	ratios   []float64     // re-evaluated tasks' ratios
	evs      []clusterEval // whole-mapping re-evaluation, per cluster
	caps     []int         // whole-mapping V-F level caps, per cluster
	after    []ratioPair   // every affected task's ratio under the candidate
	// srcK >= 0: src, srcMin and sc.after[:srcPairs] hold the source side
	// of agent srcK's migration.
	srcK     int
	src      candEval
	srcMin   float64
	srcPairs int
	rem      []int // water-filling work lists
	next     []int
	targets  []int
}

// scratch returns planning goroutine w's scratch, sized so that no
// candidate of this plan grows it.
func (pl *plan) scratch(w int) *scratch {
	for len(pl.scratches) <= w {
		pl.scratches = append(pl.scratches, &scratch{})
	}
	sc := pl.scratches[w]
	m := pl.maxCoreTasks + 1
	*sc = scratch{
		srcK:    -1,
		from:    sc.from.resize(m),
		to:      sc.to.resize(m),
		cores:   resize(sc.cores, len(pl.first)-1),
		ratios:  resize(sc.ratios, len(pl.agents)),
		evs:     resize(sc.evs, len(pl.clusters)),
		caps:    resize(sc.caps, len(pl.clusters)),
		after:   resize(sc.after, len(pl.agents))[:0],
		rem:     resize(sc.rem, m)[:0],
		next:    resize(sc.next, m)[:0],
		targets: resize(sc.targets, len(pl.clusters))[:0],
	}
	return sc
}

// resize returns s with length n, reallocating only when its capacity is
// short. Entries up to n may hold the previous plan's values; every user
// overwrites them before reading.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// taskList is one core's tasks as parallel slices: plan index, estimated
// demand on the core's cluster, priority.
type taskList struct {
	k    []int
	d    []float64
	prio []int
}

// resize returns an empty list with room for n tasks, reusing l's storage.
func (l taskList) resize(n int) taskList {
	return taskList{resize(l.k, n)[:0], resize(l.d, n)[:0], resize(l.prio, n)[:0]}
}

func (l *taskList) reset() { l.k, l.d, l.prio = l.k[:0], l.d[:0], l.prio[:0] }

func (l *taskList) add(k int, d float64, prio int) {
	l.k, l.d, l.prio = append(l.k, k), append(l.d, d), append(l.prio, prio)
}

// candMove is a candidate relocation of agent k from core `from` (cluster
// src) to core `to` (cluster dst); d is k's estimated demand on dst.
type candMove struct {
	k, from, to, src, dst int
	d                     float64
}

// move describes relocating agent k from core `from` to core `to`. The
// mover's demand on another cluster is estimated here, by the goroutine
// planning the move, so cross-cluster estimates stay O(movers × clusters).
func (pl *plan) move(k, from, to int) candMove {
	mv := candMove{k: k, from: from, to: to, src: pl.clusterOf(from), dst: pl.clusterOf(to), d: pl.own[k]}
	if mv.dst != mv.src {
		mv.d = pl.Est.DemandOn(pl.agents[k], mv.dst)
	}
	return mv
}

// indexOf finds agent t's plan index among core c's tasks.
func (pl *plan) indexOf(t *core.TaskAgent, c int) int {
	for k := pl.first[c]; k < pl.first[c+1]; k++ {
		if pl.agents[k] == t {
			return k
		}
	}
	panic(fmt.Sprintf("lbt: task %d is not on core %d", t.ID, c))
}

func (pl *plan) clusterOf(coreID int) int {
	v, _ := pl.Market.CoreByID(coreID)
	return v.ID
}

// setFrom builds the candidate's source core list: the base list without
// the mover.
func (sc *scratch) setFrom(pl *plan, mv *candMove) {
	sc.from.reset()
	for k := pl.first[mv.from]; k < pl.first[mv.from+1]; k++ {
		if k != mv.k {
			sc.from.add(k, pl.own[k], pl.prio[k])
		}
	}
}

// setTo builds the candidate's destination core list: the base list with
// the mover appended last, or, when byID, at its agent-ID position (a
// regrouped whole mapping).
func (sc *scratch) setTo(pl *plan, mv *candMove, byID bool) {
	sc.to.reset()
	inserted := false
	for k := pl.first[mv.to]; k < pl.first[mv.to+1]; k++ {
		if byID && !inserted && pl.agents[k].ID > pl.agents[mv.k].ID {
			sc.to.add(mv.k, mv.d, pl.prio[mv.k])
			inserted = true
		}
		sc.to.add(k, pl.own[k], pl.prio[k])
	}
	if !inserted {
		sc.to.add(mv.k, mv.d, pl.prio[mv.k])
	}
}

// tasksOn lists core c's tasks under the base mapping with move mv applied
// (nil: the base mapping itself).
func (pl *plan) tasksOn(c int, mv *candMove, sc *scratch) taskList {
	if mv != nil {
		switch c {
		case mv.from:
			return sc.from
		case mv.to:
			return sc.to
		}
	}
	a, b := pl.first[c], pl.first[c+1]
	return taskList{pl.ids[a:b], pl.own[a:b], pl.prio[a:b]}
}

// offset is the position of cluster ci's first task when the mapping with
// move mv applied is laid out cluster by cluster.
func (pl *plan) offset(ci int, mv *candMove) int {
	o := pl.cstart[ci]
	if mv != nil {
		if mv.src < ci {
			o--
		}
		if mv.dst < ci {
			o++
		}
	}
	return o
}

// coreEval is the steady-state estimate for one core under a mapping.
type coreEval struct {
	demand   float64 // D_c under the estimator
	consumed float64 // Σ allocated supply
	unsat    int
	minRatio float64
	ratios   []float64 // parallel to the core's task list; empty: no tasks
}

// clusterEval is the steady-state estimate for one cluster under a mapping.
type clusterEval struct {
	spend    float64
	level    int
	supply   float64
	unsat    int
	minRatio float64
	consumed float64
	occupied int // cores with tasks
	// maxDemand/secondMax/maxCore support O(1) level recomputation when one
	// core's demand changes.
	maxDemand, secondMax float64
	maxCore              int
}

// evalCore estimates one core's steady state at the given per-core supply,
// writing each task's supply/demand ratio to ratios: satisfied tasks get
// s = d; an overloaded core splits supply by priority, never giving a task
// more than its demand (water-filling).
func (sc *scratch) evalCore(l taskList, supply float64, ratios []float64) coreEval {
	ce := coreEval{minRatio: 1, ratios: ratios[:len(l.d)]}
	for _, d := range l.d {
		ce.demand += d
	}
	if ce.demand <= supply+eps {
		for i, d := range l.d {
			ce.ratios[i] = 1
			ce.consumed += d
		}
		return ce
	}
	sc.splitByPriority(l.d, l.prio, supply, ce.ratios)
	for i, d := range l.d {
		s := ce.ratios[i]
		r := 1.0
		if d > 0 {
			r = s / d
		}
		ce.ratios[i] = r
		ce.consumed += s
		if r < satisfiedRatio {
			ce.unsat++
		}
		if r < ce.minRatio {
			ce.minRatio = r
		}
	}
	return ce
}

// evalCluster estimates cluster ci's steady state under the base mapping
// with move mv applied, with the V-F level capped at maxLevel (the TDP-aware
// evaluation pass lowers caps until the mapping's power fits the budget).
// Core estimates land in cores (per global core ID), task ratios in ratios
// from the cluster's first task on.
func (pl *plan) evalCluster(sc *scratch, ci int, mv *candMove, maxLevel int, cores []coreEval, ratios []float64) clusterEval {
	v := pl.clusters[ci]
	ev := clusterEval{minRatio: 1}

	// Constrained demand: cores are walked in ID order so float sums and
	// max-demand tie-breaks never depend on anything but the mapping.
	var dMax, dSecond float64
	maxCore := -1
	for _, c := range v.Cores {
		l := pl.tasksOn(c.ID, mv, sc)
		if len(l.k) == 0 {
			cores[c.ID] = coreEval{}
			continue
		}
		ev.occupied++
		var dc float64
		for _, d := range l.d {
			dc += d
		}
		switch {
		case dc > dMax:
			dSecond, dMax, maxCore = dMax, dc, c.ID
		case dc > dSecond:
			dSecond = dc
		}
	}
	if ev.occupied == 0 {
		// Empty cluster: powered down, no spending (§2 "if there are no
		// active tasks in an entire cluster, then we can power down").
		return ev
	}
	ev.maxDemand, ev.secondMax, ev.maxCore = dMax, dSecond, maxCore

	// Supply: demand of the constrained core rounded up to the next rung,
	// capped by the TDP pass.
	ev.level = min(levelForSupply(v.Control, dMax), maxLevel)
	ev.supply = v.Control.SupplyAt(ev.level)

	off := 0
	for _, c := range v.Cores {
		l := pl.tasksOn(c.ID, mv, sc)
		if len(l.k) == 0 {
			continue
		}
		ce := sc.evalCore(l, ev.supply, ratios[off:])
		off += len(l.k)
		cores[c.ID] = ce
		ev.consumed += ce.consumed
		ev.unsat += ce.unsat
		if ce.minRatio < ev.minRatio {
			ev.minRatio = ce.minRatio
		}
	}
	ev.spend = clusterSpend(v, ev.level, ev.consumed)
	return ev
}

// clusterSpend prices a cluster's operating point: idle floor plus dynamic
// power scaled by utilization. The paper's spend(M) is Σ bids; at
// equilibrium the chip agent's inverse-to-power allowance distribution
// makes aggregate bids track cluster power, and pricing the estimate in
// power units directly keeps mappings on different cluster types comparable
// (see package comment and DESIGN.md).
func clusterSpend(v *core.ClusterAgent, level int, consumed float64) float64 {
	ctl := v.Control
	util := 0.0
	if cap := ctl.SupplyAt(level) * float64(len(v.Cores)); cap > 0 {
		util = consumed / cap
		if util > 1 {
			util = 1
		}
	}
	idle := ctl.IdlePowerAt(level)
	busy := ctl.PowerAt(level)
	return idle + (busy-idle)*util
}

// splitByPriority water-fills `supply` PUs over a core's tasks (demands d,
// priorities prio) proportionally to priority, capping each task at its
// demand and redistributing slack. Task i's share lands in out[i].
func (sc *scratch) splitByPriority(d []float64, prio []int, supply float64, out []float64) {
	rem, next := sc.rem[:0], sc.next[:0]
	for i := range d {
		out[i] = 0
		rem = append(rem, i)
	}
	remaining := supply
	for len(rem) > 0 && remaining > eps {
		var rSum float64
		for _, i := range rem {
			rSum += float64(prio[i])
		}
		if rSum <= 0 {
			break
		}
		next = next[:0]
		for _, i := range rem {
			share := remaining * float64(prio[i]) / rSum
			need := d[i] - out[i]
			if share >= need-eps {
				out[i] += need
			} else {
				out[i] += share
				next = append(next, i)
			}
		}
		var given float64
		for _, s := range out {
			given += s
		}
		remaining = supply - given
		if len(next) == len(rem) {
			// Nobody capped: proportional split is final.
			break
		}
		rem, next = next, rem
	}
	sc.rem, sc.next = rem, next
}

// levelForSupply returns the lowest rung supplying at least `want` PUs
// (the top rung if the ladder cannot cover it).
func levelForSupply(ctl core.ClusterControl, want float64) int {
	n := ctl.NumLevels()
	for i := 0; i < n; i++ {
		if ctl.SupplyAt(i) >= want-eps {
			return i
		}
	}
	return n - 1
}

// evalResult is the whole-chip estimate for a mapping.
type evalResult struct {
	spend  float64
	allSat bool
	// unsat counts tasks below satisfiedRatio. The performance branch never
	// accepts a movement that increases it: with equal task priorities the
	// paper's perf order alone admits two-cycles (improve A hurting B, then
	// improve B hurting A); keeping the count of missing tasks monotone
	// breaks them and matches the evaluation's any-task-below-range metric.
	unsat int
	// minRatio is the worst supply/demand ratio in the mapping. At equal
	// unsat counts the performance branch additionally requires the
	// worst-off task not to end up worse than before (a maximin floor) —
	// otherwise "who suffers" rotates forever.
	minRatio float64
}

// evaluate estimates the steady state of the base mapping with move mv
// applied. When the market carries a TDP budget, supply is additionally
// constrained ("the steady-state supply of a cluster is ... the steady-state
// demand, unless the supply is constrained by the TDP constraint", §3.3):
// cluster levels are capped, hungriest first, until the estimated chip
// power fits under Wtdp. Task ratios land in ratios, laid out cluster by
// cluster.
func (pl *plan) evaluate(sc *scratch, mv *candMove, evs []clusterEval, cores []coreEval, ratios []float64) evalResult {
	caps := sc.caps
	for ci, v := range pl.clusters {
		caps[ci] = v.Control.NumLevels() - 1
		evs[ci] = pl.evalCluster(sc, ci, mv, caps[ci], cores, ratios[pl.offset(ci, mv):])
	}

	if pl.wtdp > 0 {
		for iter := 0; iter < 64; iter++ {
			total := 0.0
			for i := range evs {
				total += evs[i].spend
			}
			if total <= pl.wtdp {
				break
			}
			// Lower the hungriest cluster that still has headroom.
			worst := -1
			for i := range evs {
				if evs[i].level > 0 && evs[i].level <= caps[i] && evs[i].occupied > 0 &&
					(worst < 0 || evs[i].spend > evs[worst].spend) {
					worst = i
				}
			}
			if worst < 0 {
				break
			}
			caps[worst] = evs[worst].level - 1
			evs[worst] = pl.evalCluster(sc, worst, mv, caps[worst], cores, ratios[pl.offset(worst, mv):])
		}
	}

	res := evalResult{minRatio: 1}
	for i := range evs {
		res.spend += evs[i].spend
		res.unsat += evs[i].unsat
		if evs[i].minRatio < res.minRatio {
			res.minRatio = evs[i].minRatio
		}
	}
	res.allSat = res.unsat == 0
	return res
}

// ratioPair is one task's supply/demand ratio under a candidate mapping.
type ratioPair struct {
	k int
	r float64
}

// emit appends cluster ci's task ratios under move mv (core estimates in
// cores) to sc.after.
func (pl *plan) emit(sc *scratch, ci int, mv *candMove, cores []coreEval) {
	for _, c := range pl.clusters[ci].Cores {
		for i, k := range pl.tasksOn(c.ID, mv, sc).k {
			sc.after = append(sc.after, ratioPair{k, cores[c.ID].ratios[i]})
		}
	}
}

// candEval is the evaluation of one candidate move: global aggregates plus
// the verdicts of the two Figure-3 branches.
type candEval struct {
	spend    float64
	unsat    int
	minRatio float64
	// perfOK: no task's ratio meaningfully degrades (the perf(M′) ≥ perf(M)
	// requirement of the power-efficiency branch). A satisfied task staying
	// satisfied does not count as degradation.
	perfOK bool
	// ben is the witness of perf(M′) > perf(M) (the performance branch):
	// the highest-priority unsatisfied task whose ratio improves by gain
	// while no task of strictly higher priority degrades; nil if none.
	ben  *core.TaskAgent
	gain float64
}

// judge fills cand's verdicts from the affected tasks' ratios in sc.after
// against their base ratios. Every other task's ratio is unchanged, so it
// can neither degrade nor benefit. Ties between beneficiaries are broken
// by gain, then agent ID, so the witness is a total-order maximum and does
// not depend on the order the pairs were produced in.
func (pl *plan) judge(sc *scratch, cand candEval) candEval {
	cand.perfOK = true
	hurtPrio := math.MinInt
	var ben *core.TaskAgent
	var gain float64
	for _, a := range sc.after {
		t, o, n := pl.agents[a.k], pl.ratio[a.k], a.r
		if (n < satisfiedRatio || o < satisfiedRatio) && n < o-ratioSlack {
			cand.perfOK = false
			hurtPrio = max(hurtPrio, t.Priority)
		}
		// Only an unsatisfied task that meaningfully improves counts as a
		// beneficiary — already-in-range tasks are not worth migrations.
		if o >= satisfiedRatio || n <= o+minGain {
			continue
		}
		if ben == nil || t.Priority > ben.Priority ||
			(t.Priority == ben.Priority && (n-o > gain ||
				(n-o == gain && t.ID < ben.ID))) {
			ben, gain = t, n-o
		}
	}
	if ben != nil && hurtPrio <= ben.Priority {
		cand.ben, cand.gain = ben, gain
	}
	return cand
}

// evalMove evaluates the base mapping with move mv applied. Without a TDP
// budget only the source and destination clusters change, and their
// cached evaluations are patched (see patchCluster): candidate evaluation
// is O(two clusters) rather than O(all tasks), which keeps the Table 7
// scalability sweep (256 clusters, 131k tasks) tractable.
func (pl *plan) evalMove(sc *scratch, mv *candMove) candEval {
	if pl.wtdp > 0 {
		// TDP couples the clusters: re-evaluate the whole chip under the cap.
		return pl.evalWhole(sc, mv)
	}
	if mv.src == mv.dst {
		// Load balancing touches two cores of one cluster: re-evaluate it.
		sc.srcK = -1
		sc.setFrom(pl, mv)
		sc.setTo(pl, mv, false)
		sc.after = sc.after[:0]
		cand := candEval{spend: pl.res.spend, unsat: pl.res.unsat}
		m := pl.reEvalCluster(sc, mv, mv.src, &cand)
		cand.minRatio = pl.minWith(mv, m, m)
		return pl.judge(sc, cand)
	}
	// The source side of a migration depends only on the mover, so every
	// target of one mover shares it.
	if sc.srcK != mv.k {
		sc.setFrom(pl, mv)
		sc.after = sc.after[:0]
		sc.src = candEval{spend: pl.res.spend, unsat: pl.res.unsat}
		sc.srcMin = pl.patchCluster(sc, mv, mv.src, &sc.src)
		sc.srcK, sc.srcPairs = mv.k, len(sc.after)
	}
	sc.setTo(pl, mv, false)
	sc.after = sc.after[:sc.srcPairs]
	cand := sc.src
	dstMin := pl.patchCluster(sc, mv, mv.dst, &cand)
	cand.minRatio = pl.minWith(mv, sc.srcMin, dstMin)
	return pl.judge(sc, cand)
}

// clusterMin is one cluster's minimum supply/demand ratio.
type clusterMin struct {
	ci int
	m  float64
}

// lowestMins returns the three smallest cluster minimum ratios, smallest
// first, padded with cluster -1 at +Inf.
func lowestMins(evs []clusterEval) [3]clusterMin {
	low := [3]clusterMin{{-1, math.Inf(1)}, {-1, math.Inf(1)}, {-1, math.Inf(1)}}
	for ci := range evs {
		m := evs[ci].minRatio
		for j := range low {
			if m < low[j].m {
				copy(low[j+1:], low[j:2])
				low[j] = clusterMin{ci, m}
				break
			}
		}
	}
	return low
}

// minWith is a candidate's global minimum ratio: the new minima of the
// clusters it moves between, and every other cluster's base minimum. At
// most two clusters are excluded, so the three smallest base minima hold
// the rest's minimum.
func (pl *plan) minWith(mv *candMove, srcMin, dstMin float64) float64 {
	m := math.Inf(1)
	for _, low := range pl.lowMins {
		if low.ci != mv.src && low.ci != mv.dst {
			m = low.m
			break
		}
	}
	for _, x := range [2]float64{srcMin, dstMin} {
		if x < m {
			m = x
		}
	}
	return m
}

// evalWhole evaluates the whole mapping with move mv applied, regrouped by
// agent ID, and judges it over every task.
func (pl *plan) evalWhole(sc *scratch, mv *candMove) candEval {
	sc.srcK = -1
	sc.setFrom(pl, mv)
	sc.setTo(pl, mv, true)
	res := pl.evaluate(sc, mv, sc.evs, sc.cores, sc.ratios)
	sc.after = sc.after[:0]
	for ci := range pl.clusters {
		pl.emit(sc, ci, mv, sc.cores)
	}
	return pl.judge(sc, candEval{spend: res.spend, unsat: res.unsat, minRatio: res.minRatio})
}

// patchCluster folds cluster ci's change under the cross-cluster move mv
// into cand, appends its affected tasks' ratios to sc.after, and returns
// the cluster's new minimum ratio. One core's task set changes here; the
// cluster's V-F level changes only when its constrained demand does, which
// the cached max/second-max give in O(1). Otherwise only that core is
// re-estimated; a level change re-evaluates the whole cluster.
func (pl *plan) patchCluster(sc *scratch, mv *candMove, ci int, cand *candEval) float64 {
	v, old := pl.clusters[ci], &pl.evs[ci]
	changed, l, delta := mv.from, sc.from, -pl.own[mv.k]
	if ci == mv.dst {
		changed, l, delta = mv.to, sc.to, mv.d
	}
	oldCore := &pl.cores[changed]
	newCoreDemand := oldCore.demand + delta

	// New constrained demand of the cluster.
	newMax := math.Max(old.maxDemand, newCoreDemand)
	if changed == old.maxCore {
		newMax = math.Max(old.secondMax, newCoreDemand)
	}
	newLevel := levelForSupply(v.Control, newMax)
	if len(l.k) == 0 && old.occupied == 1 && ci == mv.src {
		// Cluster empties: powers down, spends nothing.
		cand.spend -= old.spend
		cand.unsat -= old.unsat
		return math.Inf(1)
	}
	if newLevel != old.level {
		return pl.reEvalCluster(sc, mv, ci, cand)
	}

	// Same level: only the changed core's allocation moves.
	newCore := sc.evalCore(l, old.supply, sc.ratios)
	cand.unsat += newCore.unsat - oldCore.unsat
	for i, k := range l.k {
		sc.after = append(sc.after, ratioPair{k, newCore.ratios[i]})
	}
	newSpend := clusterSpend(v, old.level, old.consumed-oldCore.consumed+newCore.consumed)
	cand.spend += newSpend - old.spend
	// Cluster minimum: the other cores' cached minima plus the new core.
	m := newCore.minRatio
	for _, c := range v.Cores {
		if ce := &pl.cores[c.ID]; c.ID != changed && len(ce.ratios) > 0 && ce.minRatio < m {
			m = ce.minRatio
		}
	}
	return m
}

// reEvalCluster fully re-evaluates cluster ci under move mv (slow path:
// level changes or intra-cluster move), folds it into cand, appends its
// tasks' ratios to sc.after, and returns its new minimum ratio.
func (pl *plan) reEvalCluster(sc *scratch, mv *candMove, ci int, cand *candEval) float64 {
	old := &pl.evs[ci]
	nev := pl.evalCluster(sc, ci, mv, pl.clusters[ci].Control.NumLevels()-1, sc.cores, sc.ratios)
	cand.spend += nev.spend - old.spend
	cand.unsat += nev.unsat - old.unsat
	pl.emit(sc, ci, mv, sc.cores)
	return nev.minRatio
}

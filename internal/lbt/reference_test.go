package lbt

import (
	"math"
	"testing"

	"pricepower/internal/core"
	"pricepower/internal/sim"
)

// The reference candidate path: the evaluation every candidate took before
// the per-plan tables and the patching of only the changed cores. Balance
// candidates re-evaluate their whole cluster, so does a level change, and
// every ladder and power value is read through the cluster's control.
// FuzzEvalMove holds the shipped path to it bit for bit.

// refEvalMove is the reference evalMove.
func (pl *plan) refEvalMove(sc *scratch, mv *candMove) candEval {
	if pl.wtdp > 0 {
		return pl.evalWhole(sc, mv)
	}
	if mv.src == mv.dst {
		sc.srcK = -1
		sc.setFrom(pl, mv)
		sc.setTo(pl, mv, false)
		sc.after = sc.after[:0]
		cand := candEval{spend: pl.res.spend, unsat: pl.res.unsat}
		m := pl.refReEvalCluster(sc, mv, mv.src, &cand)
		cand.minRatio = pl.minWith(mv, m, m)
		return pl.judge(sc, cand)
	}
	if sc.srcK != mv.k {
		sc.setFrom(pl, mv)
		sc.after = sc.after[:0]
		sc.src = candEval{spend: pl.res.spend, unsat: pl.res.unsat}
		sc.srcMin = pl.refPatchCluster(sc, mv, mv.src, &sc.src)
		sc.srcK, sc.srcPairs = mv.k, len(sc.after)
	}
	sc.setTo(pl, mv, false)
	sc.after = sc.after[:sc.srcPairs]
	cand := sc.src
	dstMin := pl.refPatchCluster(sc, mv, mv.dst, &cand)
	cand.minRatio = pl.minWith(mv, sc.srcMin, dstMin)
	return pl.judge(sc, cand)
}

// refPatchCluster is the reference patchCluster: a level change
// re-evaluates the whole cluster.
func (pl *plan) refPatchCluster(sc *scratch, mv *candMove, ci int, cand *candEval) float64 {
	v, old := pl.clusters[ci], &pl.evs[ci]
	changed, l, delta := mv.from, sc.from, -pl.own[mv.k]
	if ci == mv.dst {
		changed, l, delta = mv.to, sc.to, mv.d
	}
	oldCore := &pl.cores[changed]
	newCoreDemand := oldCore.demand + delta
	newMax := math.Max(old.maxDemand, newCoreDemand)
	if changed == old.maxCore {
		newMax = math.Max(old.secondMax, newCoreDemand)
	}
	newLevel := refLevelForSupply(v.Control, newMax)
	if len(l.k) == 0 && old.occupied == 1 && ci == mv.src {
		cand.spend -= old.spend
		cand.unsat -= old.unsat
		return math.Inf(1)
	}
	if newLevel != old.level {
		return pl.refReEvalCluster(sc, mv, ci, cand)
	}
	newCore := sc.evalCore(l, old.supply, sc.ratios)
	cand.unsat += newCore.unsat - oldCore.unsat
	for i, k := range l.k {
		sc.after = append(sc.after, ratioPair{k, newCore.ratios[i]})
	}
	newSpend := refClusterSpend(v, old.level, old.consumed-oldCore.consumed+newCore.consumed)
	cand.spend += newSpend - old.spend
	m := newCore.minRatio
	for _, c := range v.Cores {
		if ce := &pl.cores[c.ID]; c.ID != changed && len(ce.ratios) > 0 && ce.minRatio < m {
			m = ce.minRatio
		}
	}
	return m
}

// refReEvalCluster fully re-evaluates cluster ci under move mv, folds it
// into cand, appends all its tasks' ratios to sc.after, and returns its new
// minimum ratio.
func (pl *plan) refReEvalCluster(sc *scratch, mv *candMove, ci int, cand *candEval) float64 {
	old := &pl.evs[ci]
	nev := pl.refEvalCluster(sc, ci, mv, pl.clusters[ci].Control.NumLevels()-1, sc.cores, sc.ratios)
	cand.spend += nev.spend - old.spend
	cand.unsat += nev.unsat - old.unsat
	pl.emit(sc, ci, mv, sc.cores)
	return nev.minRatio
}

// refEvalCluster is evalCluster reading the cluster's control.
func (pl *plan) refEvalCluster(sc *scratch, ci int, mv *candMove, maxLevel int, cores []coreEval, ratios []float64) clusterEval {
	v := pl.clusters[ci]
	ev := clusterEval{minRatio: 1}
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
		return ev
	}
	ev.maxDemand, ev.secondMax, ev.maxCore = dMax, dSecond, maxCore
	ev.level = min(refLevelForSupply(v.Control, dMax), maxLevel)
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
	ev.spend = refClusterSpend(v, ev.level, ev.consumed)
	return ev
}

func refClusterSpend(v *core.ClusterAgent, level int, consumed float64) float64 {
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

func refLevelForSupply(ctl core.ClusterControl, want float64) int {
	n := ctl.NumLevels()
	for i := 0; i < n; i++ {
		if ctl.SupplyAt(i) >= want-eps {
			return i
		}
	}
	return n - 1
}

// fuzzMarket draws a market from seed: 1–4 clusters (some left empty),
// 1–4 cores per cluster, 0–4 tasks per core, a TDP budget on or off.
func fuzzMarket(seed uint64) (*core.Market, Estimator) {
	rng := sim.NewRand(seed)
	cfg := core.Config{InitialAllowance: 100}
	if rng.Intn(2) == 0 {
		cfg.Wtdp = rng.Range(1, 12)
	}
	nClusters := 1 + rng.Intn(4)
	controls := make([]core.ClusterControl, nClusters)
	coresPer := make([]int, nClusters)
	empty := make([]bool, nClusters)
	for i := range controls {
		maxS := rng.Range(300, 2000)
		nl := 2 + rng.Intn(5)
		ladder, power := make([]float64, nl), make([]float64, nl)
		for l := range nl {
			ladder[l] = maxS * float64(l+1) / float64(nl)
			power[l] = rng.Range(0.2, 1) * float64(l+1)
		}
		controls[i] = core.NewLadderControl(ladder, power)
		coresPer[i] = 1 + rng.Intn(4)
		empty[i] = rng.Intn(4) == 0
	}
	m := core.NewMarket(cfg, controls, coresPer)
	demands := make(map[int][]float64)
	for _, v := range m.Clusters {
		if empty[v.ID] {
			continue
		}
		for _, c := range v.Cores {
			for range rng.Intn(5) {
				a := m.AddTask(1+rng.Intn(4), c.ID)
				ds := make([]float64, nClusters)
				for k := range ds {
					ds[k] = rng.Range(5, 900)
				}
				a.Demand = ds[v.ID]
				demands[a.ID] = ds
			}
		}
	}
	m.StepOnce()
	return m, EstimatorFunc(func(a *core.TaskAgent, cluster int) float64 {
		return demands[a.ID][cluster]
	})
}

// candidates lists the moves the planner would evaluate on pl, in the
// planner's order: per cluster, its constrained core's tasks against its
// targets of the given kind.
func candidates(pl *plan, sc *scratch, kind Kind) []candMove {
	var out []candMove
	for _, v := range pl.clusters {
		cc := v.ConstrainedCore()
		if cc == nil {
			continue
		}
		targets := append([]int(nil), pl.targets(sc, v, cc, kind)...)
		for _, t := range cc.Tasks {
			for _, to := range targets {
				out = append(out, pl.move(pl.indexOf(t, cc.ID), cc.ID, to))
			}
		}
	}
	return out
}

// checkEvalMove evaluates every migration and balance candidate of market
// seed through evalMove and the reference and compares them: the verdict
// fields bit for bit, and the ratio pairs up to tasks whose ratio is
// bitwise their base ratio. It then does the same for every move of every
// task to every other core, which moves levels in ways the planner's
// targets rarely do.
func checkEvalMove(t *testing.T, seed uint64) {
	m, est := fuzzMarket(seed)
	pl, sc := NewPlanner(m, est).newPlan()
	if len(pl.agents) == 0 {
		return
	}
	ref := pl.scratch(1)
	var all []candMove
	for k, a := range pl.agents {
		from := a.Core().ID
		for to := range pl.cores {
			if to != from {
				all = append(all, pl.move(k, from, to))
			}
		}
	}
	for _, list := range [][]candMove{candidates(pl, sc, Migrate), candidates(pl, sc, Balance), all} {
		for _, mv := range list {
			got := pl.evalMove(sc, &mv)
			gotPairs := append([]ratioPair(nil), sc.after...)
			want := pl.refEvalMove(ref, &mv)
			if err := sameEval(pl, got, want, gotPairs, ref.after); err != "" {
				t.Fatalf("seed %d: move of agent %d, core %d → %d: %s", seed, pl.agents[mv.k].ID, mv.from, mv.to, err)
			}
		}
	}
}

// sameEval reports how two candidate evaluations differ ("": they agree).
func sameEval(pl *plan, got, want candEval, gotPairs, wantPairs []ratioPair) string {
	bits := math.Float64bits
	switch {
	case bits(got.spend) != bits(want.spend):
		return "spend differs"
	case bits(got.minRatio) != bits(want.minRatio):
		return "minRatio differs"
	case bits(got.gain) != bits(want.gain):
		return "gain differs"
	case got.unsat != want.unsat || got.perfOK != want.perfOK || got.ben != want.ben:
		return "verdict differs"
	}
	g := make(map[int]float64, len(gotPairs))
	for _, p := range gotPairs {
		g[p.k] = p.r
	}
	w := make(map[int]float64, len(wantPairs))
	for _, p := range wantPairs {
		w[p.k] = p.r
	}
	for k, r := range g {
		if wr, ok := w[k]; ok && bits(wr) != bits(r) || !ok && bits(r) != bits(pl.ratio[k]) {
			return "a ratio pair differs"
		}
	}
	for k, r := range w {
		if _, ok := g[k]; !ok && bits(r) != bits(pl.ratio[k]) {
			return "a changed ratio is missing"
		}
	}
	return ""
}

// FuzzEvalMove holds candidate evaluation to the reference on random
// markets; its 300 seed markets run with the ordinary tests.
func FuzzEvalMove(f *testing.F) {
	for seed := uint64(1); seed <= 300; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkEvalMove)
}

package lbt

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pricepower/internal/core"
	"pricepower/internal/hw"
	"pricepower/internal/sim"
)

var update = flag.Bool("update", false, "regenerate the LBT decision golden")

// goldenMarket is one family of fixed seeded markets of the LBT decision
// golden: a chip whose clusters get ladders and power tables from the
// hardware model, tasks dealt over the cores of every cluster not listed
// in empty, and per-cluster demands drawn in [lo, hi) PU on a LITTLE core
// (a big core divides them by the task's speed-up).
type goldenMarket struct {
	name     string
	spec     hw.ChipSpec
	wtdp     float64
	tasks    int
	lo, hi   float64
	empty    []int
	eligible bool    // movers with agent ID divisible by 3 are ineligible
	minGain  float64 // Planner.MinSpendGain
	seeds    int
}

var goldenMarkets = []goldenMarket{
	{name: "tc2-sat", spec: hw.TC2Spec(), tasks: 5, lo: 40, hi: 250, seeds: 4},
	{name: "tc2-sat-tdp", spec: hw.TC2Spec(), wtdp: 2.5, tasks: 5, lo: 40, hi: 250, seeds: 4},
	{name: "tc2-starved", spec: hw.TC2Spec(), tasks: 9, lo: 250, hi: 1100, seeds: 4},
	{name: "tc2-starved-tdp", spec: hw.TC2Spec(), wtdp: 4, tasks: 9, lo: 250, hi: 1100, seeds: 4},
	{name: "tc2-empty-big-sat", spec: hw.TC2Spec(), tasks: 4, lo: 40, hi: 250, empty: []int{0}, seeds: 4},
	{name: "tc2-empty-big-starved", spec: hw.TC2Spec(), tasks: 7, lo: 150, hi: 900, empty: []int{0}, seeds: 6},
	{name: "tc2-empty-little-starved", spec: hw.TC2Spec(), tasks: 6, lo: 150, hi: 1400, empty: []int{1}, seeds: 4},
	{name: "tc2-eligible-starved", spec: hw.TC2Spec(), tasks: 9, lo: 250, hi: 1100, eligible: true, seeds: 4},
	{name: "tc2-gain-sat", spec: hw.TC2Spec(), tasks: 6, lo: 40, hi: 300, minGain: 0.03, seeds: 4},
	{name: "v3-sat", spec: hw.ScaledSpec(3, 2), tasks: 6, lo: 20, hi: 300, seeds: 4},
	{name: "v3-starved-tdp", spec: hw.ScaledSpec(3, 2), wtdp: 3, tasks: 12, lo: 200, hi: 1500, seeds: 4},
	{name: "v3-empty-starved", spec: hw.ScaledSpec(3, 2), tasks: 8, lo: 100, hi: 1200, empty: []int{2}, seeds: 6},
	{name: "v4-sat-tdp", spec: hw.ScaledSpec(4, 3), wtdp: 4, tasks: 10, lo: 20, hi: 400, seeds: 4},
	{name: "v4-empty-sat", spec: hw.ScaledSpec(4, 3), tasks: 8, lo: 20, hi: 400, empty: []int{1, 3}, seeds: 4},
	{name: "v4-empty-starved", spec: hw.ScaledSpec(4, 3), tasks: 14, lo: 100, hi: 1800, empty: []int{0, 2}, seeds: 6},
	{name: "v4-empty-starved-tdp", spec: hw.ScaledSpec(4, 3), wtdp: 5, tasks: 14, lo: 100, hi: 1800, empty: []int{3}, seeds: 4},
	{name: "v4-eligible-sat", spec: hw.ScaledSpec(4, 3), tasks: 10, lo: 20, hi: 400, eligible: true, minGain: 0.03, seeds: 4},
	{name: "v32", spec: hw.ScaledSpec(32, 4), tasks: 256, lo: 50, hi: 700, seeds: 2},
	{name: "v32-empty", spec: hw.ScaledSpec(32, 4), tasks: 256, lo: 50, hi: 700, empty: []int{0, 5, 6, 17, 30}, seeds: 1},
}

// build deals seed's market and a planner over it. The market runs a few
// bid rounds first, so levels and constrained cores are the market's own.
func (g goldenMarket) build(seed uint64) (*core.Market, *Planner) {
	chip := hw.MustNewChip(g.spec)
	controls := make([]core.ClusterControl, len(chip.Clusters))
	coresPer := make([]int, len(chip.Clusters))
	for i, cl := range chip.Clusters {
		n := len(cl.Spec.Levels)
		ladder, busy, idle := make([]float64, n), make([]float64, n), make([]float64, n)
		for l := range n {
			ladder[l] = float64(cl.Spec.Levels[l].FreqMHz)
			busy[l], idle[l] = hw.ClusterPowerAt(cl, l, 1), hw.ClusterPowerAt(cl, l, 0)
		}
		ctl := core.NewLadderControl(ladder, busy)
		ctl.IdlePerLevel = idle
		controls[i], coresPer[i] = ctl, cl.Spec.NumCores
	}
	m := core.NewMarket(core.DefaultConfig(g.wtdp), controls, coresPer)
	var hosts []int
	for _, c := range chip.Cores {
		if !slices.Contains(g.empty, c.Cluster.ID) {
			hosts = append(hosts, c.ID)
		}
	}
	rng := sim.NewRand(seed)
	demands := make(map[int][]float64)
	for range g.tasks {
		c := hosts[rng.Intn(len(hosts))]
		a := m.AddTask(1+rng.Intn(3), c)
		little, speedup := rng.Range(g.lo, g.hi), rng.Range(1.3, 2.2)
		ds := make([]float64, len(chip.Clusters))
		for i, cl := range chip.Clusters {
			ds[i] = little
			if cl.Spec.Type == hw.Big {
				ds[i] = little / speedup
			}
		}
		demands[a.ID] = ds
		a.Demand = ds[chip.Cores[c].Cluster.ID]
		a.Observed = a.Demand * rng.Range(0.6, 1)
	}
	for range 8 {
		m.StepOnce()
	}
	p := NewPlanner(m, EstimatorFunc(func(a *core.TaskAgent, cluster int) float64 {
		return demands[a.ID][cluster]
	}))
	p.MinSpendGain = g.minGain
	if g.eligible {
		p.Eligible = func(a *core.TaskAgent) bool { return a.ID%3 != 0 }
	}
	return m, p
}

// formatMove renders a planner decision for the golden: every field of the
// move, spends as their float bits.
func formatMove(mv *Move) string {
	if mv == nil {
		return "none"
	}
	return fmt.Sprintf("agent=%d from=%d to=%d kind=%s reason=%s before=%016x after=%016x",
		mv.Agent.ID, mv.FromCore, mv.ToCore, mv.Kind, mv.Reason,
		math.Float64bits(mv.SpendBefore), math.Float64bits(mv.SpendAfter))
}

// goldenDecisions lists, for every golden market, the move PlanMigrate,
// PlanBalance and PlanForCluster (every cluster, both kinds) return.
func goldenDecisions() string {
	var b strings.Builder
	for _, g := range goldenMarkets {
		for s := range g.seeds {
			seed := uint64(1000*len(g.name) + s + 1)
			m, p := g.build(seed)
			fmt.Fprintf(&b, "%s/%d migrate: %s\n", g.name, s, formatMove(p.PlanMigrate()))
			fmt.Fprintf(&b, "%s/%d balance: %s\n", g.name, s, formatMove(p.PlanBalance()))
			for ci := range m.Clusters {
				for _, kind := range []Kind{Migrate, Balance} {
					fmt.Fprintf(&b, "%s/%d cluster %d %s: %s\n", g.name, s, ci, kind, formatMove(p.PlanForCluster(ci, kind)))
				}
			}
		}
	}
	return b.String()
}

// The planner's decisions on fixed seeded markets are pinned: a change to
// candidate evaluation that should keep every decision must leave this
// file as it is. Regenerate it with -update only for an intended change.
func TestDecisionGolden(t *testing.T) {
	path := filepath.Join("testdata", "decisions.txt")
	got := goldenDecisions()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
}

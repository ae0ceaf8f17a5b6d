// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design knobs DESIGN.md
// calls out. Each benchmark regenerates its experiment end to end, so
//
//	go test -bench=. -benchmem
//
// re-runs the entire evaluation; per-experiment wall-clock is the ns/op
// column. Comparative figures use a reduced virtual duration per run
// (BenchDuration) — pass -dur to cmd/experiments for full-length runs.
package pricepower_test

import (
	"testing"

	"pricepower/internal/exp"
	"pricepower/internal/lbt"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

// BenchDuration is the measured virtual time per comparative run inside
// benchmarks (the paper's runs are 300 s; shapes stabilize well before).
const BenchDuration = 20 * sim.Second

func BenchmarkTable1TaskCoreDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table1(); len(tbl.Rows) != 2 {
			b.Fatal("table 1 wrong shape")
		}
	}
}

func BenchmarkTable2ClusterDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table2(); len(tbl.Rows) != 2 {
			b.Fatal("table 2 wrong shape")
		}
	}
}

func BenchmarkTable3ChipDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table3(); len(tbl.Rows) == 0 {
			b.Fatal("table 3 empty")
		}
	}
}

func BenchmarkTable4DemandConversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table4(); len(tbl.Rows) != 3 {
			b.Fatal("table 4 wrong shape")
		}
	}
}

func BenchmarkTable5Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table5(); len(tbl.Rows) != 8 {
			b.Fatal("table 5 wrong shape")
		}
	}
}

func BenchmarkTable6WorkloadSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table6(); len(tbl.Rows) != 9 {
			b.Fatal("table 6 wrong shape")
		}
	}
}

// BenchmarkTable7Overhead measures one LBT invocation in the constrained
// cluster per paper configuration — ns/op here is the quantity Table 7
// reports in milliseconds. The sub-benchmarks run the full sweep up to 256
// clusters × 16 cores × 32 tasks (131,072 tasks).
func BenchmarkTable7Overhead(b *testing.B) {
	configs := exp.Table7Configs
	if testing.Short() {
		configs = exp.Table7Quick
	}
	for _, cfg := range configs {
		cfg := cfg
		name := benchName(cfg)
		b.Run(name, func(b *testing.B) {
			_, planner := exp.BuildScaledMarket(cfg, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planner.PlanForCluster(0, lbt.Migrate)
			}
		})
	}
}

func benchName(c exp.Table7Config) string {
	return "V" + itoa(c.V) + "_C" + itoa(c.C) + "_T" + itoa(c.T)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig4And5Comparative regenerates the no-TDP comparison (both
// figures read the same runs).
func BenchmarkFig4And5Comparative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := exp.RunComparative(0, BenchDuration)
		if err != nil {
			b.Fatal(err)
		}
		if m := c.MeanMiss(); m[0] > m[2] {
			b.Logf("shape warning: PPM mean miss %.3f above HL %.3f", m[0], m[2])
		}
	}
}

// BenchmarkFig6TDPComparative regenerates the 4 W-cap comparison.
func BenchmarkFig6TDPComparative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunComparative(4.0, BenchDuration); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Priorities regenerates both halves of the priority study.
func BenchmarkFig7Priorities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := exp.Fig7(BenchDuration); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Savings regenerates the savings study.
func BenchmarkFig8Savings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Fig8(BenchDuration/2, BenchDuration); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches: each sweeps one PPM design knob on workload m2 under a
// 4 W cap and reports the miss rate as a benchmark metric.

func ablate(b *testing.B, mutate func(*ppm.Config)) {
	set, _ := workload.SetByName("m2")
	var miss float64
	for i := 0; i < b.N; i++ {
		cfg := ppm.DefaultConfig(4.0)
		mutate(&cfg)
		r, err := exp.RunPPMVariant(cfg, set, BenchDuration)
		if err != nil {
			b.Fatal(err)
		}
		miss = r.MissFrac
	}
	b.ReportMetric(miss*100, "miss%")
}

func BenchmarkAblationDefaults(b *testing.B) {
	ablate(b, func(*ppm.Config) {})
}

func BenchmarkAblationToleranceTight(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.Market.Tolerance = 0.05 })
}

func BenchmarkAblationToleranceLoose(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.Market.Tolerance = 0.5 })
}

func BenchmarkAblationNarrowBuffer(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.Market.Wth = 0.97 * c.Market.Wtdp })
}

func BenchmarkAblationWideBuffer(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.Market.Wth = 0.7 * c.Market.Wtdp })
}

func BenchmarkAblationSavingsOff(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.Market.SavingsCap = 1e-9 })
}

func BenchmarkAblationLBTOff(b *testing.B) {
	ablate(b, func(c *ppm.Config) { c.DisableLBT = true })
}

// BenchmarkChipWidePlan measures the full chip-wide LBT invocation (every
// cluster's constrained core planning, then the chip agent's reduction) —
// the paper's distributed-estimation claim. At 64 clusters the planner
// fans the clusters out over GOMAXPROCS goroutines, so run it with
// -cpu 1,2 to see the gain; TestParallelPlanEquivalence pins the result
// to the single-goroutine plan.
func BenchmarkChipWidePlan(b *testing.B) {
	_, planner := exp.BuildScaledMarket(exp.Table7Config{V: 64, C: 8, T: 8}, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner.PlanMigrate()
	}
}

// BenchmarkMarketRound isolates the supply-demand module's per-round cost
// on the TC2-sized market (the §5.5 claim that its overhead is negligible).
func BenchmarkMarketRound(b *testing.B) {
	set, _ := workload.SetByName("m1")
	r, err := exp.RunSet("PPM", set, 0, sim.Second)
	_ = r
	if err != nil {
		b.Fatal(err)
	}
	// Steady-state per-round cost, measured through a standalone market.
	m, planner := exp.BuildScaledMarket(exp.Table7Config{V: 2, C: 3, T: 2}, 7)
	_ = planner
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepOnce()
	}
}

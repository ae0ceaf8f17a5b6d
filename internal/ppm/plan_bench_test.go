package ppm

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// manyClusterBoard builds the board of perfbench's manycluster_v32
// workload: a 32×4 scaled chip with 256 looping, self-capped tasks of
// evenly spread demand, speed-up and priority under profile-free PPM.
func manyClusterBoard(seed uint64) (*platform.Platform, *Governor) {
	const clusters, cores, tasks = 32, 4, 256
	rng := rand.New(rand.NewPCG(seed, 0x3232))
	chip := hw.MustNewChip(hw.ScaledSpec(clusters, cores))
	p := platform.New(chip, sim.Millisecond)
	online := NewOnlineProfiler()
	cfg := DefaultConfig(0)
	cfg.Profiles, cfg.Online = online.Profiles, online
	g := New(cfg)
	p.SetGovernor(g)
	demands, speedups, prios := rng.Perm(tasks), rng.Perm(tasks), rng.Perm(tasks)
	spread := func(k int) float64 { return (float64(k) + 0.5) / tasks }
	for i := range tasks {
		demand := 50 + spread(demands[i])*650
		p.AddTask(task.Spec{
			Name: fmt.Sprintf("t%03d", i), Priority: 1 + prios[i]%3, MinHR: 27, MaxHR: 33, Loop: true,
			Phases: []task.Phase{{HBCostLittle: demand / 30, SpeedupBig: 1.7 + 0.5*spread(speedups[i]), SelfCapHR: 36}},
		}, i%len(chip.Cores))
	}
	return p, g
}

// tc2Board builds a TC2 board with 14 looping tasks under PPM with static
// profiles, about the load of a fed_follow_sun board.
func tc2Board() (*platform.Platform, *Governor) {
	cfg := DefaultConfig(0)
	d := make(map[string]float64)
	for i := range 14 {
		d[fmt.Sprintf("t%02d", i)] = 60 + float64(i*37%14)*25
	}
	cfg.Profiles = profiles(d)
	p, g := newRig(cfg)
	for i := range 14 {
		name := fmt.Sprintf("t%02d", i)
		p.AddTask(spec(name, d[name], 1+i%3), i%len(p.Chip.Cores))
	}
	return p, g
}

// BenchmarkPlanRound times the LBT planning of one bid round whose
// migration and load-balancing cadences coincide (the estimator snapshot,
// then the migration plan and, when it finds nothing, the balancing plan),
// on the boards perfbench drives. Each board first runs long enough for
// demand windows and learned profiles to fill.
func BenchmarkPlanRound(b *testing.B) {
	boards := []struct {
		name  string
		build func() (*platform.Platform, *Governor)
		warm  sim.Time
	}{
		{"manycluster_v32", func() (*platform.Platform, *Governor) { return manyClusterBoard(1) }, 4 * sim.Second},
		{"tc2_14tasks", tc2Board, 10 * sim.Second},
	}
	for _, bc := range boards {
		b.Run(bc.name, func(b *testing.B) {
			p, g := bc.build()
			p.Run(bc.warm)
			g.round = g.cfg.MigrateEvery * g.cfg.BalanceEvery
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				g.planRound()
			}
		})
	}
}

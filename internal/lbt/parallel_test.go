package lbt

import (
	"runtime"
	"testing"

	"pricepower/internal/sim"
)

// Fanned-out planning (GOMAXPROCS 2, above planFanOutMin clusters) must
// propose exactly the move single-goroutine planning proposes (the
// reduction is deterministic), and must be race-free.
func TestParallelPlanEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plan := func(p *Planner, procs int) (mig, bal *Move) {
		runtime.GOMAXPROCS(procs)
		return p.PlanMigrate(), p.PlanBalance()
	}
	found := 0
	for seed := uint64(1); seed <= 32; seed++ {
		rng := sim.NewRand(seed)
		m, est, _ := randomMarket(rng, planFanOutMin+rng.Intn(8), 2)
		p := NewPlanner(m, est)
		seqMove, seqBal := plan(p, 1)
		parMove, parBal := plan(p, 2)

		check := func(kind string, a, b *Move) {
			switch {
			case a == nil && b == nil:
			case a == nil || b == nil:
				t.Fatalf("seed %d %s: %v vs %v", seed, kind, a, b)
			case a.Agent != b.Agent || a.ToCore != b.ToCore || a.Kind != b.Kind:
				t.Fatalf("seed %d %s: %v vs %v", seed, kind, a, b)
			default:
				found++
			}
		}
		check("migrate", seqMove, parMove)
		check("balance", seqBal, parBal)
	}
	if found == 0 {
		t.Fatal("no seed proposed a move; the comparison is vacuous")
	}
}

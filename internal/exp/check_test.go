package exp

import (
	"fmt"
	"testing"

	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

// TestCheckedComparativeRuns is the PR's acceptance gate: full comparative
// runs under all three governors, across three seeds and with and without
// a TDP, complete with the invariant checker attached and zero violations.
func TestCheckedComparativeRuns(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		rng := sim.NewRand(seed)
		specs := workload.Random(rng, workload.DefaultRandomConfig(4))
		name := fmt.Sprintf("rand%d", seed)
		for _, gov := range GovernorNames {
			for _, wtdp := range []float64{0, 4} {
				if _, err := RunSpecs(gov, name, specs, wtdp, sim.Second, RunOptions{Check: true}); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		}
	}
}

// TestCheckedTableSets pins the checker on the paper's own workload sets —
// one per intensity class, both unconstrained and at the 4 W budget.
func TestCheckedTableSets(t *testing.T) {
	for _, setName := range []string{"l1", "m2", "h3"} {
		set, ok := workload.SetByName(setName)
		if !ok {
			t.Fatalf("unknown set %s", setName)
		}
		for _, gov := range GovernorNames {
			for _, wtdp := range []float64{0, 4} {
				if _, err := RunSetOpts(gov, set, wtdp, sim.Second, RunOptions{Check: true}); err != nil {
					t.Errorf("tdp=%v: %v", wtdp, err)
				}
			}
		}
	}
}

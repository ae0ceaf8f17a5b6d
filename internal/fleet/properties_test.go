package fleet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
)

// randomSnaps builds a random fleet view: prices, saturation, degraded
// and draining flags all drawn from the seeded generator.
func randomSnaps(rng *sim.Rand, n int) []Snapshot {
	snaps := make([]Snapshot, n)
	for i := range snaps {
		snaps[i] = Snapshot{
			Board:       i,
			Price:       rng.Range(0.01, 2),
			MaxSupplyPU: 5000,
			DemandPU:    rng.Range(0, 6000), // may exceed supply: saturated
		}
		if rng.Intn(4) == 0 {
			snaps[i].Degraded = true
		}
		if rng.Intn(6) == 0 {
			snaps[i].Draining = true
		}
		if rng.Intn(4) == 0 {
			snaps[i].SmoothedW = 4
			snaps[i].WthW = 3.5 // above the threshold boundary
		}
	}
	return snaps
}

// Property: the dispatcher never routes to a degraded or draining board
// while a healthy board with headroom exists, for any snapshot vector
// and any submission count.
func TestPropertyNeverRoutesToDegraded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		snaps := randomSnaps(rng, 2+rng.Intn(7))
		healthyExists := false
		for i := range snaps {
			if snaps[i].Admissible() {
				healthyExists = true
			}
		}
		d := NewDispatcher(0.10)
		specs := make([]Submission, 1+rng.Intn(10))
		for i := range specs {
			specs[i] = NewSubmission(spec("swaptions_n"))
		}
		rb := d.Route(snaps, specs)
		unrouted := rb.Unrouted
		for i := range rb.PerBoard {
			if len(rb.PerBoard[i]) == 0 {
				continue
			}
			if snaps[i].Degraded || snaps[i].Draining {
				t.Logf("seed %d: routed to unhealthy board %d (%+v)", seed, i, snaps[i])
				return false
			}
		}
		if healthyExists && len(unrouted) == len(specs) {
			// Admissible board existed, yet nothing routed: the
			// admission controller starved healthy capacity.
			t.Logf("seed %d: all %d specs unrouted despite admissible board", seed, len(specs))
			return false
		}
		if !healthyExists && len(unrouted) != len(specs) {
			t.Logf("seed %d: routed despite no admissible board", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under price oscillations smaller than the hysteresis band,
// consecutive picks never ping-pong between boards — the dispatcher
// stays where it is.
func TestPropertyHysteresisPreventsPingPong(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		const hyst = 0.10
		d := newLinearDispatcher(hyst)
		// Two healthy boards around a common price level; each round
		// both prices wobble within ±hyst/3 of it, so neither ever
		// undercuts the other by the full band.
		base := rng.Range(0.2, 1.0)
		snaps := []Snapshot{snap(0, base), snap(1, base)}
		first := d.Pick(snaps)
		switches := 0
		prev := first
		for round := 0; round < 200; round++ {
			for i := range snaps {
				snaps[i].Price = base * (1 + rng.Range(-hyst/3, hyst/3))
			}
			got := d.Pick(snaps)
			if got != prev {
				switches++
				prev = got
			}
		}
		if switches != 0 {
			t.Logf("seed %d: %d switches under sub-band oscillation", seed, switches)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Sanity companion: without hysteresis the same oscillation does cause
// switching — the band, not tie-breaking accidents, provides stability.
func TestPropertyZeroHysteresisDoesPingPong(t *testing.T) {
	rng := sim.NewRand(42)
	d := newLinearDispatcher(1e-9) // effectively none (0 would default via Fleet)
	base := 0.5
	snaps := []Snapshot{snap(0, base), snap(1, base)}
	prev := d.Pick(snaps)
	switches := 0
	for round := 0; round < 200; round++ {
		for i := range snaps {
			snaps[i].Price = base * (1 + rng.Range(-0.03, 0.03))
		}
		got := d.Pick(snaps)
		if got != prev {
			switches++
			prev = got
		}
	}
	if switches == 0 {
		t.Fatal("no switches without hysteresis: oscillation harness is inert, the ping-pong property is vacuous")
	}
}

// TestPropertyFleetConserves is the conservation property over generated
// schedules: with a dropout-faulted board, auto-drain and a random
// barrier skew, submitted − shed = live + queued + in-flight at every
// barrier and after the flush.
func TestPropertyFleetConserves(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		fl, err := New(Config{
			Boards:             6,
			Seed:               seed,
			MaxSkew:            rng.Intn(3),
			DrainDegradedAfter: 2,
			Faults: map[int]fault.Scenario{
				1: {Faults: []fault.Fault{{Type: fault.PowerDropout, Cluster: -1, Start: 5, Rounds: 100}}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		for barrier := 0; barrier < 10; barrier++ {
			for i, n := 0, rng.Intn(5); i < n; i++ {
				fl.Submit(lightSpec(fmt.Sprintf("t%d", barrier)))
			}
			if err := fl.Step(); err != nil {
				t.Fatal(err)
			}
			checkZeroLoss(t, fl)
		}
		if err := fl.Flush(); err != nil {
			t.Fatal(err)
		}
		checkZeroLoss(t, fl)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

package sched

import (
	"math"
	"testing"

	"pricepower/internal/sim"
)

// Reusing the last water-fill while its inputs are unchanged is exact: over
// random tick sequences that now and then change one entity's WantPU or
// Weight, the supply, the tick length or queue membership (add, remove,
// migrate), two queues that reuse their fills stay bit-identical to a
// mirror pair that refills on every tick — delivered work, vruntime, load,
// min-vruntime and utilization alike — and a dequeued entity reads no work.
func TestFillReuseMatchesRefill(t *testing.T) {
	const nEnt = 6
	reused := 0
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRand(seed)
		var reuse, refill [2]*Queue
		var a, b [nEnt]*Entity
		for i := range reuse {
			reuse[i], refill[i] = NewQueue(), NewQueue()
		}
		for i := range a {
			w := NiceToWeight(rng.Intn(11) - 5)
			want := -1.0
			if rng.Intn(2) == 0 {
				want = rng.Range(0, 600)
			}
			a[i] = &Entity{ID: i, Weight: w, WantPU: want}
			b[i] = &Entity{ID: i, Weight: w, WantPU: want}
			q := rng.Intn(2)
			reuse[q].Add(a[i])
			refill[q].Add(b[i])
		}
		supply := [2]float64{1000, 600}
		dt := sim.Millisecond

		for step := 0; step < 400; step++ {
			k := rng.Intn(nEnt)
			switch rng.Intn(30) {
			case 0:
				w := NiceToWeight(rng.Intn(11) - 5)
				a[k].Weight, b[k].Weight = w, w
			case 1:
				want := rng.Range(-1, 600)
				a[k].WantPU, b[k].WantPU = want, want
			case 2:
				supply[rng.Intn(2)] = float64(rng.Intn(5)) * 250 // includes a dead core
			case 3:
				dt = sim.Time(1+rng.Intn(2)) * sim.Millisecond
			case 4: // add, or migrate to the other queue
				q := rng.Intn(2)
				reuse[q].Add(a[k])
				refill[q].Add(b[k])
			case 5:
				for q := range reuse {
					reuse[q].Remove(a[k])
					refill[q].Remove(b[k])
				}
			}
			for q := range reuse {
				if reuse[q].fillCurrent(supply[q], dt) {
					reused++
				}
				refill[q].fillOK = false
				ua := reuse[q].Step(supply[q], dt)
				ub := refill[q].Step(supply[q], dt)
				if !same(ua, ub) || !same(reuse[q].MinVruntime(), refill[q].MinVruntime()) {
					t.Fatalf("seed %d step %d queue %d: util %v / min-vruntime %v, refilled %v / %v",
						seed, step, q, ua, reuse[q].MinVruntime(), ub, refill[q].MinVruntime())
				}
			}
			for i := range a {
				if !a[i].Queued() && a[i].Work() != 0 {
					t.Fatalf("seed %d step %d: dequeued entity %d reads work %v", seed, step, i, a[i].Work())
				}
				if !same(a[i].Work(), b[i].Work()) || !same(a[i].VRuntime(), b[i].VRuntime()) ||
					!same(a[i].Load.Value(), b[i].Load.Value()) {
					t.Fatalf("seed %d step %d entity %d: work %v vruntime %v load %v, refilled %v %v %v",
						seed, step, i, a[i].Work(), a[i].VRuntime(), a[i].Load.Value(),
						b[i].Work(), b[i].VRuntime(), b[i].Load.Value())
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no tick reused its fill; the comparison is vacuous")
	}
}

func same(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/sim"
)

const tick = sim.Millisecond

// Allocation reports the work one entity received during a tick.
type Allocation struct {
	Entity *Entity
	// WorkPU is the work received, in PU·s (millions of cycles).
	WorkPU float64
}

func (a Allocation) String() string {
	return fmt.Sprintf("entity %d: %.3f PU·s", a.Entity.ID, a.WorkPU)
}

// RunTick is the tests' view of Step: it runs one tick and lists the
// entities that received work, by ascending entity ID (nil when none did),
// with the core utilization.
func (q *Queue) RunTick(supplyPU float64, dt sim.Time) ([]Allocation, float64) {
	util := q.Step(supplyPU, dt)
	var allocs []Allocation
	for _, e := range q.entities {
		if e.Work() > 0 {
			allocs = append(allocs, Allocation{Entity: e, WorkPU: e.Work()})
		}
	}
	sortAllocs(allocs)
	return allocs, util
}

// sortAllocs orders allocations by entity ID (insertion sort: run queues
// are small).
func sortAllocs(a []Allocation) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Entity.ID < a[j-1].Entity.ID; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func runTicks(q *Queue, supply float64, n int) map[int]float64 {
	total := make(map[int]float64)
	for i := 0; i < n; i++ {
		allocs, _ := q.RunTick(supply, tick)
		for _, a := range allocs {
			total[a.Entity.ID] += a.WorkPU
		}
	}
	return total
}

func TestNiceToWeight(t *testing.T) {
	if NiceToWeight(0) != 1024 {
		t.Errorf("nice 0 weight = %v, want 1024", NiceToWeight(0))
	}
	if NiceToWeight(-20) != 88761 || NiceToWeight(19) != 15 {
		t.Errorf("extreme weights = %v/%v", NiceToWeight(-20), NiceToWeight(19))
	}
	// Clamping.
	if NiceToWeight(-100) != NiceToWeight(-20) || NiceToWeight(100) != NiceToWeight(19) {
		t.Error("NiceToWeight does not clamp")
	}
	// Each step ≈ 1.25×.
	ratio := NiceToWeight(0) / NiceToWeight(1)
	if ratio < 1.2 || ratio > 1.3 {
		t.Errorf("nice step ratio = %v, want ≈1.25", ratio)
	}
}

func TestRunTickEmptyQueue(t *testing.T) {
	q := NewQueue()
	allocs, util := q.RunTick(1000, tick)
	if allocs != nil || util != 0 {
		t.Errorf("empty queue returned %v util %v", allocs, util)
	}
}

func TestRunTickSingleUnboundedTaskGetsAll(t *testing.T) {
	q := NewQueue()
	e := &Entity{ID: 1, Weight: 1024, WantPU: -1}
	q.Add(e)
	allocs, util := q.RunTick(1000, tick)
	if len(allocs) != 1 {
		t.Fatalf("got %d allocations", len(allocs))
	}
	want := 1000 * tick.Seconds()
	if math.Abs(allocs[0].WorkPU-want) > 1e-9 {
		t.Errorf("work = %v, want %v", allocs[0].WorkPU, want)
	}
	if math.Abs(util-1) > 1e-9 {
		t.Errorf("util = %v, want 1", util)
	}
}

func TestRunTickProportionalToWeight(t *testing.T) {
	q := NewQueue()
	a := &Entity{ID: 1, Weight: 2048, WantPU: -1}
	b := &Entity{ID: 2, Weight: 1024, WantPU: -1}
	q.Add(a)
	q.Add(b)
	total := runTicks(q, 900, 100)
	if ratio := total[1] / total[2]; math.Abs(ratio-2) > 0.01 {
		t.Errorf("work ratio = %v, want 2 (weights 2:1)", ratio)
	}
	sum := total[1] + total[2]
	want := 900 * 0.1 // 900 PU × 100 ms
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("total work = %v, want %v (work conservation)", sum, want)
	}
}

func TestRunTickCapsAndRedistributesSlack(t *testing.T) {
	q := NewQueue()
	// a self-caps at 100 PU; b is unbounded. Supply 1000 PU.
	a := &Entity{ID: 1, Weight: 1024, WantPU: 100}
	b := &Entity{ID: 2, Weight: 1024, WantPU: -1}
	q.Add(a)
	q.Add(b)
	allocs, util := q.RunTick(1000, tick)
	got := map[int]float64{}
	for _, al := range allocs {
		got[al.Entity.ID] = al.WorkPU
	}
	if math.Abs(got[1]-100*tick.Seconds()) > 1e-9 {
		t.Errorf("capped task got %v, want %v", got[1], 100*tick.Seconds())
	}
	if math.Abs(got[2]-900*tick.Seconds()) > 1e-9 {
		t.Errorf("unbounded task got %v (slack not redistributed), want %v",
			got[2], 900*tick.Seconds())
	}
	if math.Abs(util-1) > 1e-9 {
		t.Errorf("util = %v, want 1", util)
	}
}

func TestRunTickUtilizationBelowOneWhenAllSatisfied(t *testing.T) {
	q := NewQueue()
	q.Add(&Entity{ID: 1, Weight: 1024, WantPU: 200})
	q.Add(&Entity{ID: 2, Weight: 1024, WantPU: 300})
	_, util := q.RunTick(1000, tick)
	if math.Abs(util-0.5) > 1e-9 {
		t.Errorf("util = %v, want 0.5 (500 of 1000 PU wanted)", util)
	}
}

func TestRunTickZeroWantIdles(t *testing.T) {
	q := NewQueue()
	q.Add(&Entity{ID: 1, Weight: 1024, WantPU: 0})
	allocs, util := q.RunTick(1000, tick)
	if len(allocs) != 0 || util != 0 {
		t.Errorf("idle task ran: %v util %v", allocs, util)
	}
}

func TestVruntimeAdvancesInverselyToWeight(t *testing.T) {
	q := NewQueue()
	a := &Entity{ID: 1, Weight: 2048, WantPU: -1}
	b := &Entity{ID: 2, Weight: 1024, WantPU: -1}
	q.Add(a)
	q.Add(b)
	runTicks(q, 1000, 50)
	// Both should have (nearly) equal vruntime: CFS equalizes vruntime, and
	// work_i = vruntime × weight_i.
	if diff := math.Abs(a.VRuntime() - b.VRuntime()); diff > 0.01*a.VRuntime() {
		t.Errorf("vruntimes diverged: %v vs %v", a.VRuntime(), b.VRuntime())
	}
}

func TestAddFloorsVruntimeAtQueueMin(t *testing.T) {
	q := NewQueue()
	a := &Entity{ID: 1, Weight: 1024, WantPU: -1}
	q.Add(a)
	runTicks(q, 1000, 100)
	// A newcomer with zero vruntime must not monopolize the core.
	b := &Entity{ID: 2, Weight: 1024, WantPU: -1}
	q.Add(b)
	if b.VRuntime() < a.VRuntime()-1e-9 {
		t.Errorf("newcomer vruntime %v below incumbent %v", b.VRuntime(), a.VRuntime())
	}
	total := runTicks(q, 1000, 100)
	if ratio := total[1] / total[2]; math.Abs(ratio-1) > 0.05 {
		t.Errorf("post-join share ratio = %v, want ≈1", ratio)
	}
}

func TestRemoveAndContains(t *testing.T) {
	q := NewQueue()
	a := &Entity{ID: 1, Weight: 1024}
	b := &Entity{ID: 2, Weight: 1024}
	q.Add(a)
	if !q.Contains(a) || q.Contains(b) {
		t.Error("Contains wrong after Add")
	}
	if q.Remove(b) {
		t.Error("Remove of absent entity reported true")
	}
	if !q.Remove(a) || q.Len() != 0 {
		t.Error("Remove of present entity failed")
	}
}

// Property: for any weights and caps, RunTick conserves work (Σ alloc ≤
// capacity, with equality when demand ≥ capacity) and never exceeds an
// entity's cap.
func TestRunTickConservationProperty(t *testing.T) {
	f := func(w1, w2, w3 uint16, c1, c2, c3 uint16) bool {
		q := NewQueue()
		ws := []uint16{w1, w2, w3}
		cs := []uint16{c1, c2, c3}
		var totalWant float64
		ents := make([]*Entity, 3)
		for i := 0; i < 3; i++ {
			want := float64(cs[i] % 2000)
			ents[i] = &Entity{ID: i, Weight: float64(ws[i]%2000) + 1, WantPU: want}
			totalWant += want
			q.Add(ents[i])
		}
		allocs, util := q.RunTick(1000, tick)
		capacity := 1000 * tick.Seconds()
		var sum float64
		for _, a := range allocs {
			if a.WorkPU > a.Entity.WantPU*tick.Seconds()+1e-9 {
				return false // exceeded cap
			}
			sum += a.WorkPU
		}
		if sum > capacity+1e-9 {
			return false
		}
		if totalWant >= 1000 && sum < capacity-1e-6 {
			return false // not work conserving
		}
		return util >= -1e-9 && util <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLoadTrackerRisesAndDecays(t *testing.T) {
	var l LoadTracker
	for i := 0; i < 200; i++ {
		l.Update(1, tick)
	}
	if l.Value() < 0.95 {
		t.Errorf("load after 200ms busy = %v, want ≈1", l.Value())
	}
	// After one half-life of idleness, load should drop by half.
	for i := 0; i < 32; i++ {
		l.Update(0, tick)
	}
	if v := l.Value(); v < 0.45 || v > 0.55 {
		t.Errorf("load after 32ms idle = %v, want ≈0.5", v)
	}
	l.Reset()
	if l.Value() != 0 {
		t.Error("Reset did not clear load")
	}
}

func TestLoadTrackerClampsInput(t *testing.T) {
	var l LoadTracker
	l.Update(5, tick)
	if l.Value() > 1 {
		t.Errorf("load = %v after out-of-range update", l.Value())
	}
	l.Update(-5, tick)
	if l.Value() < 0 {
		t.Errorf("load = %v after negative update", l.Value())
	}
}

// updateN leaves the average bit-identical to n update calls, from a
// fresh tracker (the first sample initializes) and a warm one, with
// in-range and clamped runnable fractions.
func TestLoadTrackerUpdateNMatchesUpdate(t *testing.T) {
	rng := sim.NewRand(3)
	for i := 0; i < 500; i++ {
		decay := peltDecay(sim.Time(1 + rng.Intn(int(4*sim.Millisecond))))
		var a, b LoadTracker
		if rng.Intn(2) == 0 {
			a.update(rng.Float64(), decay)
			b = a
		}
		r, n := rng.Range(-0.5, 1.5), rng.Intn(40)
		a.updateN(r, decay, n)
		for k := 0; k < n; k++ {
			b.update(r, decay)
		}
		if math.Float64bits(a.avg) != math.Float64bits(b.avg) || a.initialized != b.initialized {
			t.Fatalf("case %d: updateN(%v, %v, %d) = %v, %d updates %v", i, r, decay, n, a.avg, n, b.avg)
		}
	}
}

func TestStarvedEntityLoadRises(t *testing.T) {
	q := NewQueue()
	// Demand far exceeds supply; both entities are runnable all the time.
	a := &Entity{ID: 1, Weight: 1024, WantPU: 2000}
	q.Add(a)
	for i := 0; i < 200; i++ {
		q.RunTick(350, tick)
	}
	if a.Load.Value() < 0.9 {
		t.Errorf("starved entity load = %v, want ≈1", a.Load.Value())
	}
	// An easily-satisfied entity's load reflects its running fraction.
	q2 := NewQueue()
	b := &Entity{ID: 2, Weight: 1024, WantPU: 100}
	q2.Add(b)
	for i := 0; i < 200; i++ {
		q2.RunTick(1000, tick)
	}
	if v := b.Load.Value(); v < 0.05 || v > 0.2 {
		t.Errorf("light entity load = %v, want ≈0.1", v)
	}
}

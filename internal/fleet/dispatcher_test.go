package fleet

import (
	"testing"

	"pricepower/internal/task"
)

// Dispatcher is the linear routing oracle: cheapest clearing price first
// over the admissible boards, one full scan per pick, with hysteresis so
// small price wobbles between near-equal boards do not ping-pong
// consecutive submissions. It is pure state-machine code over Snapshot
// values. The sharded oracle (shard_test.go) runs one per lane, so the
// production ShardedDispatcher is checked against this plain scan
// (TestPropertyShardedMatchesLinearOracle, FuzzRouteShardedVsLinear).
type Dispatcher struct {
	// Hysteresis is the fractional price advantage a challenger board
	// must show over the previously chosen board before the dispatcher
	// switches away from it.
	Hysteresis float64

	last int // board chosen by the previous Pick; -1 before any pick
}

// NewDispatcher builds an oracle dispatcher with the given hysteresis.
func NewDispatcher(hysteresis float64) *Dispatcher {
	return &Dispatcher{Hysteresis: hysteresis, last: -1}
}

// Pick chooses the board for one task given the per-board snapshots:
// the admissible board with the lowest clearing price, except that the
// previously picked board is kept while it stays admissible and within
// the hysteresis band of the cheapest. Returns -1 when no board is
// admissible.
func (d *Dispatcher) Pick(snaps []Snapshot) int {
	best := -1
	for i := range snaps {
		if !snaps[i].Admissible() {
			continue
		}
		if best == -1 || snaps[i].Price < snaps[best].Price {
			best = i
		}
	}
	if best == -1 {
		d.last = -1
		return -1
	}
	// Sticky choice: keep the previous board unless the cheapest
	// undercuts it by more than the hysteresis fraction.
	if d.last >= 0 && d.last < len(snaps) && d.last != best && snaps[d.last].Admissible() {
		if snaps[best].Price >= snaps[d.last].Price*(1-d.Hysteresis) {
			best = d.last
		}
	}
	d.last = best
	return best
}

// project charges one assignment's estimated demand against a snapshot
// copy and bumps the projected price proportionally, with a pseudo-price
// for an idle board: the oracle's form of projEntry.project.
func project(proj []Snapshot, i int, est float64) {
	proj[i].Tasks++
	proj[i].DemandPU += est
	frac := est / proj[i].MaxSupplyPU
	if proj[i].Price > 0 {
		proj[i].Price *= 1 + frac
	} else {
		proj[i].Price = frac
	}
}

func snap(board int, price float64) Snapshot {
	return Snapshot{Board: board, Price: price, MaxSupplyPU: 5000}
}

func spec(name string) task.Spec {
	return task.Spec{Name: name, Priority: 1, MinHR: 1, MaxHR: 2,
		Phases: []task.Phase{{HBCostLittle: 100, SpeedupBig: 2}}, Loop: true}
}

func TestPickCheapestFirst(t *testing.T) {
	d := NewDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.5), snap(1, 0.2), snap(2, 0.9)}
	if got := d.Pick(snaps); got != 1 {
		t.Fatalf("Pick = %d, want 1 (cheapest)", got)
	}
}

func TestPickSkipsInadmissible(t *testing.T) {
	d := NewDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.5), snap(1, 0.2), snap(2, 0.9)}
	snaps[1].Degraded = true
	if got := d.Pick(snaps); got != 0 {
		t.Errorf("Pick = %d, want 0 (cheapest healthy)", got)
	}
	snaps[0].Draining = true
	d = NewDispatcher(0.10)
	if got := d.Pick(snaps); got != 2 {
		t.Errorf("Pick = %d, want 2 (only admissible)", got)
	}
	snaps[2].SmoothedW, snaps[2].WthW = 4, 3.5 // above threshold boundary
	d = NewDispatcher(0.10)
	if got := d.Pick(snaps); got != -1 {
		t.Errorf("Pick = %d, want -1 (nothing admissible)", got)
	}
}

func TestPickHysteresisSticks(t *testing.T) {
	d := NewDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.50), snap(1, 0.60)}
	if got := d.Pick(snaps); got != 0 {
		t.Fatalf("first Pick = %d, want 0", got)
	}
	// Board 1 becomes cheaper, but within the 10% band: stay on 0.
	snaps[0].Price, snaps[1].Price = 0.50, 0.47
	if got := d.Pick(snaps); got != 0 {
		t.Errorf("Pick = %d, want 0 (challenger within hysteresis band)", got)
	}
	// Board 1 undercuts past the band: switch.
	snaps[1].Price = 0.40
	if got := d.Pick(snaps); got != 1 {
		t.Errorf("Pick = %d, want 1 (challenger beyond band)", got)
	}
}

func TestPickLeavesStickyBoardWhenInadmissible(t *testing.T) {
	d := NewDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.1), snap(1, 0.2)}
	if got := d.Pick(snaps); got != 0 {
		t.Fatalf("first Pick = %d, want 0", got)
	}
	snaps[0].Degraded = true
	if got := d.Pick(snaps); got != 1 {
		t.Errorf("Pick = %d, want 1 (sticky board went degraded)", got)
	}
}

func TestRouteSpreadsLargeBatch(t *testing.T) {
	d := NewShardedDispatcher(1, 0.10, 1)
	snaps := []Snapshot{snap(0, 0), snap(1, 0), snap(2, 0)}
	subs := make([]Submission, 9)
	for i := range subs {
		subs[i] = NewSubmission(spec("swaptions_n"))
	}
	rb := d.Route(snaps, subs)
	if len(rb.Unrouted) != 0 {
		t.Fatalf("%d unrouted, want 0", len(rb.Unrouted))
	}
	total := 0
	for i, got := range rb.PerBoard {
		total += len(got)
		if len(got) == 0 {
			t.Errorf("board %d got no tasks: projection failed to spread", i)
		}
	}
	if total != len(subs) {
		t.Fatalf("routed %d, want %d", total, len(subs))
	}
	// The projected-demand bump must keep the split roughly even: no
	// board absorbs the whole batch.
	for i, got := range rb.PerBoard {
		if len(got) > 5 {
			t.Errorf("board %d got %d/9 tasks: dog-pile", i, len(got))
		}
	}
}

func TestRouteQueuesWhenSaturated(t *testing.T) {
	d := NewShardedDispatcher(1, 0.10, 1)
	snaps := []Snapshot{snap(0, 0.1)}
	snaps[0].SmoothedW, snaps[0].WthW = 4, 3.5
	subs := []Submission{NewSubmission(spec("a")), NewSubmission(spec("b"))}
	rb := d.Route(snaps, subs)
	for i := range rb.PerBoard {
		if len(rb.PerBoard[i]) != 0 {
			t.Fatalf("board %d got %d tasks, want all unrouted", i, len(rb.PerBoard[i]))
		}
	}
	if len(rb.Unrouted) != 2 {
		t.Fatalf("unrouted=%d, want 2", len(rb.Unrouted))
	}
	if rb.Unrouted[0] != 0 || rb.Unrouted[1] != 1 {
		t.Error("unrouted order not preserved")
	}
}

func TestEstimateDemandPU(t *testing.T) {
	// Registry-known task → profiled demand.
	known := spec("swaptions_n")
	if est := EstimateDemandPU(known); est <= 0 {
		t.Errorf("estimate for profiled task = %v, want > 0", est)
	}
	// Unknown task with usable spec → phase cost × target rate.
	anon := task.Spec{Name: "anon", MinHR: 9, MaxHR: 11,
		Phases: []task.Phase{{HBCostLittle: 30, SpeedupBig: 2}}}
	if est := EstimateDemandPU(anon); est < 250 || est > 350 {
		t.Errorf("estimate for anon task = %v, want ≈300 (30 PU·s × 10 hb/s)", est)
	}
	// Nothing to go on → flat default.
	if est := EstimateDemandPU(task.Spec{Name: "x"}); est != defaultDemandPU {
		t.Errorf("fallback estimate = %v, want %v", est, defaultDemandPU)
	}
}

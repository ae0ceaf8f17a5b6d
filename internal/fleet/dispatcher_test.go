package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// linearDispatcher is the linear routing oracle: cheapest clearing price
// first over the admissible boards, one full scan per pick, with
// hysteresis so small price wobbles between near-equal boards do not
// ping-pong consecutive submissions. It is pure state-machine code over
// Snapshot values — no heap, every decision an O(B) scan — which is what
// makes it an oracle rather than a second copy of Dispatcher
// (TestPropertyDispatcherMatchesLinearOracle, FuzzRouteVsLinear).
type linearDispatcher struct {
	// Hysteresis is the fractional price advantage a challenger board
	// must show over the previously chosen board before the dispatcher
	// switches away from it.
	Hysteresis float64

	last int // board chosen by the previous Pick; -1 before any pick
}

// newLinearDispatcher builds an oracle dispatcher with the given hysteresis.
func newLinearDispatcher(hysteresis float64) *linearDispatcher {
	return &linearDispatcher{Hysteresis: hysteresis, last: -1}
}

// Pick chooses the board for one task given the per-board snapshots:
// the admissible board with the lowest clearing price, except that the
// previously picked board is kept while it stays admissible and within
// the hysteresis band of the cheapest. Returns -1 when no board is
// admissible.
func (d *linearDispatcher) Pick(snaps []Snapshot) int {
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

// route mirrors Dispatcher.Route's contract from first principles: one
// linear-scan Pick per submission in arrival order, each pick's demand
// projected onto a snapshot copy before the next.
func (d *linearDispatcher) route(snaps []Snapshot, subs []Submission) (picks, unrouted []int32) {
	proj := append([]Snapshot(nil), snaps...)
	picks = make([]int32, len(subs))
	for si := range subs {
		i := d.Pick(proj)
		picks[si] = int32(i)
		if i < 0 {
			unrouted = append(unrouted, int32(si))
			continue
		}
		project(proj, i, subs[si].Est)
	}
	return picks, unrouted
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
	d := newLinearDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.5), snap(1, 0.2), snap(2, 0.9)}
	if got := d.Pick(snaps); got != 1 {
		t.Fatalf("Pick = %d, want 1 (cheapest)", got)
	}
}

func TestPickSkipsInadmissible(t *testing.T) {
	d := newLinearDispatcher(0.10)
	snaps := []Snapshot{snap(0, 0.5), snap(1, 0.2), snap(2, 0.9)}
	snaps[1].Degraded = true
	if got := d.Pick(snaps); got != 0 {
		t.Errorf("Pick = %d, want 0 (cheapest healthy)", got)
	}
	snaps[0].Draining = true
	d = newLinearDispatcher(0.10)
	if got := d.Pick(snaps); got != 2 {
		t.Errorf("Pick = %d, want 2 (only admissible)", got)
	}
	snaps[2].SmoothedW, snaps[2].WthW = 4, 3.5 // above threshold boundary
	d = newLinearDispatcher(0.10)
	if got := d.Pick(snaps); got != -1 {
		t.Errorf("Pick = %d, want -1 (nothing admissible)", got)
	}
}

func TestPickHysteresisSticks(t *testing.T) {
	d := newLinearDispatcher(0.10)
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
	d := newLinearDispatcher(0.10)
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
	d := NewDispatcher(0.10)
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
	d := NewDispatcher(0.10)
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

// cleanSnaps builds a healthy fleet view: every board admissible, prices
// and load random. The faulted companion is randomSnaps (degraded /
// draining / over-threshold boards mixed in).
func cleanSnaps(rng *sim.Rand, n int) []Snapshot {
	snaps := make([]Snapshot, n)
	for i := range snaps {
		snaps[i] = Snapshot{
			Board:       i,
			Price:       rng.Range(0.01, 2),
			MaxSupplyPU: 5000,
			DemandPU:    rng.Range(0, 4000),
		}
	}
	return snaps
}

// randomSubs draws a batch of submissions with varied demand estimates:
// registry-unknown specs whose first-phase cost and target heart rate
// spread Est over roughly [40, 1800] PU, so projection evicts boards at
// different rates per seed.
func randomSubs(rng *sim.Rand, n int) []Submission {
	subs := make([]Submission, n)
	for i := range subs {
		hr := float64(1 + rng.Intn(6))
		subs[i] = NewSubmission(task.Spec{
			Name:     fmt.Sprintf("s%03d", i),
			Priority: 1,
			MinHR:    hr,
			MaxHR:    hr + 2,
			Phases:   []task.Phase{{HBCostLittle: rng.Range(20, 300), SpeedupBig: 2}},
			Loop:     true,
		})
	}
	return subs
}

// checkRoutedBatch asserts the RoutedBatch's internal consistency:
// PerBoard partitions the routed picks exactly once in arrival order,
// AddDemandPU tallies the picks' estimates, Unrouted is the complement in
// arrival order, and no pick lands on a board that was inadmissible at
// barrier start.
func checkRoutedBatch(t *testing.T, snaps []Snapshot, subs []Submission, rb RoutedBatch) {
	t.Helper()
	if len(subs) == 0 {
		return
	}
	routed := 0
	for si, p := range rb.Picks {
		if p < 0 {
			continue
		}
		routed++
		if snaps[p].Degraded || snaps[p].Draining || !snaps[p].Admissible() {
			t.Fatalf("sub %d routed to inadmissible board %d (%+v)", si, p, snaps[p])
		}
	}
	if routed != rb.Routed || routed+len(rb.Unrouted) != len(subs) {
		t.Fatalf("conservation: %d routed (batch says %d) + %d unrouted != %d submitted",
			routed, rb.Routed, len(rb.Unrouted), len(subs))
	}
	for i := 1; i < len(rb.Unrouted); i++ {
		if rb.Unrouted[i] <= rb.Unrouted[i-1] {
			t.Fatalf("unrouted tail out of arrival order at %d: %v", i, rb.Unrouted)
		}
	}
	seen := make(map[int32]bool, routed)
	for b, mine := range rb.PerBoard {
		var est float64
		for i, si := range mine {
			if rb.Picks[si] != int32(b) {
				t.Fatalf("board %d lists sub %d but Picks[%d]=%d", b, si, si, rb.Picks[si])
			}
			if seen[si] {
				t.Fatalf("sub %d appears on two boards", si)
			}
			seen[si] = true
			if i > 0 && si <= mine[i-1] {
				t.Fatalf("board %d pick list out of arrival order: %v", b, mine)
			}
			est += subs[si].Est
		}
		if diff := math.Abs(est - rb.AddDemandPU[b]); diff > 1e-6*(1+est) {
			t.Fatalf("board %d AddDemandPU %g, picks sum to %g", b, rb.AddDemandPU[b], est)
		}
	}
	if len(seen) != routed {
		t.Fatalf("PerBoard covers %d picks, Picks has %d", len(seen), routed)
	}
}

// idleBoards zeroes the price of about a quarter of the boards, as an
// idle market reads: projection gives each the same pseudo-price for the
// same demand, so picks among them fall to the board-ID tie-break.
func idleBoards(rng *sim.Rand, snaps []Snapshot) {
	for i := range snaps {
		if rng.Intn(4) == 0 {
			snaps[i].Price = 0
		}
	}
}

// sameRoute reports the first difference between the dispatcher's batch
// (and its sticky choice) and the linear oracle's, or "" when they agree.
func sameRoute(d *Dispatcher, rb RoutedBatch, o *linearDispatcher, picks, unrouted []int32) string {
	for si := range picks {
		if rb.Picks[si] != picks[si] {
			return fmt.Sprintf("sub %d → board %d, oracle %d", si, rb.Picks[si], picks[si])
		}
	}
	if len(rb.Unrouted) != len(unrouted) {
		return fmt.Sprintf("%d unrouted, oracle %d", len(rb.Unrouted), len(unrouted))
	}
	if d.last != o.last {
		return fmt.Sprintf("sticky %d, oracle %d", d.last, o.last)
	}
	return ""
}

// TestPropertyDispatcherMatchesLinearOracle pins the price index against
// the linear scan: on clean and faulted fleets, the dispatcher's
// assignments, unrouted tails and sticky state must equal the linear
// oracle's over multi-batch evolving snapshot sequences.
func TestPropertyDispatcherMatchesLinearOracle(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		faulted := faulted
		t.Run(fmt.Sprintf("faulted=%v", faulted), func(t *testing.T) {
			t.Parallel()
			f := func(seed uint64) bool {
				rng := sim.NewRand(seed)
				B := 1 + rng.Intn(12)
				var snaps []Snapshot
				if faulted {
					snaps = randomSnaps(rng, B)
				} else {
					snaps = cleanSnaps(rng, B)
				}
				idleBoards(rng, snaps)
				d := NewDispatcher(0.10)
				or := newLinearDispatcher(0.10)
				for batch := 0; batch < 4; batch++ {
					subs := randomSubs(rng, rng.Intn(30))
					rb := d.Route(snaps, subs)
					wantPicks, wantU := or.route(snaps, subs)
					if len(subs) == 0 {
						if rb.Routed != 0 || len(rb.Unrouted) != 0 {
							t.Logf("seed %d batch %d: empty batch routed work", seed, batch)
							return false
						}
						continue
					}
					checkRoutedBatch(t, snaps, subs, rb)
					if diff := sameRoute(d, rb, or, wantPicks, wantU); diff != "" {
						t.Logf("seed %d batch %d: %s", seed, batch, diff)
						return false
					}
					// Evolve the fleet view between batches so the
					// sticky state must stay in lockstep too.
					for i := range snaps {
						snaps[i].Price *= 1 + rng.Range(-0.2, 0.2)
						if rng.Intn(8) == 0 {
							snaps[i].Draining = !snaps[i].Draining
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzRouteVsLinear fuzzes the dispatcher against the linear oracle over
// board count, batch size, price and demand perturbations and degraded
// masks, and additionally asserts the RoutedBatch invariants.
func FuzzRouteVsLinear(f *testing.F) {
	f.Add(uint64(1), uint(0), uint(10), uint64(0))          // empty fleet
	f.Add(uint64(2), uint(1), uint(10), uint64(0))          // single board
	f.Add(uint64(3), uint(6), uint(12), uint64(0xffffffff)) // all degraded
	f.Add(uint64(4), uint(12), uint(40), uint64(0b1010))    // mixed degraded
	f.Fuzz(func(t *testing.T, seed uint64, boards, nsubs uint, degMask uint64) {
		B := int(boards % 33)
		N := int(nsubs % 129)
		rng := sim.NewRand(seed)
		snaps := cleanSnaps(rng, B)
		for i := range snaps {
			if degMask&(1<<uint(i%64)) != 0 {
				snaps[i].Degraded = true
			}
			if rng.Intn(5) == 0 {
				snaps[i].Draining = true
			}
		}
		idleBoards(rng, snaps)
		d := NewDispatcher(0.10)
		or := newLinearDispatcher(0.10)
		for batch := 0; batch < 2; batch++ {
			subs := randomSubs(rng, N)
			rb := d.Route(snaps, subs)
			wantPicks, wantU := or.route(snaps, subs)
			if len(subs) > 0 {
				checkRoutedBatch(t, snaps, subs, rb)
				if diff := sameRoute(d, rb, or, wantPicks, wantU); diff != "" {
					t.Fatalf("batch %d: %s", batch, diff)
				}
			}
			for i := range snaps {
				snaps[i].Price *= 1 + rng.Range(-0.3, 0.3)
			}
		}
	})
}

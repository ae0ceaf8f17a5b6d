package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

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

// scanMin is the linear oracle's board chooser: one full pass, cheapest
// admissible board, first strict minimum (= lowest board ID on ties) —
// exactly Dispatcher.Pick without the hysteresis overlay.
func scanMin(proj []Snapshot) int {
	best := -1
	for i := range proj {
		if !proj[i].Admissible() {
			continue
		}
		if best < 0 || proj[i].Price < proj[best].Price {
			best = i
		}
	}
	return best
}

// shardedOracle is the linear reference for ShardedDispatcher: one
// linear-scan Dispatcher per lane, picking and projecting one submission
// at a time over the lane's board range, plus a plain-code steal pass. No heaps, no
// goroutines — every decision is an O(B) scan, which is what makes it an
// oracle rather than a second copy of the implementation under test.
type shardedOracle struct {
	seed   uint64
	lanes  []*Dispatcher
	lo, hi []int
}

func newShardedOracle(boards, shards int, hysteresis float64, seed uint64) *shardedOracle {
	if shards > boards {
		shards = boards
	}
	if shards < 1 {
		shards = 1
	}
	o := &shardedOracle{seed: seed}
	base, rem := 0, 0
	if boards > 0 {
		base, rem = boards/shards, boards%shards
	}
	lo := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		o.lanes = append(o.lanes, NewDispatcher(hysteresis))
		o.lo = append(o.lo, lo)
		o.hi = append(o.hi, lo+size)
		lo += size
	}
	return o
}

// route mirrors ShardedDispatcher.Route's contract from first principles:
// home-lane linear-scan semantics with the steal-band deferral, then the
// arrival-ordered steal pass against the global (price, board ID) minimum
// over boards that were admissible at barrier start and remain admissible
// under projection (≡ the union of the lane heaps, by the monotone
// admissibility argument in DESIGN.md §10).
func (o *shardedOracle) route(snaps []Snapshot, subs []Submission, theta float64) (picks []int32, unrouted []int32) {
	B, S := len(snaps), len(o.lanes)
	proj := make([]Snapshot, B)
	copy(proj, snaps)
	startAdm := make([]bool, B)
	for i := range snaps {
		startAdm[i] = snaps[i].Admissible()
	}
	stealOn := S > 1 && theta >= 0
	stealBar := math.Inf(1)
	if stealOn {
		floor := math.Inf(1)
		for i := range snaps {
			if startAdm[i] && snaps[i].Price < floor {
				floor = snaps[i].Price
			}
		}
		stealBar = floor * (1 + theta)
	}

	picks = make([]int32, len(subs))
	for i := range picks {
		picks[i] = -1
	}
	home := make([][]int32, S)
	for si := range subs {
		s := 0
		if S > 1 {
			s = shardHome(o.seed, si, S)
		}
		home[s] = append(home[s], int32(si))
	}

	// Lane phase. Sequential — lanes project onto disjoint proj ranges,
	// so ordering between lanes cannot matter (that independence is part
	// of what this oracle pins).
	var deferred []int32
	for s := 0; s < S; s++ {
		ln := o.lanes[s]
		lproj := proj[o.lo[s]:o.hi[s]]
		for _, si := range home[s] {
			if m := scanMin(lproj); m >= 0 && stealOn && lproj[m].Price > stealBar {
				deferred = append(deferred, si) // lane made no decision: sticky unchanged
				continue
			}
			i := ln.Pick(lproj) // exhaustion resets sticky, like any failed pick
			if i < 0 {
				deferred = append(deferred, si)
				continue
			}
			picks[si] = int32(o.lo[s] + i)
			project(lproj, i, subs[si].Est)
		}
	}

	// Steal pass: arrival order, no hysteresis, global scan.
	sort.Slice(deferred, func(a, b int) bool { return deferred[a] < deferred[b] })
	for _, si := range deferred {
		best := -1
		for i := 0; i < B; i++ {
			if !startAdm[i] || !proj[i].Admissible() {
				continue
			}
			if best < 0 || proj[i].Price < proj[best].Price {
				best = i
			}
		}
		if best < 0 {
			unrouted = append(unrouted, si)
			continue
		}
		picks[si] = int32(best)
		project(proj, best, subs[si].Est)
	}
	return picks, unrouted
}

// lasts reports each lane's sticky choice as a global board ID (-1 when
// unset), comparable against ShardedDispatcher's lane state.
func (o *shardedOracle) lasts() []int {
	out := make([]int, len(o.lanes))
	for s, ln := range o.lanes {
		out[s] = ln.last
		if out[s] >= 0 {
			out[s] += o.lo[s]
		}
	}
	return out
}

// pickDigest folds a routing decision sequence into an FNV-1a digest —
// the routing-layer replay digest the equivalence tests compare.
func pickDigest(picks []int32) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for _, p := range picks {
		h ^= uint64(uint32(p))
		h *= prime
	}
	return h
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

// TestPropertyShardedMatchesLinearOracle is the tentpole pin: across
// shard counts S ∈ {1,2,4,8}, clean and faulted fleets, and the full
// steal-policy range (disabled / default band / zero band = maximal
// stealing), the sharded dispatcher's assignments, unrouted tails,
// per-lane sticky state and routing digests must equal the linear
// oracle's over multi-batch evolving snapshot sequences. At S=1 the
// oracle degenerates to one linear Dispatcher's decision loop, so the
// sharded path is pinned transitively to the fleet's original router.
// The fleet-level S × skew sweep lives in TestFleetReplaysBitIdentically.
func TestPropertyShardedMatchesLinearOracle(t *testing.T) {
	thetas := []float64{-1, 0, DefaultStealTheta}
	for _, S := range []int{1, 2, 4, 8} {
		for _, faulted := range []bool{false, true} {
			for _, theta := range thetas {
				S, faulted, theta := S, faulted, theta
				t.Run(fmt.Sprintf("S=%d/faulted=%v/theta=%v", S, faulted, theta), func(t *testing.T) {
					t.Parallel()
					f := func(seed uint64) bool {
						rng := sim.NewRand(seed)
						B := 1 + rng.Intn(12) // may be < S: shards clamp to the board count
						var snaps []Snapshot
						if faulted {
							snaps = randomSnaps(rng, B)
						} else {
							snaps = cleanSnaps(rng, B)
						}
						hseed := rng.Uint64()
						sd := NewShardedDispatcher(S, 0.10, hseed)
						sd.StealTheta = theta
						or := newShardedOracle(B, S, 0.10, hseed)
						for batch := 0; batch < 4; batch++ {
							subs := randomSubs(rng, rng.Intn(30))
							rb := sd.Route(snaps, subs)
							wantPicks, wantU := or.route(snaps, subs, theta)
							if len(subs) == 0 {
								if rb.Routed != 0 || len(rb.Unrouted) != 0 {
									t.Logf("seed %d batch %d: empty batch routed work", seed, batch)
									return false
								}
								continue
							}
							checkRoutedBatch(t, snaps, subs, rb)
							if got, want := pickDigest(rb.Picks), pickDigest(wantPicks); got != want {
								for si := range subs {
									if rb.Picks[si] != wantPicks[si] {
										t.Logf("seed %d batch %d: sub %d → board %d, oracle %d",
											seed, batch, si, rb.Picks[si], wantPicks[si])
										return false
									}
								}
								t.Logf("seed %d batch %d: digest %016x, oracle %016x", seed, batch, got, want)
								return false
							}
							if len(rb.Unrouted) != len(wantU) {
								t.Logf("seed %d batch %d: %d unrouted, oracle %d", seed, batch, len(rb.Unrouted), len(wantU))
								return false
							}
							wantLasts := or.lasts()
							for s := range sd.lanes {
								if sd.lanes[s].last != wantLasts[s] {
									t.Logf("seed %d batch %d: lane %d sticky %d, oracle %d",
										seed, batch, s, sd.lanes[s].last, wantLasts[s])
									return false
								}
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
					if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestShardedStealSpillsPricedOutShard exercises the steal band
// directly: every submission homes to a shard whose boards are far above
// the global floor, so the home lane defers and the steal pass must place
// the work on the cheap shard's boards in (price, board ID) order.
func TestShardedStealSpillsPricedOutShard(t *testing.T) {
	// Boards 0-1 cheap (shard 0), boards 2-3 expensive (shard 1) — more
	// than (1+θ)× the floor at θ = DefaultStealTheta.
	snaps := []Snapshot{snap(0, 0.10), snap(1, 0.12), snap(2, 0.90), snap(3, 0.95)}
	sd := NewShardedDispatcher(2, 0.10, 0x5eed)
	subs := randomSubs(sim.NewRand(1), 12)
	rb := sd.Route(snaps, subs)
	checkRoutedBatch(t, snaps, subs, rb)
	if rb.Routed != len(subs) {
		t.Fatalf("routed %d of %d with all boards healthy", rb.Routed, len(subs))
	}
	spilled := 0
	for si, p := range rb.Picks {
		home := shardHome(0x5eed, si, 2)
		if home == 1 && p < 2 {
			spilled++ // homed expensive, stolen by the cheap shard
		}
		if home == 1 && p >= 2 {
			t.Fatalf("sub %d homed to the priced-out shard and stayed there (board %d)", si, p)
		}
	}
	if spilled == 0 {
		t.Fatal("no submission homed to the expensive shard: fixture is inert")
	}
	// The expensive shard made no local decision, so its sticky state
	// must be untouched by its deferred submissions.
	if sd.lanes[1].last != -1 {
		t.Fatalf("priced-out lane sticky = %d, want -1 (no local pick)", sd.lanes[1].last)
	}
}

// TestShardedInterleavingDeterministic is the steal-order nondeterminism
// catch: the same 8-board faulted routing trace, run 50× with parallel
// lane goroutines under GOMAXPROCS ∈ {1, 4} (and once sequentially as
// the reference), must produce byte-identical routing digests every
// time. Run under -race this also proves the lanes share no state.
func TestShardedInterleavingDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	trace := func(parallel bool) uint64 {
		rng := sim.NewRand(0x1e1e)
		snaps := randomSnaps(rng, 8) // faulted: degraded/draining boards mixed in
		sd := NewShardedDispatcher(4, 0.10, 0xabcd)
		sd.SetParallel(parallel)
		h := uint64(0xcbf29ce484222325)
		for batch := 0; batch < 6; batch++ {
			subs := randomSubs(rng, 40)
			rb := sd.Route(snaps, subs)
			h ^= pickDigest(rb.Picks)
			h *= 0x100000001b3
			for i := range snaps {
				snaps[i].Price *= 1 + rng.Range(-0.2, 0.2)
				if rng.Intn(8) == 0 {
					snaps[i].Degraded = !snaps[i].Degraded
				}
			}
		}
		return h
	}

	want := trace(false) // sequential reference
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		for run := 0; run < 25; run++ {
			if got := trace(true); got != want {
				t.Fatalf("GOMAXPROCS=%d run %d: digest %016x, sequential reference %016x",
					gmp, run, got, want)
			}
		}
	}
}

// TestFleetShardedReplayAcrossGOMAXPROCS runs the full recorded fleet —
// sharded dispatcher, faulted board, bounded skew — under GOMAXPROCS 1
// and 4 and asserts bit-identical per-board replay digests: parallel
// lane routing and board goroutine interleaving must be invisible to
// the recorded timeline.
func TestFleetShardedReplayAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	a := runRecordedFleet(t, 4, 4)
	runtime.GOMAXPROCS(4)
	b := runRecordedFleet(t, 4, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("board %d: GOMAXPROCS=1 digest %016x, GOMAXPROCS=4 %016x", i, a[i], b[i])
		}
	}
}

// TestPropertyShardedFleetConserves is the conservation property under
// sharding: for every generated schedule and every shard count,
// submitted − shed = live + queued + in-flight at every barrier and
// after the flush.
func TestPropertyShardedFleetConserves(t *testing.T) {
	for _, S := range []int{1, 2, 4, 8} {
		S := S
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			f := func(seed uint64) bool {
				rng := sim.NewRand(seed)
				fl, err := New(Config{
					Boards:             6,
					Seed:               seed,
					Shards:             S,
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
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzRouteShardedVsLinear fuzzes the sharded dispatcher against the
// linear oracle over board count, shard count, steal policy, price and
// demand perturbations and degraded masks, and additionally asserts the
// RoutedBatch invariants and parallel ≡ sequential decisions.
func FuzzRouteShardedVsLinear(f *testing.F) {
	f.Add(uint64(1), uint(0), uint(4), uint(10), uint64(0), int8(10))          // empty fleet
	f.Add(uint64(2), uint(1), uint(4), uint(10), uint64(0), int8(10))          // single board
	f.Add(uint64(3), uint(6), uint(3), uint(12), uint64(0xffffffff), int8(10)) // all degraded
	f.Add(uint64(4), uint(12), uint(4), uint(40), uint64(0b1010), int8(-1))    // steal disabled
	f.Add(uint64(5), uint(9), uint(16), uint(30), uint64(0), int8(0))          // S > B, maximal stealing
	f.Fuzz(func(t *testing.T, seed uint64, boards, shards, nsubs uint, degMask uint64, theta8 int8) {
		B := int(boards % 33)
		S := int(shards%17) + 1
		N := int(nsubs % 129)
		theta := float64(theta8) / 10 // [-12.8, 12.7]
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
		hseed := rng.Uint64()
		sd := NewShardedDispatcher(S, 0.10, hseed)
		sd.StealTheta = theta
		sd.SetParallel(false)
		sp := NewShardedDispatcher(S, 0.10, hseed)
		sp.StealTheta = theta
		sp.SetParallel(true)
		or := newShardedOracle(B, S, 0.10, hseed)
		for batch := 0; batch < 2; batch++ {
			subs := randomSubs(rng, N)
			rb := sd.Route(snaps, subs)
			wantPicks, wantU := or.route(snaps, subs, theta)
			if len(subs) > 0 {
				checkRoutedBatch(t, snaps, subs, rb)
				for si := range subs {
					if rb.Picks[si] != wantPicks[si] {
						t.Fatalf("batch %d sub %d → board %d, linear oracle %d", batch, si, rb.Picks[si], wantPicks[si])
					}
				}
				if len(rb.Unrouted) != len(wantU) {
					t.Fatalf("batch %d: %d unrouted, oracle %d", batch, len(rb.Unrouted), len(wantU))
				}
				pb := sp.Route(snaps, subs)
				if pickDigest(pb.Picks) != pickDigest(rb.Picks) {
					t.Fatalf("batch %d: parallel lanes diverge from sequential", batch)
				}
			}
			for i := range snaps {
				snaps[i].Price *= 1 + rng.Range(-0.3, 0.3)
			}
		}
	})
}

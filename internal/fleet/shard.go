package fleet

import (
	"math"
	"runtime"
	"sync"

	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry/trace"
)

// DefaultStealTheta is the default work-steal band: a shard hands a
// submission to the cross-shard steal pass when its own cheapest
// admissible board is more than (1+θ)× the barrier-start global price
// floor. θ = 1 means "tolerate up to 2× the fleet's cheapest board before
// going cross-shard" — wide enough that the homogeneous-fleet common case
// (clustered prices) routes almost entirely shard-locally, tight enough
// that a shard whose boards are all degraded or priced out spills its work
// to the rest of the fleet instead of queueing it.
const DefaultStealTheta = 1.0

// Submission is a routable task: the spec plus its routing-time demand
// estimate. The estimate is a pure function of the spec (EstimateDemandPU),
// so the fleet computes it once at admission — instead of re-deriving it
// on every barrier retry — and the dispatcher's per-barrier hot loop
// never touches the workload registry.
type Submission struct {
	Spec task.Spec
	Est  float64 // estimated LITTLE-cluster demand in PU (EstimateDemandPU)
	// Trace is the submission's causal trace ID (0 = untraced). Assigned
	// at admission from the fleet's trace seed and the admission position,
	// so a replay of the same inputs reproduces the same IDs; requeued
	// evacuations keep their original ID across boards.
	Trace trace.ID
	// EnqueuedAt is the virtual time the submission (re-)entered the
	// admission queue — the queue-wait histogram's span start.
	EnqueuedAt sim.Time
}

// NewSubmission wraps a spec with its demand estimate.
func NewSubmission(spec task.Spec) Submission {
	return Submission{Spec: spec, Est: EstimateDemandPU(spec)}
}

// RoutedBatch is one barrier's routing decision in index form. Instead of
// materializing per-board spec slices (copying every routed spec, which
// dominates routing cost at large batches), the sharded dispatcher
// returns pick indices: the caller hands each board the shared
// read-only submission slice plus that board's index list.
//
// Memory contract: Picks, PerBoard (the outer slice and AddDemandPU /
// Unrouted) are dispatcher scratch, valid only until the next Route call.
// The int32 arrays backing the PerBoard entries are freshly allocated per
// call and may be retained (boards hold them across in-flight barriers
// under bounded skew).
type RoutedBatch struct {
	// Picks maps submission index → board ID (-1 = unrouted).
	Picks []int32
	// PerBoard maps board ID → its submissions' indices in arrival order
	// (nil for boards that got nothing, nil overall for an empty batch).
	PerBoard [][]int32
	// AddDemandPU is the estimated demand routed to each board this
	// barrier — the sum of its picks' Est fields.
	AddDemandPU []float64
	// Unrouted lists the submissions that found no admissible board
	// anywhere, in arrival order.
	Unrouted []int32
	// Stolen flags, per submission, whether the pick came from the
	// cross-shard steal pass rather than the home lane (always false with
	// one shard). The tracing layer stamps this as the queue span's class
	// so "where did the latency go" distinguishes home-lane routing from
	// overflow placement. Dispatcher scratch, like Picks.
	Stolen []bool
	// Routed counts the submissions that got a board.
	Routed int
}

// projEntry is the sharded dispatcher's projection of one board: just the
// fields a routing decision reads, pointer-free so the per-barrier
// projection build copies 32 bytes per board with no GC write barriers
// (Snapshot carries a string and a slice, so copying full snapshots costs
// a write-barrier per board on the hot path). live is the
// projection-invariant part of Admissible — draining/degraded/power —
// and demand < supply is the part demand projection can flip.
type projEntry struct {
	price  float64
	demand float64
	supply float64 // MaxSupplyPU
	live   bool    // !Crashed && !Stalled && !Draining && !Degraded && power headroom
}

func (e *projEntry) admissible() bool { return e.live && e.demand < e.supply }

// project charges one assignment's estimated demand against the board's
// projection and bumps the projected price proportionally: clearing
// prices grow with demand over supply, so scale by the added load
// fraction. A board with no price yet (idle market) gets a pseudo-price,
// so repeated picks still spread.
func (e *projEntry) project(est float64) {
	e.demand += est
	frac := est / e.supply
	if e.price > 0 {
		e.price *= 1 + frac
	} else {
		e.price = frac
	}
}

// shardIndex is a lane's price-ordered admissibility index: an indexed
// min-heap over the projections of the lane's boards that are admissible
// at the barrier, ordered by (price, board ID), rebuilt once per barrier
// and adjusted as demand projection bumps prices, so a pick costs
// O(log B) instead of an O(B) scan. The board-ID tie-break makes the heap
// minimum exactly the board a linear scan finds (its first strict
// minimum). Slots are int32 and prices live in a flat cache, so a sift
// touches a handful of contiguous words. Within a barrier projection only
// raises prices, so restoring order after a bump never needs an up-sift
// (sink).
type shardIndex struct {
	ents  []projEntry
	price []float64 // board ID → cached projected price (heap key)
	heap  []int32   // board IDs ordered by (price[i], i)
	pos   []int32   // board ID → heap slot, -1 when evicted/inadmissible
}

func (x *shardIndex) reset(ents []projEntry, lo, hi int) {
	x.ents = ents
	x.heap = x.heap[:0]
	if cap(x.pos) < len(ents) {
		x.pos = make([]int32, len(ents))
		x.price = make([]float64, len(ents))
	}
	x.pos = x.pos[:len(ents)]
	x.price = x.price[:len(ents)]
	for i := lo; i < hi; i++ {
		x.pos[i] = -1
		x.price[i] = ents[i].price
		if ents[i].admissible() {
			x.pos[i] = int32(len(x.heap))
			x.heap = append(x.heap, int32(i))
		}
	}
	for s := len(x.heap)/2 - 1; s >= 0; s-- {
		x.down(s)
	}
}

func (x *shardIndex) less(a, b int) bool {
	i, j := x.heap[a], x.heap[b]
	if x.price[i] != x.price[j] {
		return x.price[i] < x.price[j]
	}
	return i < j
}

func (x *shardIndex) swap(a, b int) {
	x.heap[a], x.heap[b] = x.heap[b], x.heap[a]
	x.pos[x.heap[a]] = int32(a)
	x.pos[x.heap[b]] = int32(b)
}

func (x *shardIndex) up(s int) {
	for s > 0 {
		parent := (s - 1) / 2
		if !x.less(s, parent) {
			return
		}
		x.swap(s, parent)
		s = parent
	}
}

func (x *shardIndex) down(s int) {
	n := len(x.heap)
	for {
		l := 2*s + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && x.less(r, l) {
			min = r
		}
		if !x.less(min, s) {
			return
		}
		x.swap(s, min)
		s = min
	}
}

func (x *shardIndex) min() int {
	if len(x.heap) == 0 {
		return -1
	}
	return int(x.heap[0])
}

func (x *shardIndex) contains(i int) bool {
	return i >= 0 && i < len(x.pos) && x.pos[i] >= 0
}

// sink restores heap order after ents[i].price rose. O(log B).
func (x *shardIndex) sink(i int) {
	s := x.pos[i]
	if s < 0 {
		return
	}
	x.price[i] = x.ents[i].price
	x.down(int(s))
}

// remove evicts board i — it projected past its supply ceiling.
func (x *shardIndex) remove(i int) {
	s := int(x.pos[i])
	if s < 0 {
		return
	}
	last := len(x.heap) - 1
	if s != last {
		x.swap(s, last)
	}
	x.heap = x.heap[:last]
	x.pos[i] = -1
	if s != last {
		x.up(s)
		x.down(s)
	}
}

// lane is one shard: a contiguous board range with its own price-ordered
// admissibility index and its own sticky-choice state. Lanes touch only
// their board range (and their own submissions) during the local phase, so
// they can run on separate goroutines with no synchronization beyond the
// join barrier.
type lane struct {
	lo, hi   int // board range [lo, hi)
	idx      shardIndex
	last     int // sticky pick, -1 before any pick (persists across barriers)
	mine     []int32
	deferred []int32
}

// ShardedDispatcher is the fleet's price router: cheapest clearing price
// first over the admissible boards, with hysteresis so small price
// wobbles between near-equal boards do not ping-pong consecutive
// submissions, over S disjoint board shards: submissions hash to a home shard by a seeded, barrier-stable key
// (position in the batch — so routing replays exactly from the recorded
// arrival order), each shard routes its own submissions against its own
// price index, and a sequential steal pass re-routes submissions whose
// home shard is exhausted or priced more than (1+StealTheta)× above the
// barrier-start global floor. Steals resolve in arrival order to the
// global (price, board ID) minimum across the per-shard heap minima, so
// the result is independent of goroutine interleaving — the parallel and
// sequential lane phases are decision-identical by construction (lanes
// write disjoint state) and pinned by tests.
//
// With Shards = 1 the steal band is disabled and routing is exactly the
// decision sequence of one linear admissibility scan per submission (same
// sticky hysteresis, same (price, board ID) tie-break, same unrouted
// tail); TestPropertyShardedMatchesLinearOracle and
// FuzzRouteShardedVsLinear pin this against the tests' linear oracle, and
// pin S > 1 against its per-shard composition plus a steal pass.
type ShardedDispatcher struct {
	// Hysteresis is the fractional price advantage a challenger board
	// must show over a lane's previous choice before the lane switches
	// away from it (default DefaultHysteresis via Fleet).
	Hysteresis float64
	// StealTheta is the steal band vs. the frozen barrier-start global
	// price floor; negative disables price-based stealing (shards then
	// defer to the steal pass only on exhaustion).
	StealTheta float64

	seed     uint64
	shards   int
	parallel bool

	boards int // board count the lanes were built for
	homeN  int // batch size the lanes' mine lists were hashed for (-1 = stale)
	lanes  []lane
	owner  []int32 // board ID → lane

	proj     []projEntry
	picks    []int32
	stolen   []bool
	counts   []int32
	addDPU   []float64
	perBoard [][]int32
	unrouted []int32
	cursors  []int
}

// NewShardedDispatcher builds a dispatcher over shards price-index shards.
// The seed fixes the submission→shard hash; the fleet derives it from the
// fleet seed so routing is part of the replayable timeline. Lane-local
// routing runs on parallel goroutines when the host has more than one CPU
// (results are identical either way; SetParallel forces it for tests).
func NewShardedDispatcher(shards int, hysteresis float64, seed uint64) *ShardedDispatcher {
	if shards < 1 {
		shards = 1
	}
	return &ShardedDispatcher{
		Hysteresis: hysteresis,
		StealTheta: DefaultStealTheta,
		seed:       seed,
		shards:     shards,
		parallel:   runtime.GOMAXPROCS(0) > 1 && shards > 1,
	}
}

// SetParallel forces lane-local routing on or off goroutines regardless of
// GOMAXPROCS. Decisions are identical either way; the interleaving stress
// test runs both and asserts it.
func (d *ShardedDispatcher) SetParallel(p bool) { d.parallel = p }

// Shards reports the configured shard count (lanes clamp to the board
// count per barrier).
func (d *ShardedDispatcher) Shards() int { return d.shards }

// shardHome is the seeded, barrier-stable submission→shard key: a pure
// hash of (seed, position in batch). Position — not spec content — keeps
// the hash balanced under repeated identical specs and replays exactly
// from the recorded arrival order.
func shardHome(seed uint64, si, shards int) int {
	return int(sim.DeriveSeed(seed, uint64(si)) % uint64(shards))
}

// ensure (re)builds lanes and scratch for a B-board fleet. Lane shape only
// changes when the board count does; sticky state survives across barriers
// otherwise.
func (d *ShardedDispatcher) ensure(B, nsubs int) int {
	S := d.shards
	if S > B {
		S = B
	}
	if S < 1 {
		S = 1
	}
	if B != d.boards || S != len(d.lanes) {
		d.boards = B
		d.homeN = -1
		d.lanes = make([]lane, S)
		d.owner = make([]int32, B)
		base, rem := B/S, B%S
		lo := 0
		for s := range d.lanes {
			size := base
			if s < rem {
				size++
			}
			d.lanes[s] = lane{lo: lo, hi: lo + size, last: -1}
			for i := lo; i < lo+size; i++ {
				d.owner[i] = int32(s)
			}
			lo += size
		}
	}
	if cap(d.proj) < B {
		d.proj = make([]projEntry, B)
		d.counts = make([]int32, B)
		d.addDPU = make([]float64, B)
		d.perBoard = make([][]int32, B)
	}
	if cap(d.picks) < nsubs {
		d.picks = make([]int32, nsubs)
		d.stolen = make([]bool, nsubs)
	}
	if cap(d.cursors) < S {
		d.cursors = make([]int, S)
	}
	return S
}

// Route assigns one barrier's submissions to boards. Phase 1 hashes each
// submission to its home lane and routes lanes locally (in parallel when
// enabled): each lane rebuilds its price index over the shared projection
// copy and picks exactly like the linear oracle restricted to its boards,
// deferring a submission when the lane is exhausted or its cheapest board
// breaches the steal band. Phase 2 is the sequential steal pass: deferred
// submissions, merged back into arrival order, each go to the global
// (price, board ID) minimum over the per-lane heap minima (the cross-shard
// price summary — S values, maintained for free by the lane heaps), with
// no hysteresis (a steal is an overflow placement, not a preference
// change; lane sticky state is untouched). Projection charges demand
// against the shared copy throughout.
func (d *ShardedDispatcher) Route(snaps []Snapshot, subs []Submission) RoutedBatch {
	if len(subs) == 0 {
		return RoutedBatch{}
	}
	B := len(snaps)
	S := d.ensure(B, len(subs))

	proj := d.proj[:B]
	for i := 0; i < B; i++ {
		s := &snaps[i]
		proj[i] = projEntry{
			price:  s.Price,
			demand: s.DemandPU,
			supply: s.MaxSupplyPU,
			live:   !s.Crashed && !s.Stalled && !s.Draining && !s.Degraded && (s.WthW <= 0 || s.SmoothedW < s.WthW),
		}
	}
	picks := d.picks[:len(subs)]
	stolen := d.stolen[:len(subs)]
	for si := range stolen {
		stolen[si] = false
	}
	counts := d.counts[:B]
	addDPU := d.addDPU[:B]
	for i := 0; i < B; i++ {
		counts[i] = 0
		addDPU[i] = 0
	}
	d.unrouted = d.unrouted[:0]

	// Home pass: hash each submission to its lane (arrival order within a
	// lane is preserved — appends walk si ascending). The hash depends
	// only on (seed, position, S), so the mine lists are reused verbatim
	// whenever consecutive barriers carry the same batch size — the
	// saturated-fleet steady state — and rehashed only on a size change.
	for s := range d.lanes {
		ln := &d.lanes[s]
		ln.deferred = ln.deferred[:0]
	}
	if d.homeN != len(subs) {
		for s := range d.lanes {
			d.lanes[s].mine = d.lanes[s].mine[:0]
		}
		if S == 1 {
			ln := &d.lanes[0]
			for si := range subs {
				ln.mine = append(ln.mine, int32(si))
			}
		} else {
			for si := range subs {
				ln := &d.lanes[shardHome(d.seed, si, S)]
				ln.mine = append(ln.mine, int32(si))
			}
		}
		d.homeN = len(subs)
	}

	// Freeze the barrier-start global price floor for the steal band.
	// Projection only raises prices within a barrier, so "home min above
	// (1+θ)×floor" is a conservative, deterministic spill trigger that
	// needs no cross-lane reads during the parallel phase.
	stealOn := S > 1 && d.StealTheta >= 0
	stealBar := math.Inf(1)
	if stealOn {
		floor := math.Inf(1)
		for i := 0; i < B; i++ {
			if proj[i].admissible() && proj[i].price < floor {
				floor = proj[i].price
			}
		}
		stealBar = floor * (1 + d.StealTheta)
	}

	// Phase 1: lane-local routing (index rebuild + picks), parallel when
	// enabled. Lanes touch disjoint slices of proj/counts/addDPU/picks, so
	// the result is interleaving-independent.
	if d.parallel && S > 1 {
		var wg sync.WaitGroup
		wg.Add(S)
		for s := 0; s < S; s++ {
			go func(ln *lane) {
				defer wg.Done()
				d.runLane(ln, subs, stealOn, stealBar)
			}(&d.lanes[s])
		}
		wg.Wait()
	} else {
		for s := 0; s < S; s++ {
			d.runLane(&d.lanes[s], subs, stealOn, stealBar)
		}
	}

	// Phase 2: the steal pass. Merge the (ascending) per-lane deferred
	// lists back into arrival order and resolve each against the global
	// cheapest admissible board.
	cur := d.cursors[:S]
	for s := range cur {
		cur[s] = 0
	}
	for {
		bestLane := -1
		var bestSi int32
		for s := 0; s < S; s++ {
			if dl := d.lanes[s].deferred; cur[s] < len(dl) {
				if bestLane < 0 || dl[cur[s]] < bestSi {
					bestLane, bestSi = s, dl[cur[s]]
				}
			}
		}
		if bestLane < 0 {
			break
		}
		cur[bestLane]++
		si := int(bestSi)
		best := -1
		for s := 0; s < S; s++ {
			if m := d.lanes[s].idx.min(); m >= 0 {
				if best < 0 || proj[m].price < proj[best].price ||
					(proj[m].price == proj[best].price && m < best) {
					best = m
				}
			}
		}
		if best < 0 {
			picks[si] = -1
			d.unrouted = append(d.unrouted, bestSi)
			continue
		}
		est := subs[si].Est
		picks[si] = int32(best)
		stolen[si] = true
		counts[best]++
		addDPU[best] += est
		proj[best].project(est)
		own := &d.lanes[d.owner[best]]
		if proj[best].admissible() {
			own.idx.sink(best)
		} else {
			own.idx.remove(best)
		}
	}

	// Index-bucketing pass: carve each board's pick list from one
	// exactly-sized arena (fresh per call — boards retain their lists
	// across in-flight barriers) and fill in arrival order.
	routed := len(subs) - len(d.unrouted)
	perBoard := d.perBoard[:B]
	for b := 0; b < B; b++ {
		perBoard[b] = nil
	}
	if routed > 0 {
		buf := make([]int32, routed)
		off := 0
		for b := 0; b < B; b++ {
			if c := int(counts[b]); c > 0 {
				perBoard[b] = buf[off : off : off+c]
				off += c
			}
		}
		for si := range subs {
			if p := picks[si]; p >= 0 {
				perBoard[p] = append(perBoard[p], int32(si))
			}
		}
	}
	return RoutedBatch{
		Picks:       picks,
		PerBoard:    perBoard,
		AddDemandPU: addDPU,
		Unrouted:    d.unrouted,
		Stolen:      stolen,
		Routed:      routed,
	}
}

// runLane routes one lane's home submissions against its board range:
// exactly the linear oracle's decision sequence restricted to [lo, hi) —
// cheapest admissible by (price, board ID), sticky hysteresis, projection
// bump, eviction on supply overrun — except that a submission is deferred
// to the steal pass when the lane is exhausted (sticky resets, as the
// linear scan's failed pick does) or when the lane's cheapest board
// breaches the steal band (sticky unchanged: the lane made no decision).
func (d *ShardedDispatcher) runLane(ln *lane, subs []Submission, stealOn bool, stealBar float64) {
	proj := d.proj[:d.boards]
	picks, counts, addDPU := d.picks, d.counts, d.addDPU
	ln.idx.reset(proj, ln.lo, ln.hi)
	for _, si := range ln.mine {
		best := ln.idx.min()
		if best < 0 {
			ln.last = -1
			picks[si] = -1
			ln.deferred = append(ln.deferred, si)
			continue
		}
		if stealOn && proj[best].price > stealBar {
			picks[si] = -1
			ln.deferred = append(ln.deferred, si)
			continue
		}
		if ln.last >= 0 && ln.last != best && ln.idx.contains(ln.last) {
			if proj[best].price >= proj[ln.last].price*(1-d.Hysteresis) {
				best = ln.last
			}
		}
		ln.last = best
		est := subs[si].Est
		picks[si] = int32(best)
		counts[best]++
		addDPU[best] += est
		proj[best].project(est)
		if proj[best].admissible() {
			ln.idx.sink(best)
		} else {
			ln.idx.remove(best)
		}
	}
}

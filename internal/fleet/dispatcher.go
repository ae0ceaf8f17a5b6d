package fleet

import (
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry/trace"
	"pricepower/internal/workload"
)

// defaultDemandPU is the routing-time demand estimate for a task with no
// profile and no usable spec data — roughly a medium Table 5 benchmark on
// a LITTLE core.
const defaultDemandPU = 300

// EstimateDemandPU predicts the LITTLE-cluster demand of a spec for
// routing purposes: the off-line profile when the task is registry-known,
// otherwise the spec's own first-phase cost at its target heart rate,
// otherwise a flat default. Routing only needs relative magnitudes — the
// market corrects any misprediction once the task lands.
func EstimateDemandPU(spec task.Spec) float64 {
	if p, ok := workload.ProfileFor(spec.Name); ok {
		return p.DemandLittle
	}
	if hr := spec.TargetHR(); hr > 0 && len(spec.Phases) > 0 {
		if d := spec.Phases[0].HBCostLittle * hr; d > 0 {
			return d
		}
	}
	return defaultDemandPU
}

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
// dominates routing cost at large batches), the dispatcher returns pick
// indices: the caller hands each board the shared read-only submission
// slice plus that board's index list.
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
	// Unrouted lists the submissions that found no admissible board, in
	// arrival order.
	Unrouted []int32
	// Routed counts the submissions that got a board.
	Routed int
}

// projEntry is the dispatcher's projection of one board: just the fields
// a routing decision reads, pointer-free so the per-barrier projection
// build copies 32 bytes per board with no GC write barriers (Snapshot
// carries a string and a slice, so copying full snapshots costs a
// write-barrier per board on the hot path). live is the
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

// priceIndex is the dispatcher's price-ordered admissibility index: an
// indexed min-heap over the projections of the boards that are admissible
// at the barrier, ordered by (price, board ID), rebuilt once per barrier
// and adjusted as demand projection bumps prices, so a pick costs
// O(log B) instead of an O(B) scan. The board-ID tie-break makes the heap
// minimum exactly the board a linear scan finds (its first strict
// minimum). Slots are int32 and prices live in a flat cache, so a sift
// touches a handful of contiguous words. Within a barrier projection only
// raises prices, so restoring order after a bump never needs an up-sift
// (sink).
type priceIndex struct {
	ents  []projEntry
	price []float64 // board ID → cached projected price (heap key)
	heap  []int32   // board IDs ordered by (price[i], i)
	pos   []int32   // board ID → heap slot, -1 when evicted/inadmissible
}

func (x *priceIndex) reset(ents []projEntry) {
	x.ents = ents
	x.heap = x.heap[:0]
	if cap(x.pos) < len(ents) {
		x.pos = make([]int32, len(ents))
		x.price = make([]float64, len(ents))
	}
	x.pos = x.pos[:len(ents)]
	x.price = x.price[:len(ents)]
	for i := range ents {
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

func (x *priceIndex) less(a, b int) bool {
	i, j := x.heap[a], x.heap[b]
	if x.price[i] != x.price[j] {
		return x.price[i] < x.price[j]
	}
	return i < j
}

func (x *priceIndex) swap(a, b int) {
	x.heap[a], x.heap[b] = x.heap[b], x.heap[a]
	x.pos[x.heap[a]] = int32(a)
	x.pos[x.heap[b]] = int32(b)
}

func (x *priceIndex) up(s int) {
	for s > 0 {
		parent := (s - 1) / 2
		if !x.less(s, parent) {
			return
		}
		x.swap(s, parent)
		s = parent
	}
}

func (x *priceIndex) down(s int) {
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

func (x *priceIndex) min() int {
	if len(x.heap) == 0 {
		return -1
	}
	return int(x.heap[0])
}

func (x *priceIndex) contains(i int) bool {
	return i >= 0 && i < len(x.pos) && x.pos[i] >= 0
}

// sink restores heap order after ents[i].price rose. O(log B).
func (x *priceIndex) sink(i int) {
	s := x.pos[i]
	if s < 0 {
		return
	}
	x.price[i] = x.ents[i].price
	x.down(int(s))
}

// remove evicts board i — it projected past its supply ceiling.
func (x *priceIndex) remove(i int) {
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

// Dispatcher is the fleet's price router: cheapest clearing price first
// over the admissible boards, with hysteresis so small price wobbles
// between near-equal boards do not ping-pong consecutive submissions.
// Each barrier it rebuilds one price index over the boards' projections
// and routes the submissions in arrival order, charging each pick's
// estimated demand against its board; once no board is admissible the
// rest of the batch is unrouted. The decisions are exactly those of one
// linear admissibility scan per submission (same sticky hysteresis, same
// (price, board ID) tie-break, same unrouted tail);
// TestPropertyDispatcherMatchesLinearOracle and FuzzRouteVsLinear pin
// this against the tests' linear oracle.
type Dispatcher struct {
	// Hysteresis is the fractional price advantage a challenger board
	// must show over the previous choice before the dispatcher switches
	// away from it (default DefaultHysteresis via Fleet).
	Hysteresis float64

	last int // sticky pick, -1 before any pick (persists across barriers)
	idx  priceIndex

	proj     []projEntry
	picks    []int32
	counts   []int32
	addDPU   []float64
	perBoard [][]int32
	unrouted []int32
}

// NewDispatcher builds a dispatcher with the given hysteresis.
func NewDispatcher(hysteresis float64) *Dispatcher {
	return &Dispatcher{Hysteresis: hysteresis, last: -1}
}

// ensure sizes the scratch for a B-board fleet and an nsubs batch.
func (d *Dispatcher) ensure(B, nsubs int) {
	if cap(d.proj) < B {
		d.proj = make([]projEntry, B)
		d.counts = make([]int32, B)
		d.addDPU = make([]float64, B)
		d.perBoard = make([][]int32, B)
	}
	if cap(d.picks) < nsubs {
		d.picks = make([]int32, nsubs)
	}
}

// Route assigns one barrier's submissions to boards: it rebuilds the price
// index over a projection of the snapshots, then picks the cheapest
// admissible board for each submission in arrival order — keeping the
// previous pick while it stays admissible and within the hysteresis band —
// and projects the pick's demand onto its board, evicting the board from
// the index once it projects past its supply ceiling.
func (d *Dispatcher) Route(snaps []Snapshot, subs []Submission) RoutedBatch {
	if len(subs) == 0 {
		return RoutedBatch{}
	}
	B := len(snaps)
	d.ensure(B, len(subs))

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
	counts := d.counts[:B]
	addDPU := d.addDPU[:B]
	for i := 0; i < B; i++ {
		counts[i] = 0
		addDPU[i] = 0
	}
	d.unrouted = d.unrouted[:0]

	d.idx.reset(proj)
	for si := range subs {
		best := d.idx.min()
		if best < 0 {
			d.last = -1
			picks[si] = -1
			d.unrouted = append(d.unrouted, int32(si))
			continue
		}
		if d.last >= 0 && d.last != best && d.idx.contains(d.last) {
			if proj[best].price >= proj[d.last].price*(1-d.Hysteresis) {
				best = d.last
			}
		}
		d.last = best
		est := subs[si].Est
		picks[si] = int32(best)
		counts[best]++
		addDPU[best] += est
		proj[best].project(est)
		if proj[best].admissible() {
			d.idx.sink(best)
		} else {
			d.idx.remove(best)
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
		Routed:      routed,
	}
}

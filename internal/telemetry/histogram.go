package telemetry

import (
	"fmt"
	"math"
	"sync"
)

// Histogram is a log-bucketed latency/duration distribution: counts land in
// geometrically growing buckets so one instrument spans microseconds to
// minutes with bounded error (a sample's bucket upper bound overestimates it
// by at most the growth factor). Histograms with identical layouts merge —
// the fleet layer k-way-merges per-board histograms into fleet-wide views —
// and register in a Registry beside counters and gauges (Registry.Histogram),
// so WriteSeriesProm renders them, with optional per-bucket trace-ID
// exemplars so a tail bucket links straight to a causal trace
// (/trace?id=...).
//
// All methods are mutex-guarded: boards record from their own goroutines
// while the HTTP layer snapshots. Recording is O(1) (a log2 and an add),
// cheap enough for per-barrier and per-round instrumentation but not meant
// for per-bid hot loops — the tracing layer's contract keeps those clean.
type Histogram struct {
	mu sync.Mutex

	lo     float64 // first bucket upper bound (> 0)
	growth float64 // bucket-to-bucket ratio (> 1)
	n      int     // bucket count; bucket n-1 is the +Inf overflow bucket

	counts    []uint64
	exemplars []Exemplar
	count     uint64
	sum       float64
	min, max  float64
}

// Exemplar links one recorded sample to its causal trace.
type Exemplar struct {
	Trace uint64  `json:"trace"`
	Value float64 `json:"value"`
	Valid bool    `json:"-"`
}

// NewLog builds a histogram with bucket upper bounds lo, lo·growth,
// lo·growth², …, with the last bucket catching everything above
// (rendered as le="+Inf"). lo must be positive, growth > 1, n ≥ 2.
func NewLog(lo, growth float64, n int) *Histogram {
	if !(lo > 0) || !(growth > 1) || n < 2 {
		panic(fmt.Sprintf("telemetry: invalid histogram layout lo=%v growth=%v n=%d", lo, growth, n))
	}
	return &Histogram{
		lo: lo, growth: growth, n: n,
		counts:    make([]uint64, n),
		exemplars: make([]Exemplar, n),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

// bucket maps a value to its bucket index. Values ≤ lo (including all
// non-positive ones) land in bucket 0; values past the last boundary land
// in the overflow bucket. The mapping never over- or under-flows the
// bucket array for any finite input (FuzzHistogramRecord pins this).
func (h *Histogram) bucket(v float64) int {
	if v <= h.lo {
		return 0
	}
	if math.IsInf(v, 1) {
		return h.n - 1
	}
	i := int(math.Ceil(math.Log(v/h.lo) / math.Log(h.growth)))
	if i < 0 { // log rounding on values just above lo
		i = 0
	}
	if i > h.n-1 {
		i = h.n - 1
	}
	return i
}

// Record adds one sample. NaN samples are dropped (they carry no ordering
// information and would poison the sum).
func (h *Histogram) Record(v float64) { h.RecordExemplar(v, 0) }

// RecordExemplar adds one sample and, when trace is non-zero, stamps it as
// the sample bucket's exemplar (latest wins) — the link from a histogram
// tail to the causal trace timeline.
func (h *Histogram) RecordExemplar(v float64, trace uint64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := h.bucket(v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if trace != 0 {
		h.exemplars[i] = Exemplar{Trace: trace, Value: v, Valid: true}
	}
	h.mu.Unlock()
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the sum of recorded samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile reports the q-quantile by the nearest-rank method over the
// bucket cumulative counts (the same rank rule as Series.Quantile): the
// upper bound of the bucket holding the rank-th sample, clamped to the
// observed [min, max] so the estimate never leaves the sampled range. The
// estimate v satisfies exact ≤ v ≤ exact·growth for samples away from the
// clamp edges. Empty histograms report NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.upperBound(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// upperBound reports bucket i's upper boundary (+Inf for the overflow
// bucket).
func (h *Histogram) upperBound(i int) float64 {
	if i >= h.n-1 {
		return math.Inf(1)
	}
	return h.lo * math.Pow(h.growth, float64(i))
}

// sameLayout reports whether two histograms are merge-compatible.
func (h *Histogram) sameLayout(o *Histogram) bool {
	return h.lo == o.lo && h.growth == o.growth && h.n == o.n
}

// Merge folds o into h. Merging is associative and commutative over the
// counts, sum, count and min/max; bucket exemplars are retained — a bucket
// that has no exemplar adopts the other histogram's, so no input's only
// exemplar is lost (when both carry one, the receiver's wins — an arbitrary
// but layout-independent rule). The layouts must match.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return fmt.Errorf("telemetry: merge with nil histogram")
	}
	if !h.sameLayout(o) {
		return fmt.Errorf("telemetry: histogram layout mismatch: (%g,%g,%d) vs (%g,%g,%d)",
			h.lo, h.growth, h.n, o.lo, o.growth, o.n)
	}
	// Lock ordering: snapshot o first to avoid holding both locks.
	os := o.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] += os.counts[i]
		if !h.exemplars[i].Valid && os.exemplars[i].Valid {
			h.exemplars[i] = os.exemplars[i]
		}
	}
	h.count += os.count
	h.sum += os.sum
	if os.min < h.min {
		h.min = os.min
	}
	if os.max > h.max {
		h.max = os.max
	}
	return nil
}

// Snapshot returns an independent copy — the unit of cross-board
// aggregation (merge snapshots, not live instruments, so the k-way fold
// never holds more than one board lock).
func (h *Histogram) Snapshot() *Histogram {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &Histogram{
		lo: h.lo, growth: h.growth, n: h.n,
		counts:    append([]uint64(nil), h.counts...),
		exemplars: append([]Exemplar(nil), h.exemplars...),
		count:     h.count,
		sum:       h.sum,
		min:       h.min,
		max:       h.max,
	}
	return c
}

// BucketCounts returns a copy of the per-bucket counts (tests and the JSON
// debug view).
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...)
}

// Exemplars returns a copy of the per-bucket exemplars.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Exemplar(nil), h.exemplars...)
}

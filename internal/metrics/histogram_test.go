// The histogram type lives in internal/telemetry, where it is a registry
// series kind; its tests stay here under their established names.
package metrics

import (
	"math"
	"strings"
	"testing"

	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
)

func testHist() *telemetry.Histogram { return telemetry.NewLog(1, 2, 16) }

func sumCounts(h *telemetry.Histogram) uint64 {
	var total uint64
	for _, c := range h.BucketCounts() {
		total += c
	}
	return total
}

func TestHistogramRecordBasics(t *testing.T) {
	h := testHist()
	for _, v := range []float64{0.5, 1, 2, 3, 1000, 1e12, -4, 0} {
		h.Record(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	if got := sumCounts(h); got != h.Count() {
		t.Fatalf("bucket counts sum %d != count %d", got, h.Count())
	}
	// NaN is dropped, not counted.
	h.Record(math.NaN())
	if got := h.Count(); got != 8 {
		t.Fatalf("NaN was counted: count = %d", got)
	}
	if h.Sum() != 0.5+1+2+3+1000+1e12-4 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

// TestHistogramMergeAssociativeCommutative pins the merge algebra the
// fleet-wide k-way aggregation relies on: (a+b)+c == a+(b+c) and
// a+b == b+a over counts, count, sum and min/max.
func TestHistogramMergeAssociativeCommutative(t *testing.T) {
	mk := func(n int, seed uint64) *telemetry.Histogram {
		h := testHist()
		r := sim.NewRand(seed)
		for i := 0; i < n; i++ {
			h.RecordExemplar(r.Range(0.1, 1e5), r.Uint64())
		}
		return h
	}
	a, b, c := mk(100, 1), mk(57, 2), mk(233, 3)

	equal := func(x, y *telemetry.Histogram) bool {
		xc, yc := x.BucketCounts(), y.BucketCounts()
		for i := range xc {
			if xc[i] != yc[i] {
				return false
			}
		}
		return x.Count() == y.Count() && x.Sum() == y.Sum() &&
			x.Quantile(0) == y.Quantile(0) && x.Quantile(1) == y.Quantile(1)
	}

	abc1 := a.Snapshot()
	if err := abc1.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := abc1.Merge(c); err != nil {
		t.Fatal(err)
	}
	bc := b.Snapshot()
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	abc2 := a.Snapshot()
	if err := abc2.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if !equal(abc1, abc2) {
		t.Error("merge is not associative")
	}

	ab := a.Snapshot()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Snapshot()
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	if !equal(ab, ba) {
		t.Error("merge is not commutative")
	}
}

func TestHistogramMergeLayoutMismatch(t *testing.T) {
	a := telemetry.NewLog(1, 2, 16)
	b := telemetry.NewLog(1, 2, 8)
	if err := a.Merge(b); err == nil {
		t.Fatal("layout mismatch merged without error")
	}
}

// TestHistogramExemplarRetention pins the merge rule: a bucket with no
// exemplar adopts the other side's, so no input's only exemplar is lost.
func TestHistogramExemplarRetention(t *testing.T) {
	a, b := testHist(), testHist()
	a.RecordExemplar(3, 0xaaaa)   // bucket for 3
	b.RecordExemplar(100, 0xbbbb) // different bucket
	b.RecordExemplar(3.5, 0xcccc) // same bucket as a's 3

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	var traces []uint64
	for _, ex := range a.Exemplars() {
		if ex.Valid {
			traces = append(traces, ex.Trace)
		}
	}
	if len(traces) != 2 {
		t.Fatalf("got %d exemplars, want 2 (%x)", len(traces), traces)
	}
	// a's own exemplar wins its bucket; b's exemplar survives in the
	// bucket a had none for.
	has := func(want uint64) bool {
		for _, tr := range traces {
			if tr == want {
				return true
			}
		}
		return false
	}
	if !has(0xaaaa) || !has(0xbbbb) {
		t.Errorf("exemplars after merge = %x, want aaaa and bbbb retained", traces)
	}
	if has(0xcccc) {
		t.Error("other side's exemplar overwrote the receiver's in a shared bucket")
	}
}

// TestHistogramQuantileAgreesWithSeries feeds identical samples to a
// Histogram and a Series and asserts the log-bucket estimate brackets the
// exact nearest-rank quantile within one growth factor — the bounded-error
// contract the tail-latency summaries rely on.
func TestHistogramQuantileAgreesWithSeries(t *testing.T) {
	h := telemetry.NewLog(1, 2, 40)
	var s Series
	r := sim.NewRand(11)
	for i := 0; i < 5000; i++ {
		// Stay inside (lo, second-to-last boundary) so no sample hits the
		// clamped edge buckets.
		v := math.Exp(r.Range(math.Log(2), math.Log(1e9)))
		h.Record(v)
		s.Add(sim.Time(i), v)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		exact := s.Quantile(q)
		est := h.Quantile(q)
		if est < exact-1e-9 || est > exact*2+1e-9 {
			t.Errorf("q=%.2f: histogram %g outside [exact %g, exact·growth %g]", q, est, exact, exact*2)
		}
	}
	var empty Series
	if math.IsNaN(empty.Quantile(0.5)) != math.IsNaN(telemetry.NewLog(1, 2, 4).Quantile(0.5)) {
		t.Error("empty-input NaN behaviour diverges from Series")
	}
}

// TestHistogramWritePromExposition renders a labeled registry histogram:
// le goes after the series' own labels, the exemplar rides on its bucket,
// and _sum/_count carry the labels alone.
func TestHistogramWritePromExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram(`x_ms{board="2"}`, "test histogram", 1, 2, 16)
	h.RecordExemplar(3, 0xbeef)
	h.Record(100)
	var sb strings.Builder
	if err := telemetry.WriteSeriesProm(&sb, reg.Export()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_ms histogram",
		`x_ms_bucket{board="2",le="+Inf"} 2`,
		`x_ms_bucket{board="2",le="4"} 1 # {trace_id="000000000000beef"} 3`,
		`x_ms_sum{board="2"} 103`,
		`x_ms_count{board="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// FuzzHistogramRecord pins the structural invariants for arbitrary inputs:
// no bucket index over/underflow (Record never panics) and count
// conservation (the bucket counts always sum to the sample count).
func FuzzHistogramRecord(f *testing.F) {
	f.Add(0.0, uint64(0))
	f.Add(-1.5, uint64(1))
	f.Add(1e300, uint64(2))
	f.Add(5e-324, uint64(3))
	f.Add(math.Inf(1), uint64(4))
	f.Add(math.Inf(-1), uint64(5))
	f.Add(math.NaN(), uint64(6))
	h := telemetry.NewLog(1, 2, 12)
	f.Fuzz(func(t *testing.T, v float64, trace uint64) {
		before := h.Count()
		h.RecordExemplar(v, trace)
		after := h.Count()
		if math.IsNaN(v) {
			if after != before {
				t.Fatalf("NaN changed count %d -> %d", before, after)
			}
		} else if after != before+1 {
			t.Fatalf("count %d -> %d after one sample", before, after)
		}
		if got := sumCounts(h); got != after {
			t.Fatalf("bucket sum %d != count %d", got, after)
		}
	})
}

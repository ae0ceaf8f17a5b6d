package federation

import (
	"errors"
	"math"
	"testing"
)

func TestPriceTraceValidate(t *testing.T) {
	iv := func(s, e, p float64) PriceInterval { return PriceInterval{StartH: s, EndH: e, PriceKWh: p} }
	cases := []struct {
		name string
		tr   PriceTrace
		want error // nil = valid
	}{
		{"valid single", PriceTrace{Intervals: []PriceInterval{iv(0, 24, 0.1)}}, nil},
		{"valid gaps", PriceTrace{Intervals: []PriceInterval{iv(0, 6, 0.1), iv(8, 20, 0.3), iv(20, 24, 0.15)}}, nil},
		{"valid zero price", PriceTrace{Intervals: []PriceInterval{iv(0, 24, 0)}}, nil},
		{"empty", PriceTrace{}, ErrTraceEmpty},
		{"nan price", PriceTrace{Intervals: []PriceInterval{iv(0, 24, math.NaN())}}, ErrBadPrice},
		{"inf price", PriceTrace{Intervals: []PriceInterval{iv(0, 24, math.Inf(1))}}, ErrBadPrice},
		{"negative price", PriceTrace{Intervals: []PriceInterval{iv(0, 24, -0.01)}}, ErrBadPrice},
		{"inverted window", PriceTrace{Intervals: []PriceInterval{iv(10, 4, 0.1)}}, ErrBadWindow},
		{"empty window", PriceTrace{Intervals: []PriceInterval{iv(4, 4, 0.1)}}, ErrBadWindow},
		{"negative start", PriceTrace{Intervals: []PriceInterval{iv(-1, 4, 0.1)}}, ErrBadWindow},
		{"nan start", PriceTrace{Intervals: []PriceInterval{iv(math.NaN(), 4, 0.1)}}, ErrBadWindow},
		{"unsorted", PriceTrace{Intervals: []PriceInterval{iv(12, 18, 0.1), iv(0, 6, 0.2)}}, ErrUnsorted},
		{"overlap", PriceTrace{Intervals: []PriceInterval{iv(0, 10, 0.1), iv(8, 20, 0.2)}}, ErrOverlap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tr.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestPriceTraceParseRejects(t *testing.T) {
	if _, err := ParsePriceTrace([]byte(`{"intervals": [], "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePriceTrace([]byte(`{"intervals":[{"start_h":0,"end_h":24,"price_kwh":0.12}]} {"name":"x"} garbage`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ParsePriceTrace([]byte(`{"intervals": []}`)); !errors.Is(err, ErrTraceEmpty) {
		t.Fatalf("empty trace: %v", err)
	}
	tr, err := ParsePriceTrace([]byte(`{"name":"us","intervals":[{"start_h":0,"end_h":24,"price_kwh":0.12}]}`))
	if err != nil || tr.Name != "us" || tr.PeriodH() != 24 {
		t.Fatalf("valid trace rejected: %v %+v", err, tr)
	}
}

func TestPriceAtWrapsAndHolds(t *testing.T) {
	tr := PriceTrace{Intervals: []PriceInterval{
		{StartH: 0, EndH: 6, PriceKWh: 0.05},
		{StartH: 8, EndH: 20, PriceKWh: 0.30}, // gap 6..8 holds 0.05
		{StartH: 20, EndH: 24, PriceKWh: 0.10},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ h, want float64 }{
		{0, 0.05}, {5.99, 0.05},
		{6, 0.05}, {7.5, 0.05}, // gap: hold previous
		{8, 0.30}, {19.99, 0.30},
		{20, 0.10}, {23.5, 0.10},
		{24, 0.05}, {30, 0.05}, // wrapped
		{48 + 9, 0.30}, // two cycles later
		{-2, 0.10},     // negative wraps into the tail
	}
	for _, tc := range cases {
		if got := tr.PriceAt(tc.h); got != tc.want {
			t.Errorf("PriceAt(%v) = %v, want %v", tc.h, got, tc.want)
		}
	}
	// A trace starting mid-day holds the last interval's price before
	// its first start (the previous cycle's tail).
	late := PriceTrace{Intervals: []PriceInterval{{StartH: 6, EndH: 24, PriceKWh: 0.2}}}
	if got := late.PriceAt(2); got != 0.2 {
		t.Errorf("pre-first-interval PriceAt(2) = %v, want 0.2", got)
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := Diurnal("d", 0.10, 0.06, 14, 24)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.PeriodH() != 24 {
		t.Fatalf("period = %v, want 24", tr.PeriodH())
	}
	peak, trough := tr.PriceAt(14), tr.PriceAt(2)
	if peak <= trough {
		t.Fatalf("peak %v not above trough %v", peak, trough)
	}
	if math.Abs(peak-0.16) > 0.01 || math.Abs(trough-0.04) > 0.01 {
		t.Fatalf("peak/trough = %v/%v, want ≈0.16/0.04", peak, trough)
	}
	// Clamping: amp > base must floor at 0, not go negative.
	deep := Diurnal("deep", 0.02, 0.10, 12, 24)
	for h := 0.0; h < 24; h += 0.5 {
		if p := deep.PriceAt(h); p < 0 {
			t.Fatalf("negative price %v at %vh", p, h)
		}
	}
}

// FuzzPriceTraceLookup drives the decode→validate→lookup pipeline with
// arbitrary bytes and hours: a validated trace is refused once data
// follows it, and must never return a negative, NaN, or infinite price
// for any finite hour.
func FuzzPriceTraceLookup(f *testing.F) {
	f.Add([]byte(`{"intervals":[{"start_h":0,"end_h":24,"price_kwh":0.12}]}`), 7.5)
	f.Add([]byte(`{"intervals":[{"start_h":0,"end_h":6,"price_kwh":0.05},{"start_h":8,"end_h":24,"price_kwh":0.3}]}`), 100.0)
	f.Add([]byte(`{"intervals":[{"start_h":2,"end_h":3,"price_kwh":0}]}`), -5.0)
	f.Add([]byte(`{"intervals":[{"start_h":0,"end_h":1e9,"price_kwh":1e9}]}`), 1e12)
	f.Add([]byte(`{"intervals":[]}`), 0.0)
	f.Fuzz(func(t *testing.T, data []byte, h float64) {
		tr, err := ParsePriceTrace(data)
		if err != nil {
			return // invalid schedules must be rejected, not crash
		}
		if _, err := ParsePriceTrace(append(data[:len(data):len(data)], " {}"...)); err == nil {
			t.Fatal("accepted a price trace followed by trailing data")
		}
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return
		}
		p := tr.PriceAt(h)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("PriceAt(%v) = %v on validated trace %+v", h, p, tr)
		}
	})
}

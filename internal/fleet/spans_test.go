package fleet

import (
	"fmt"
	"math"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
)

// A board whose scenario holds only board-level faults gets no platform
// injector, so it plays steady spans; its platform and market digests
// and its tasks' heart rates at every barrier, through the crash and the
// restart, equal the same board stepped per tick (Record on every board).
func TestCrashOnlyBoardSpans(t *testing.T) {
	build := func(record bool) *Fleet {
		f, err := New(Config{
			Boards:       2,
			Seed:         11,
			Record:       record,
			RestartAfter: 2,
			Faults:       map[int]fault.Scenario{1: crashScenario(6, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	spans, perTick := build(false), build(true)
	defer spans.Close()
	defer perTick.Close()
	for _, f := range []*Fleet{spans, perTick} {
		for i := 0; i < 8; i++ {
			f.Submit(lightSpec(fmt.Sprintf("t%d", i)))
		}
	}
	var spanned uint64
	crashes := 0
	for i := 0; i < 14; i++ {
		for _, f := range []*Fleet{spans, perTick} {
			if err := f.Step(); err != nil {
				if _, only := CrashErrors(err); !only {
					t.Fatal(err)
				}
				if f == spans {
					crashes++
				}
			}
		}
		a, b := boardChain(spans), boardChain(perTick)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("barrier %d: spans %s, per tick %s", i, a[j], b[j])
			}
		}
		if n := spanTicksOf(perTick.Boards()[1]); n != 0 {
			t.Fatalf("barrier %d: %d span ticks on a recorded board", i, n)
		}
		spanned = max(spanned, spanTicksOf(spans.Boards()[1]))
	}
	if crashes != 1 {
		t.Fatalf("%d crashes, want 1", crashes)
	}
	if spanned == 0 {
		t.Fatal("the crash-only board played no tick inside a span")
	}
}

// boardChain renders each board's platform and market digests and its
// tasks' heart rates as bits.
func boardChain(f *Fleet) []string {
	var out []string
	for _, b := range f.Boards() {
		p := b.p
		s := fmt.Sprintf("board %d platform %016x market %016x", b.ID,
			check.PlatformDigest(p), check.MarketDigest(b.gov.Market()))
		for _, tk := range p.Tasks() {
			s += fmt.Sprintf(" hr %x", math.Float64bits(tk.HeartRate(p.Now())))
		}
		out = append(out, s)
	}
	return out
}

func spanTicksOf(b *Board) uint64 {
	return b.Registry().Counter("pricepower_span_ticks_total", "").Value()
}

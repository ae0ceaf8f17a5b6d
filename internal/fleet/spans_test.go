package fleet

import (
	"fmt"
	"math"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
)

// idleFault is a platform fault whose window opens after any test's last
// step. Its injector perturbs nothing, but an attached injector makes a
// board compute every tick in full: no spans and no replayed ticks.
var idleFault = fault.Fault{Type: fault.PowerNoise, Cluster: -1, Start: 1 << 30, Rounds: 1, Magnitude: 1}

// A board whose scenario holds only board-level faults gets no platform
// injector, so it plays steady spans; its platform and market digests
// and its tasks' heart rates at every barrier, through the crash and the
// restart, equal the same board stepped per tick (Record on every board,
// which replays steady ticks) and the same board computing every tick in
// full (an idle platform fault on every board).
func TestCrashOnlyBoardSpans(t *testing.T) {
	build := func(record, full bool) *Fleet {
		faults := map[int]fault.Scenario{1: crashScenario(6, 1)}
		if full {
			faults[0] = fault.Scenario{Faults: []fault.Fault{idleFault}}
			faults[1] = fault.Scenario{Faults: append(crashScenario(6, 1).Faults, idleFault)}
		}
		f, err := New(Config{
			Boards:       2,
			Seed:         11,
			Record:       record,
			RestartAfter: 2,
			Faults:       faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	spans, perTick, full := build(false, false), build(true, false), build(false, true)
	defer spans.Close()
	defer perTick.Close()
	defer full.Close()
	fleets := []*Fleet{spans, perTick, full}
	for _, f := range fleets {
		for i := 0; i < 8; i++ {
			f.Submit(lightSpec(fmt.Sprintf("t%d", i)))
		}
	}
	var spanned uint64
	crashes := 0
	for i := 0; i < 14; i++ {
		for _, f := range fleets {
			if err := f.Step(); err != nil {
				if _, only := CrashErrors(err); !only {
					t.Fatal(err)
				}
				if f == spans {
					crashes++
				}
			}
		}
		a, b, c := boardChain(spans), boardChain(perTick), boardChain(full)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("barrier %d: spans %s, per tick %s", i, a[j], b[j])
			}
			if a[j] != c[j] {
				t.Fatalf("barrier %d: spans %s, full ticks %s", i, a[j], c[j])
			}
		}
		if n := spanTicksOf(perTick.Boards()[1]); n != 0 {
			t.Fatalf("barrier %d: %d span ticks on a recorded board", i, n)
		}
		for _, b := range full.Boards() {
			if n, r := spanTicksOf(b), replayTicksOf(b); n != 0 || r != 0 {
				t.Fatalf("barrier %d: %d span and %d replayed ticks on a board with an injector", i, n, r)
			}
		}
		spanned = max(spanned, spanTicksOf(spans.Boards()[1]))
	}
	if crashes != 1 {
		t.Fatalf("%d crashes, want 1", crashes)
	}
	if spanned == 0 {
		t.Fatal("the crash-only board played no tick inside a span")
	}
	if replayTicksOf(perTick.Boards()[1]) == 0 {
		t.Fatal("the recorded board replayed no tick; the full-tick oracle adds nothing")
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

func replayTicksOf(b *Board) uint64 {
	return b.Registry().Counter("pricepower_replay_ticks_total", "").Value()
}

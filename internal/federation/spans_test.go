package federation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// idleFault is a platform fault whose window opens after any test's last
// epoch. Its injector perturbs nothing, but an attached injector makes a
// board compute every tick in full: no spans and no replayed ticks.
var idleFault = fault.Fault{Type: fault.PowerNoise, Cluster: -1, Start: 1 << 30, Rounds: 1, Magnitude: 1}

// TestFederationSpansMatchPerTick: the boards' steady spans change nothing
// a federation observes. One trace — finite and looping tasks, a board
// crash and restart, a region outage, migrations — runs with spans, with
// Record on every board (the replay recorder is a per-tick checker, so
// every board then steps tick by tick, as in the replay digests, but
// replays its steady ticks), and with an idle platform fault on every
// board (every tick computed in full). Every epoch's board snapshots
// (energy and completed counts included), region accounting, federation
// state and digest vector must match bit for bit.
func TestFederationSpansMatchPerTick(t *testing.T) {
	build := func(perTick, full bool) *Federation {
		cfg := faultedConfig(31)
		cfg.Check = false // it would attach a per-tick checker to every board
		for i := range cfg.Regions {
			fl := &cfg.Regions[i].Fleet
			fl.Record = perTick
			if !full {
				continue
			}
			faults := make(map[int]fault.Scenario, fl.Boards)
			for b := range fl.Boards {
				sc := fl.Faults[b]
				sc.Faults = append(slices.Clone(sc.Faults), idleFault)
				faults[b] = sc
			}
			fl.Faults = faults
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	spans, perTick, full := build(false, false), build(true, false), build(false, true)
	defer spans.Close()
	defer perTick.Close()
	defer full.Close()

	finite := func(name string, d sim.Time) task.Spec {
		s := fedSpec(name, 2)
		s.Loop = false
		s.Phases[0].Duration = d
		return s
	}
	for epoch := 1; epoch <= 12; epoch++ {
		for _, f := range []*Federation{spans, perTick, full} {
			f.Submit(fedSpec("w", 1), finite("short", 230*sim.Millisecond), finite("long", 610*sim.Millisecond))
			if _, err := f.SubmitTo(0, fedHeavy("p", 1), fedHeavy("p", 1), finite("pinned", 170*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
			mustStep(t, f)
			if err := check.CheckFederationConservation(f); err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
		}
		a := spanObservables(spans)
		for _, o := range []struct {
			name string
			f    *Federation
		}{{"per tick", perTick}, {"full ticks", full}} {
			b := spanObservables(o.f)
			if len(a) != len(b) {
				t.Fatalf("epoch %d: %d observables with spans, %d %s", epoch, len(a), len(b), o.name)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("epoch %d: spans %s\n%s %s", epoch, a[i], o.name, b[i])
				}
			}
		}
	}
	if n := spanTicks(spans); n == 0 {
		t.Fatal("no board played a tick inside a span")
	}
	if n := spanTicks(perTick); n != 0 {
		t.Fatalf("%d span ticks with a recorder on every board", n)
	}
	if n := boardCounter(perTick, "pricepower_replay_ticks_total"); n == 0 {
		t.Fatal("no recorded board replayed a tick; the full-tick oracle adds nothing")
	}
	if n, r := spanTicks(full), boardCounter(full, "pricepower_replay_ticks_total"); n != 0 || r != 0 {
		t.Fatalf("%d span and %d replayed ticks with an injector on every board", n, r)
	}
	st := spans.StateSnapshot()
	completed := 0
	for _, r := range st.Regions {
		completed += r.Completed
	}
	if completed == 0 || st.Counters.Migrations == 0 || st.Counters.BoardCrashes == 0 {
		t.Fatalf("completed %d, migrations %d, crashes %d: the trace must exercise all three",
			completed, st.Counters.Migrations, st.Counters.BoardCrashes)
	}
}

// spanObservables renders everything the federation layer can observe of
// its boards, float fields as bits.
func spanObservables(f *Federation) []string {
	out := []string{fmt.Sprintf("digests %x", f.DigestVector()), fmt.Sprintf("state %+v", f.StateSnapshot())}
	for _, r := range f.regions {
		out = append(out, fmt.Sprintf("region %s energy %x cost %x revenue %x", r.Name,
			math.Float64bits(r.energyKWh), math.Float64bits(r.costUSD), math.Float64bits(r.revenueUSD)))
		for _, s := range r.fl.StateSnapshot().Boards {
			out = append(out, fmt.Sprintf("region %s board %d energy %x completed %d %+v", r.Name,
				s.Board, math.Float64bits(s.EnergyJ), s.Completed, s))
		}
	}
	return out
}

// spanTicks sums the boards' span-tick counters.
func spanTicks(f *Federation) uint64 {
	return boardCounter(f, "pricepower_span_ticks_total")
}

// boardCounter sums one counter over every board.
func boardCounter(f *Federation, name string) uint64 {
	var n uint64
	for _, r := range f.regions {
		for _, b := range r.fl.Boards() {
			n += b.Registry().Counter(name, "").Value()
		}
	}
	return n
}

package exp

import (
	"bytes"
	"testing"

	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
	"pricepower/internal/workload"
)

// TestThrottleEpisodeReconstructedFromJSONL is the end-to-end acceptance
// test for the telemetry layer: a PPM run over a high-intensity workload
// under a tight 4 W TDP (the Figure 6/8 regime) is captured as JSONL, and
// the resulting stream must let a reader reconstruct a complete throttle
// episode — the chip agent's entry into a throttling state, the DVFS
// downward response that follows it, and the time-ordering between them —
// along with the hardware context (/state-style snapshots are live-only;
// the durable record is this event stream).
func TestThrottleEpisodeReconstructedFromJSONL(t *testing.T) {
	set, ok := workload.SetByName("h2")
	if !ok {
		t.Fatal("workload set h2 missing")
	}
	var buf bytes.Buffer
	sink := telemetry.NewJSONL(&buf)
	em := telemetry.NewEmitter(telemetry.NewRegistry(), sink)

	if _, err := RunSetOpts("PPM", set, 4.0, 20*sim.Second, RunOptions{Telemetry: em}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("JSONL stream unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream from a throttling run")
	}

	// Locate the first throttle entry (normal → threshold/emergency).
	entry := -1
	for i, ev := range events {
		if ev.Kind == telemetry.KindThrottle && ev.Name != "normal" {
			entry = i
			break
		}
	}
	if entry < 0 {
		t.Fatal("no throttle entry in a 4 W TDP run of set h2")
	}
	ent := events[entry]
	if ent.Time <= 0 {
		t.Errorf("throttle entry has no timestamp: %+v", ent)
	}
	if ent.Value <= 0 {
		t.Errorf("throttle entry has no smoothed-power reading: %+v", ent)
	}

	// The throttling response: a DVFS step down (price control or the
	// emergency backstop) at or after the entry, time-ordered with it.
	response := false
	for _, ev := range events[entry:] {
		if ev.Kind == telemetry.KindDVFS && (ev.Class == "down" || ev.Class == "force") {
			if ev.Time < ent.Time {
				t.Fatalf("DVFS response at t=%v precedes throttle entry at t=%v", ev.Time, ent.Time)
			}
			if ev.Value >= ev.Prev {
				t.Fatalf("downward DVFS event raised supply: %+v", ev)
			}
			response = true
			break
		}
	}
	if !response {
		t.Error("no downward DVFS event follows the throttle entry")
	}

	// Episodes resolve: a later transition out of the entered state exists
	// (back to normal, or emergency→threshold as the allowance cut bites).
	exit := false
	for _, ev := range events[entry+1:] {
		if ev.Kind == telemetry.KindThrottle && ev.Name != ent.Name {
			exit = true
			break
		}
	}
	if !exit {
		t.Error("throttle state never transitioned again — episode cannot be bounded")
	}

	// Timestamps are monotone non-decreasing, so the stream is a timeline.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("event %d at t=%v precedes event %d at t=%v",
				i, events[i].Time, i-1, events[i-1].Time)
		}
	}

	// Allowance redistribution events carry the throttling context.
	sawCurbed := false
	for _, ev := range events {
		if ev.Kind == telemetry.KindAllowance && ev.Name != "normal" {
			sawCurbed = true
			break
		}
	}
	if !sawCurbed {
		t.Error("no allowance event tagged with a throttling state")
	}
}

// TestPaperRunsReplaySteadyTicks measures how much of a paper run the
// platform replays: every Table 6 set under PPM, free and at 4 W, with the
// probe and the thermal model RunSpecs attaches (so no tick is spanned).
// Between bid rounds nothing the fill depends on changes, so nearly every
// tick should repeat the last full one.
func TestPaperRunsReplaySteadyTicks(t *testing.T) {
	var ticks, replayed uint64
	for _, set := range workload.Sets {
		for _, tdp := range []float64{0, 4} {
			reg := telemetry.NewRegistry()
			em := telemetry.NewEmitter(reg)
			em.SetKinds(0)
			if _, err := RunSetOpts("PPM", set, tdp, 5*sim.Second, RunOptions{Telemetry: em}); err != nil {
				t.Fatal(err)
			}
			ticks += reg.Counter("pricepower_ticks_total", "").Value()
			replayed += reg.Counter("pricepower_replay_ticks_total", "").Value()
			if n := reg.Counter("pricepower_span_ticks_total", "").Value(); n != 0 {
				t.Errorf("%s at %g W: %d ticks spanned beside the probe", set.Name, tdp, n)
			}
		}
	}
	share := float64(replayed) / float64(ticks)
	t.Logf("replayed %d of %d ticks (%.1f%%)", replayed, ticks, 100*share)
	if share < 0.9 {
		t.Errorf("replayed %.1f%% of the paper runs' ticks, want at least 90%%", 100*share)
	}
}

package telemetry

import (
	"strings"
	"testing"

	"pricepower/internal/sim"
)

// collectSink gathers events for assertions (tests only; not concurrent).
type collectSink struct{ evs []Event }

func (c *collectSink) Emit(ev Event) { c.evs = append(c.evs, ev) }

func TestNilEmitterIsInert(t *testing.T) {
	var em *Emitter
	if em.Enabled(KindDVFS) {
		t.Error("nil emitter reports kinds enabled")
	}
	em.Emit(E(KindDVFS)) // must not panic
	em.SetKinds(AllKinds)
	em.SetClock(func() sim.Time { return 1 })
	em.PublishState(func(s *State) { t.Error("nil emitter ran a state publish") })
	if _, ok := em.StateSnapshot(); ok {
		t.Error("nil emitter produced a state snapshot")
	}
	if em.Registry() != nil {
		t.Error("nil emitter has a registry")
	}
}

func TestEmitterMaskAndStamping(t *testing.T) {
	var got collectSink
	em := NewEmitter(nil, &got)
	em.SetClock(func() sim.Time { return 42 * sim.Millisecond })

	// Default mask drops the high-volume kinds…
	em.Emit(E(KindBid))
	em.Emit(E(KindPrice))
	em.Emit(E(KindClearing))
	if len(got.evs) != 0 {
		t.Fatalf("default mask passed %d high-volume events", len(got.evs))
	}
	if em.Enabled(KindBid) || !em.Enabled(KindDVFS) {
		t.Error("DefaultKinds mask wrong: bid enabled or dvfs disabled")
	}
	// …and passes the rest, stamped with the clock.
	ev := E(KindDVFS)
	ev.Cluster = 3
	em.Emit(ev)
	if len(got.evs) != 1 {
		t.Fatalf("got %d events, want 1", len(got.evs))
	}
	if got.evs[0].Time != 42*sim.Millisecond {
		t.Errorf("event time %v, want 42ms stamp", got.evs[0].Time)
	}
	if got.evs[0].Cluster != 3 || got.evs[0].Core != -1 || got.evs[0].Task != -1 {
		t.Errorf("E() ids not preserved/blanked: %+v", got.evs[0])
	}

	// Widening the mask admits the high-volume kinds.
	em.SetKinds(AllKinds)
	em.Emit(E(KindBid))
	if len(got.evs) != 2 {
		t.Errorf("AllKinds mask dropped a bid event")
	}
}

func TestEmitterCountsPerKind(t *testing.T) {
	reg := NewRegistry()
	em := NewEmitter(reg)
	em.SetKinds(AllKinds)
	for i := 0; i < 3; i++ {
		em.Emit(E(KindMigration))
	}
	em.Emit(E(KindThrottle))
	out := render(t, reg)
	for _, want := range []string{
		`pricepower_events_total{kind="migration"} 3`,
		`pricepower_events_total{kind="throttle"} 1`,
		`pricepower_events_total{kind="bid"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFilterSinkMaskAndSampling(t *testing.T) {
	var got collectSink
	f := NewFilter(&got, Kinds(KindBid))
	for i := 0; i < 9; i++ {
		f.Emit(E(KindBid))
		f.Emit(E(KindDVFS)) // masked out
	}
	if len(got.evs) != 9 {
		t.Errorf("filter passed %d of 9 bids, want all 9", len(got.evs))
	}
	for _, ev := range got.evs {
		if ev.Kind != KindBid {
			t.Errorf("filter passed masked kind %v", ev.Kind)
		}
	}
}

func TestStatePublishMergesPlatformAndMarketHalves(t *testing.T) {
	em := NewEmitter(nil)
	if _, ok := em.StateSnapshot(); ok {
		t.Fatal("snapshot available before any publish")
	}
	em.PublishState(func(s *State) {
		s.Time = sim.Second
		s.ChipPowerW = 3.5
		c := s.Cluster(1)
		c.Name, c.FreqMHz, c.On = "big", 1000, true
	})
	em.PublishState(func(s *State) {
		s.Round = 7
		s.MarketState = "threshold"
		s.Cluster(1).Price = 0.25
	})
	st, ok := em.StateSnapshot()
	if !ok {
		t.Fatal("no snapshot after publishing")
	}
	if st.ChipPowerW != 3.5 || st.Round != 7 || st.MarketState != "threshold" {
		t.Errorf("merged snapshot wrong: %+v", st)
	}
	if len(st.Clusters) != 2 {
		t.Fatalf("snapshot has %d clusters, want 2 (grown by Cluster(1))", len(st.Clusters))
	}
	c := st.Clusters[1]
	if c.Name != "big" || c.FreqMHz != 1000 || !c.On || c.Price != 0.25 {
		t.Errorf("cluster row lost a half: %+v", c)
	}
	// The snapshot is a copy: mutating it must not leak into the emitter.
	st.Clusters[1].Price = 99
	st2, _ := em.StateSnapshot()
	if st2.Clusters[1].Price != 0.25 {
		t.Error("StateSnapshot aliases the live state")
	}
}

func TestKindRoundTripsThroughText(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unknown kind name accepted")
	}
}

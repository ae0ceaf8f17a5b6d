package federation

import (
	"fmt"
	"reflect"
	"testing"

	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// crashBoards lists the boards a crash-only step error reports, in
// order; nil for no error. Any other error fails the test.
func crashBoards(t *testing.T, err error) []int {
	t.Helper()
	if err == nil {
		return nil
	}
	crashes, only := fleet.CrashErrors(err)
	if !only {
		t.Fatal(err)
	}
	var out []int
	for _, ce := range crashes {
		out = append(out, ce.Board)
	}
	return out
}

// TestOneRegionMatchesFleet pins that a fleet is a federation with one
// region: a one-region federation with a flat price and one barrier per
// epoch steps its fleet exactly like a bare fleet.New under the region's
// derived seed, fed the same due-now submissions. Counters agree at every
// barrier; at settled points (after a flush, since bounded-skew boards
// run ahead) the trace digest vectors and the whole fleet state agree
// too. Swept over K ∈ {0,4} × S ∈ {1,2} with tracing and degraded
// auto-drain, plus a sensor dropout and a supervised crash with restart.
func TestOneRegionMatchesFleet(t *testing.T) {
	dropout := map[int]fault.Scenario{1: {Faults: []fault.Fault{
		{Type: fault.PowerDropout, Cluster: -1, Start: 10, Rounds: 200}}}}
	crash := map[int]fault.Scenario{2: {Faults: []fault.Fault{
		{Type: fault.BoardCrash, Start: 12, Rounds: 1}}}}
	type tc struct {
		name         string
		skew, shards int
		faults       map[int]fault.Scenario
		restartAfter int
	}
	var cases []tc
	for _, k := range []int{0, 4} {
		for _, s := range []int{1, 2} {
			cases = append(cases, tc{name: fmt.Sprintf("K=%d/S=%d", k, s), skew: k, shards: s})
		}
	}
	cases = append(cases,
		tc{name: "dropout", skew: 4, shards: 2, faults: dropout},
		tc{name: "crash-restart", skew: 4, shards: 2, faults: crash, restartAfter: 3},
	)
	specs := []task.Spec{
		fedSpec("loop", 1), fedHeavy("heavy", 2),
		{Name: "fin", Priority: 3, MinHR: 4, MaxHR: 6,
			Phases: []task.Phase{{Duration: 400 * sim.Millisecond, HBCostLittle: 20, SpeedupBig: 1.8}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 0x51de
			fc := fleet.Config{
				Boards: 4, Shards: c.shards, MaxSkew: c.skew, Trace: true,
				DrainDegradedAfter: 3, RestartAfter: c.restartAfter, Faults: c.faults,
			}
			fed, err := New(Config{Seed: seed, EpochBarriers: 1, Regions: []RegionConfig{
				{Name: "solo", Fleet: fc, Price: flat(0.1)},
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer fed.Close()
			fc.Seed = sim.DeriveSeed(sim.DeriveSeed(seed, regionSeedStream), 0)
			fl, err := fleet.New(fc)
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			inner := fed.Regions()[0].Fleet()

			settled := func(at int) {
				t.Helper()
				if !reflect.DeepEqual(crashBoards(t, fed.Flush()), crashBoards(t, fl.Flush())) {
					t.Fatalf("barrier %d: flush errors differ", at)
				}
				if a, b := inner.Tracer().Digests(), fl.Tracer().Digests(); !reflect.DeepEqual(a, b) {
					t.Fatalf("barrier %d: trace digests differ:\n  federation %x\n  fleet      %x", at, a, b)
				}
				if a, b := inner.StateSnapshot(), fl.StateSnapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("barrier %d: state differs:\n  federation %+v\n  fleet      %+v", at, a, b)
				}
			}
			crashes := 0
			for b := 1; b <= 40; b++ {
				if b%3 == 1 {
					for i, s := range specs {
						s.Name = fmt.Sprintf("%s-%d-%d", s.Name, b, i)
						fed.Submit(s)
						fl.Submit(s)
					}
				}
				fe, le := crashBoards(t, fed.Step()), crashBoards(t, fl.Step())
				if !reflect.DeepEqual(fe, le) {
					t.Fatalf("barrier %d: federation crashes %v, fleet crashes %v", b, fe, le)
				}
				crashes += len(fe)
				if a, b2 := inner.StateSnapshot().Counters, fl.StateSnapshot().Counters; a != b2 {
					t.Fatalf("barrier %d: counters differ:\n  federation %+v\n  fleet      %+v", b, a, b2)
				}
				if b == 20 {
					settled(b)
				}
			}
			settled(40)
			st := fl.StateSnapshot()
			if st.Counters.Submitted == 0 || st.Live()+st.Completed == 0 {
				t.Fatalf("nothing ran: %+v", st.Counters)
			}
			if c.restartAfter > 0 && (crashes == 0 || st.Counters.Restarts == 0) {
				t.Fatalf("crash case saw %d crashes, %d restarts", crashes, st.Counters.Restarts)
			}
			if c.faults != nil && c.restartAfter == 0 && st.Counters.Drained == 0 {
				t.Fatal("dropout case never drained the degraded board")
			}
		})
	}
}

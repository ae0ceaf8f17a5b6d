// Scalability harness for the simulation hot paths: platform tick
// throughput vs task count (and its zero-allocation steady-state
// invariant), market round latency vs cluster count, and the fleet's
// dispatch and barrier stepping. Compare runs with
// `go test -run '^$' -bench <name> -cpu 1,2 -count 5 .`; the end-to-end
// benchmark with per-layer splits is perfbench (see EXPERIMENTS.md).
package pricepower_test

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"

	"pricepower/internal/exp"
	"pricepower/internal/fleet"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// newLoadedPlatform builds a TC2 platform with n tasks spread across all
// five cores, mixing CPU-bound and self-capped specs so the fill loop sees
// both saturated and slack entities, then warms it up for one virtual
// second so migrations and PELT windows settle into steady state.
func newLoadedPlatform(n int) *platform.Platform {
	p := platform.NewTC2()
	numCores := 0
	for _, cl := range p.Chip.Clusters {
		numCores += len(cl.Cores)
	}
	for i := 0; i < n; i++ {
		demand := 120 + 90*float64(i%7)
		spec := task.Spec{
			Name:     fmt.Sprintf("t%03d", i),
			Priority: 1 + i%3,
			MinHR:    24,
			MaxHR:    30,
			Phases:   []task.Phase{{HBCostLittle: demand / 27, SpeedupBig: 2}},
			Loop:     true,
		}
		if i%4 == 3 {
			spec.Phases[0].SelfCapHR = 20 // some tasks leave slack on the core
		}
		p.AddTask(spec, i%numCores)
	}
	p.Run(sim.Second)
	return p
}

// TestTickAllocationFree pins the tentpole invariant: once the platform is
// in steady state (no add/remove/migrate in flight), a tick allocates
// nothing — the per-core index, the entities' delivered-work fields, the
// per-cluster power samples, the scheduler's scratch buffers and the
// completion report are all reused, under the fluid and the discrete
// scheduling model alike, and in ticks where tasks exit (drained after
// every tick, as a fleet board drains at its barrier). Each case measures
// a whole 200-tick window as one run, so a single allocation anywhere in
// it fails the test. The "spans" case runs whole PPM bid periods through
// Platform.Run, steady spans included; the "replay" case does the same
// beside a probe and a thermal model, replayed ticks included.
func TestTickAllocationFree(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     sim.Time
		exits bool
	}{
		{"fluid", 0, false},
		{"discrete", 250 * sim.Microsecond, false},
		{"exits", 0, true},
	} {
		p := newLoadedPlatform(24)
		p.SetSchedGranularity(c.g)
		if c.exits {
			// One exit inside the warm-up run sizes the completion report;
			// eight more, one per tick, land in the measured run.
			exit := func(name string, d sim.Time, core int) {
				p.AddTask(task.Spec{Name: name, Priority: 1, MinHR: 24, MaxHR: 30,
					Phases: []task.Phase{{Duration: d, HBCostLittle: 10, SpeedupBig: 2}}}, core)
			}
			exit("warm", 50*sim.Millisecond, 0)
			for i := 0; i < 8; i++ {
				exit(fmt.Sprintf("x%d", i), sim.Time(210+20*i)*sim.Millisecond, i%5)
			}
		}
		p.Engine.StepOnce() // settle: a new task's first tick may grow scratch
		allocs := ownAllocs(t, func() {
			for i := 0; i < 200; i++ {
				p.Engine.StepOnce()
				p.TakeFinished()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: 200 steady-state ticks allocate %d objects, want 0", c.name, allocs)
		}
		if c.exits {
			n := 0
			for _, tk := range p.Tasks() {
				if tk.Finished() {
					n++
				}
			}
			if n != 9 {
				t.Errorf("exits: %d tasks finished, want 9", n)
			}
		}
	}

	// spans: Platform.Run under PPM — steady spans between bid rounds,
	// the round ticks themselves, and the 100 ms telemetry snapshot grid
	// that bounds the spans — allocates nothing either.
	p := newLoadedPlatform(12)
	reg := telemetry.NewRegistry()
	em := telemetry.NewEmitter(reg)
	em.SetKinds(0)
	p.AttachTelemetry(em)
	p.SetGovernor(ppm.New(ppm.DefaultConfig(4)))
	p.Run(3 * sim.Second) // warm: LBT settles, scratch and HRM rings sized
	spanned := reg.Counter("pricepower_span_ticks_total", "").Value()
	migs, _ := p.Migrations()
	allocs := ownAllocs(t, func() { p.Run(500 * sim.Millisecond) })
	if now, _ := p.Migrations(); now != migs {
		// A migration allocates its completion event: not a steady state.
		t.Errorf("spans: %d LBT migrations in the measured window, want 0", now-migs)
	}
	if allocs != 0 {
		t.Errorf("spans: Platform.Run(500ms) under PPM allocates %d objects, want 0", allocs)
	}
	if reg.Counter("pricepower_span_ticks_total", "").Value() == spanned {
		t.Error("spans: no tick of the measured run was played inside a span")
	}

	// replay: the same under per-tick observers — a metrics.Probe (an
	// engine hook beside the platform's, so no spans) and a thermal model
	// — where the ticks between bid rounds replay the last full tick.
	p = newLoadedPlatform(12)
	reg = telemetry.NewRegistry()
	em = telemetry.NewEmitter(reg)
	em.SetKinds(0)
	p.AttachTelemetry(em)
	p.SetGovernor(ppm.New(ppm.DefaultConfig(4)))
	p.AttachThermal(hw.NewThermalModel(p.Chip, nil, 25))
	metrics.NewProbe(p, 0).Attach()
	p.Run(3 * sim.Second)
	replayed := reg.Counter("pricepower_replay_ticks_total", "").Value()
	migs, _ = p.Migrations()
	allocs = ownAllocs(t, func() { p.Run(500 * sim.Millisecond) })
	if now, _ := p.Migrations(); now != migs {
		t.Errorf("replay: %d LBT migrations in the measured window, want 0", now-migs)
	}
	if allocs != 0 {
		t.Errorf("replay: Platform.Run(500ms) under PPM with a probe and a thermal model allocates %d objects, want 0", allocs)
	}
	if reg.Counter("pricepower_replay_ticks_total", "").Value() == replayed {
		t.Error("replay: no tick of the measured run was replayed")
	}
	if n := reg.Counter("pricepower_span_ticks_total", "").Value(); n != 0 {
		t.Errorf("replay: %d ticks played inside spans beside a probe, want 0", n)
	}
}

// ownAllocs runs f once to warm it up, then once more, and returns the
// objects that second run allocated. testing.AllocsPerRun would read the
// process-wide malloc count, which also takes in what the runtime
// allocates for itself meanwhile: an M and its g when restarting the
// world after ReadMemStats starts a thread, a slot in a P's timer heap
// for the scavenger. On a loaded machine that fails an allocation-free
// f now and then. So the run is profiled at full rate instead, and an
// allocation counts unless its stack proves it is not f's: a complete
// stack (the profile keeps 32 frames) that neither passes through
// measuredRun nor runs any code of this module outside the profiling
// helpers. Tiny allocations, which the runtime packs into a shared block
// and the profile does not record one by one, all count: the
// process-wide tiny count across the run of f is added.
func ownAllocs(t *testing.T, f func()) int64 {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f()
	before := heapProfile()
	tiny := tinyAllocs()
	measuredRun(f)
	n := int64(tinyAllocs() - tiny)
	for stk, objs := range heapProfile() {
		if d := objs - before[stk]; d > 0 && mayBeOwn(stk) {
			n += d
		}
	}
	return n
}

// measuredRun marks the run of f that ownAllocs measures on every stack
// it allocates on.
//
//go:noinline
func measuredRun(f func()) { f() }

// heapProfile returns the allocation profile's object counts per stack,
// complete up to the call: the profile publishes a sample once the
// garbage collection cycles after it are done.
func heapProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+n/2+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	objs := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		objs[r.Stack0] += r.AllocObjects
	}
	return objs
}

// tinyAllocs returns the process's count of tiny allocations.
// ReadMemStats first flushes every P's cached count into the totals that
// runtime/metrics reads.
func tinyAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// mayBeOwn reports whether an allocation stack may belong to the
// measured run: see ownAllocs.
func mayBeOwn(stk [32]uintptr) bool {
	if stk[len(stk)-1] != 0 {
		return true // truncated: f's frames may lie beyond the cut
	}
	module, helper := false, false
	frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stk}).Stack())
	for {
		fr, more := frames.Next()
		switch name := fr.Function; {
		case name == "pricepower_test.measuredRun":
			return true
		case name == "pricepower_test.heapProfile", name == "pricepower_test.tinyAllocs":
			helper = true
		case strings.HasPrefix(name, "pricepower"):
			module = true
		}
		if !more {
			break
		}
	}
	return module && !helper
}

// BenchmarkTickThroughput measures platform ticks per second as the task
// population grows. With the per-core task index the per-tick cost scales
// with tasks on each core, not tasks × cores.
func BenchmarkTickThroughput(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			p := newLoadedPlatform(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Engine.StepOnce()
			}
		})
	}
}

// BenchmarkTickTelemetryAttached documents the tick-path overhead of an
// attached emitter (ring sink, default kinds): the counter bump plus the
// periodic 100 ms state publish. The detached baseline is
// BenchmarkTickThroughput/tasks=512; TestTickAllocationFree pins the
// detached path at zero allocations.
func BenchmarkTickTelemetryAttached(b *testing.B) {
	p := newLoadedPlatform(512)
	p.AttachTelemetry(telemetry.NewEmitter(telemetry.NewRegistry(), telemetry.NewRing(4096)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Engine.StepOnce()
	}
}

// BenchmarkMarketRoundScale measures one full market round at Table-7
// cluster counts. Rounds run on the calling goroutine: fanning the cluster
// phases out over a worker pool was never faster beyond noise at V=16–256
// on one or two CPUs, and up to ~40% slower (DESIGN.md §6).
func BenchmarkMarketRoundScale(b *testing.B) {
	for _, v := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("V=%d", v), func(b *testing.B) {
			m, _ := exp.BuildScaledMarket(exp.Table7Config{V: v, C: 8, T: 8}, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.StepOnce()
			}
		})
	}
}

// BenchmarkMarketRoundTelemetryAttached measures the attached-emitter
// market round at the largest Table-7 scale: per-round throttle/allowance
// events, the clamp-counter fold, and the state publish, with the
// high-volume kinds (bid/price/clearing) masked off as DefaultKinds does.
// The acceptance budget is ≤10% over BenchmarkMarketRoundScale/V=256.
func BenchmarkMarketRoundTelemetryAttached(b *testing.B) {
	m, _ := exp.BuildScaledMarket(exp.Table7Config{V: 256, C: 8, T: 8}, 42)
	m.SetTelemetry(telemetry.NewEmitter(telemetry.NewRegistry(), telemetry.NewRing(4096)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepOnce()
	}
}

// routingSnaps builds a synthetic fleet view for dispatcher benchmarks:
// n boards with spread prices and load, a fraction of them inadmissible,
// mirroring what the barrier publishes in a busy fleet.
func routingSnaps(n int) []fleet.Snapshot {
	rng := sim.NewRand(7)
	snaps := make([]fleet.Snapshot, n)
	for i := range snaps {
		snaps[i] = fleet.Snapshot{
			Board:       i,
			Price:       rng.Range(0.05, 1.5),
			DemandPU:    rng.Range(0, 4000),
			MaxSupplyPU: 5000,
		}
		if i%7 == 6 {
			snaps[i].Degraded = true
		}
	}
	return snaps
}

// routingSpecsN builds an n-submission batch of looping tasks with a
// spread of demands.
func routingSpecsN(n int) []task.Spec {
	specs := make([]task.Spec, n)
	for i := range specs {
		specs[i] = task.Spec{
			Name: fmt.Sprintf("r%02d", i), Priority: 1 + i%3, MinHR: 24, MaxHR: 30,
			Phases: []task.Phase{{HBCostLittle: (120 + 90*float64(i%7)) / 27, SpeedupBig: 2}},
			Loop:   true,
		}
	}
	return specs
}

// BenchmarkDispatcherRoute measures one dispatch round — routing a
// 100-submission batch against the barrier snapshots through the fleet's
// single-shard dispatcher — as the fleet grows. The lane's price index is
// rebuilt once per barrier (O(boards)) and each pick costs O(log boards)
// for the fix-up after the projection bump.
func BenchmarkDispatcherRoute(b *testing.B) {
	subs := routingSubsN(100)
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("boards=%d", n), func(b *testing.B) {
			snaps := routingSnaps(n)
			d := fleet.NewShardedDispatcher(1, fleet.DefaultHysteresis, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Route(snaps, subs)
			}
		})
	}
}

// clusteredSnaps builds the sharded-dispatcher fixture: n boards whose
// prices sit in a tight band (0.9–1.1, the homogeneous steady-state fleet
// the market drives toward), one in seven degraded. Under the default
// steal band (θ = 1) a clustered fleet routes almost entirely
// shard-locally, which is the regime the shard speedup claim is about;
// the spread fixture (routingSnaps) instead pushes most submissions
// through the sequential steal pass and is measured separately.
func clusteredSnaps(n int) []fleet.Snapshot {
	rng := sim.NewRand(11)
	snaps := make([]fleet.Snapshot, n)
	for i := range snaps {
		snaps[i] = fleet.Snapshot{
			Board:       i,
			Price:       rng.Range(0.9, 1.1),
			DemandPU:    rng.Range(0, 4000),
			MaxSupplyPU: 5000,
		}
		if i%7 == 6 {
			snaps[i].Degraded = true
		}
	}
	return snaps
}

// routingSubsN is routingSpecsN with demand pre-estimated at admission,
// the sharded dispatcher's input shape.
func routingSubsN(n int) []fleet.Submission {
	specs := routingSpecsN(n)
	subs := make([]fleet.Submission, len(specs))
	for i := range specs {
		subs[i] = fleet.NewSubmission(specs[i])
	}
	return subs
}

// BenchmarkDispatcherSharded is the shard sweep of the fleet_saturation
// routing dimension: the 1000-submission saturation batch routed through
// S price-index shards at 256 boards on the clustered fixture. ns/op is
// cost per 1k submissions.
func BenchmarkDispatcherSharded(b *testing.B) {
	const boards = 256
	subs := routingSubsN(1000)
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("boards=256/S=%d", s), func(b *testing.B) {
			snaps := clusteredSnaps(boards)
			d := fleet.NewShardedDispatcher(s, fleet.DefaultHysteresis, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Route(snaps, subs)
			}
		})
	}
}

// churnSpec is a short-lived (one-batch) task for saturation stepping:
// arrivals keep the dispatcher busy every barrier while completions stop
// the boards from accumulating load without bound.
func churnSpec(i int, batch sim.Time) task.Spec {
	return task.Spec{
		Name: fmt.Sprintf("churn%02d", i%32), Priority: 1, MinHR: 24, MaxHR: 30,
		Phases: []task.Phase{{Duration: batch, HBCostLittle: 2, SpeedupBig: 2}},
	}
}

// BenchmarkFleetSaturation measures sustained routed submissions per
// second through full batch barriers: every op submits one fresh
// short-lived task per board and advances one barrier (dispatch, the
// concurrent board advance, collection). K=0 is lockstep; K=4 lets
// boards pipeline up to four barriers ahead, overlapping the dispatch
// of barrier n with the board execution of barriers n-4..n-1.
func BenchmarkFleetSaturation(b *testing.B) {
	const batch = 10 * sim.Millisecond
	for _, n := range []int{64, 256} {
		for _, skew := range []int{0, 4} {
			b.Run(fmt.Sprintf("boards=%d/skew=%d", n, skew), func(b *testing.B) {
				f, err := fleet.New(fleet.Config{
					Boards: n, Seed: 42, Batch: batch, MaxSkew: skew,
					QueueCap: 64 * n,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				for i := 0; i < 5; i++ { // prime the pipeline and routing state
					for j := 0; j < n; j++ {
						f.Submit(churnSpec(j, batch))
					}
					if err := f.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < n; j++ {
						f.Submit(churnSpec(j, batch))
					}
					if err := f.Step(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := f.Flush(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkFleetStep measures one full batch barrier — dispatch, the
// concurrent board advance (10 virtual ms each), and snapshot collection
// — at growing fleet sizes with a fixed per-board task load.
func BenchmarkFleetStep(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("boards=%d", n), func(b *testing.B) {
			f, err := fleet.New(fleet.Config{Boards: n, Seed: 42, Batch: 10 * sim.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < 4*n; i++ {
				f.Submit(task.Spec{
					Name: fmt.Sprintf("t%02d", i), Priority: 1, MinHR: 24, MaxHR: 30,
					Phases: []task.Phase{{HBCostLittle: 8, SpeedupBig: 2}},
					Loop:   true,
				})
			}
			for i := 0; i < 5; i++ { // let routing settle before timing
				if err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

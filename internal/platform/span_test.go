package platform_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// spanRig is a TC2 board under PPM driven through a seed-dealt churn of
// arrivals, exits, forced migrations and runs of odd lengths, at an engine
// tick of 250 µs to 2 ms: under 1 ms a task samples its HRM window faster
// than the window's one-slot-per-millisecond sizing, so spans cross its
// drop-oldest path. With spans off, a no-op second engine hook keeps the
// platform on per-tick stepping.
type spanRig struct {
	p   *platform.Platform
	g   *ppm.Governor
	reg *telemetry.Registry
	r   *rand.Rand
	n   int // tasks added so far
}

func newSpanRig(seed uint64, spans bool) *spanRig {
	r := rand.New(rand.NewPCG(seed, 0x5ba4))
	tick := []sim.Time{250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond}[r.IntN(4)]
	p := platform.New(hw.NewTC2(), tick)
	if !spans {
		p.Engine.AddHook(sim.TickFunc(func(sim.Time) {}))
	}
	cfg := ppm.DefaultConfig([]float64{0, 4}[r.IntN(2)])
	cfg.MigrationCooldown = 100 * sim.Millisecond
	g := ppm.New(cfg)
	p.SetGovernor(g)
	rig := &spanRig{p: p, g: g, r: r}
	if r.IntN(3) > 0 { // the snapshot grid bounds spans too
		rig.reg = telemetry.NewRegistry()
		em := telemetry.NewEmitter(rig.reg)
		em.SetKinds(0)
		p.AttachTelemetry(em)
	}
	return rig
}

// spec deals a two-phase task: finite or looping, each phase CPU-bound or
// self-capped, phase lengths off the bid grid.
func (rig *spanRig) spec() task.Spec {
	r := rig.r
	rig.n++
	s := task.Spec{Name: fmt.Sprintf("t%d", rig.n), Priority: 1 + r.IntN(3),
		MinHR: 10, MaxHR: 14, Loop: r.IntN(2) == 0}
	for i := 0; i < 2; i++ {
		ph := task.Phase{
			Duration:     sim.Time(5000 + r.IntN(240000)),
			HBCostLittle: 5 + 40*r.Float64(),
			SpeedupBig:   1 + 1.5*r.Float64(),
		}
		if r.IntN(2) == 0 {
			ph.SelfCapHR = 4 + 12*r.Float64()
		}
		s.Phases = append(s.Phases, ph)
	}
	return s
}

// step plays one churn action, then a run of 1 µs .. 150 ms.
func (rig *spanRig) step() {
	p, r := rig.p, rig.r
	cores := len(p.Chip.Cores)
	switch a := r.IntN(6); {
	case a < 2 || p.NumTasks() == 0:
		for k := 1 + r.IntN(3); k > 0; k-- {
			p.AddTask(rig.spec(), r.IntN(cores))
		}
	case a == 2:
		ts := p.Tasks()
		p.RemoveTasks(ts[r.IntN(len(ts))])
	case a == 3:
		ts := p.Tasks()
		p.Migrate(ts[r.IntN(len(ts))], r.IntN(cores))
	}
	p.Run(sim.Time(1 + r.IntN(150000)))
	p.RemoveTasks(p.TakeFinished()...)
}

// fingerprint lists every accumulator spans touch, as float bits.
func (rig *spanRig) fingerprint() []string {
	p := rig.p
	now := p.Now()
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	total, cross := p.Migrations()
	bal, mig := rig.g.Moves()
	out := []string{
		fmt.Sprintf("now %d", now),
		"chip J " + bits(p.Meter().Joules()),
		"chip peak " + bits(p.Meter().PeakPower()),
		fmt.Sprintf("chip elapsed %d", p.Meter().Elapsed()),
		"power " + bits(p.Power()),
		fmt.Sprintf("migrations %d %d, moves %d %d", total, cross, bal, mig),
		fmt.Sprintf("market %016x", check.MarketDigest(rig.g.Market())),
		fmt.Sprintf("platform %016x", check.PlatformDigest(p)),
	}
	for i := range p.Chip.Clusters {
		out = append(out, fmt.Sprintf("cluster %d J %s", i, bits(p.ClusterMeter(i).Joules())))
	}
	for c := range p.Chip.Cores {
		out = append(out, fmt.Sprintf("core %d minV %s util %s", c,
			bits(p.Queue(c).MinVruntime()), bits(p.Utilization(c))))
	}
	for _, t := range p.Tasks() {
		out = append(out, fmt.Sprintf("%s hb %s hr %s work %s vrt %s pelt %s pu %s phase %d",
			t.Name, bits(t.Heartbeats()), bits(t.HeartRate(now)), bits(p.TotalWork(t)),
			bits(p.EntityOf(t).VRuntime()), bits(p.Load(t)), bits(p.ConsumedPU(t)), t.PhaseIndex()))
	}
	return out
}

func (rig *spanRig) spanTicks() uint64 {
	if rig.reg == nil {
		return 0
	}
	return rig.reg.Counter("pricepower_span_ticks_total", "").Value()
}

// checkSpanEquivalence plays one seed's churn with spans and per tick and
// fails at the first step whose state differs in any bit. It returns the
// ticks the span run played inside spans (counted when telemetry is on)
// and the engine tick.
func checkSpanEquivalence(t *testing.T, seed uint64, steps int) (spanned uint64, tick sim.Time) {
	t.Helper()
	a, b := newSpanRig(seed, true), newSpanRig(seed, false)
	for s := 0; s < steps; s++ {
		a.step()
		b.step()
		fa, fb := a.fingerprint(), b.fingerprint()
		if len(fa) != len(fb) {
			t.Fatalf("seed %d step %d: %d fingerprint lines with spans, %d per tick", seed, s, len(fa), len(fb))
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("seed %d step %d: spans %q, per tick %q", seed, s, fa[i], fb[i])
			}
		}
	}
	if n := b.spanTicks(); n != 0 {
		t.Fatalf("seed %d: %d span ticks with a second hook registered", seed, n)
	}
	return a.spanTicks(), a.p.Engine.Step()
}

// TestSpanEquivalence: steady spans leave every accumulator bit-identical
// to per-tick stepping under churn, at every tick length.
func TestSpanEquivalence(t *testing.T) {
	spanned := map[sim.Time]uint64{}
	for seed := uint64(1); seed <= 24; seed++ {
		n, tick := checkSpanEquivalence(t, seed, 16)
		spanned[tick] += n
	}
	for _, tick := range []sim.Time{250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond} {
		if spanned[tick] == 0 {
			t.Errorf("no %v tick was played inside a span", tick)
		}
	}
}

func FuzzSpanEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 900001} {
		f.Add(seed, uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		checkSpanEquivalence(t, seed, 1+int(steps%24))
	})
}

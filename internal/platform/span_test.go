package platform_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// mode selects what a spanRig attaches beside its platform, and so how
// the platform may play steady ticks. Each mode runs against an oracle of
// the same mode with replay and spans switched off
// (platform.ForceFullTicks): every tick computed in full.
type mode int

const (
	// spanMode: the platform's hook is the engine's only hook, so steady
	// stretches play as spans (and singly stepped steady ticks replay).
	// Mid-run mutations come from engine events.
	spanMode mode = iota
	// replayMode: a metrics.Probe, a checker and a meddling hook are
	// attached, so every tick is stepped singly and steady ticks replay.
	// Mid-run mutations come from the hook, which no engine event
	// announces.
	replayMode
)

// spanRig is a TC2 board under PPM with a thermal model, driven through a
// seed-dealt churn of arrivals, exits, forced migrations, direct hardware
// changes, engine events, mid-run mutations and runs of odd lengths, at an
// engine tick of 250 µs to 2 ms: under 1 ms a task samples its HRM window
// faster than the window's one-slot-per-millisecond sizing, so spans cross
// its drop-oldest path.
type spanRig struct {
	mode  mode
	p     *platform.Platform
	g     *ppm.Governor
	th    *hw.ThermalModel
	probe *metrics.Probe
	chk   *check.Checker
	reg   *telemetry.Registry
	r     *rand.Rand
	n     int // tasks added so far

	// The pending mid-run mutation (replayMode plays it from its hook
	// after the tick ending at; spanMode from an event at it).
	meddleAt         sim.Time
	meddleKind       int
	discrete, faulty bool
}

func newSpanRig(seed uint64, m mode, full bool) *spanRig {
	r := rand.New(rand.NewPCG(seed, 0x5ba4))
	tick := []sim.Time{250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond}[r.IntN(4)]
	p := platform.New(hw.NewTC2(), tick)
	cfg := ppm.DefaultConfig([]float64{0, 4}[r.IntN(2)])
	cfg.MigrationCooldown = 100 * sim.Millisecond
	g := ppm.New(cfg)
	p.SetGovernor(g)
	rig := &spanRig{mode: m, p: p, g: g, r: r, th: hw.NewThermalModel(p.Chip, nil, 25)}
	p.AttachThermal(rig.th)
	if r.IntN(3) > 0 { // the snapshot grid bounds spans too
		rig.reg = telemetry.NewRegistry()
		em := telemetry.NewEmitter(rig.reg)
		em.SetKinds(0)
		p.AttachTelemetry(em)
	}
	if m == replayMode {
		rig.probe = metrics.NewProbe(p, 0)
		rig.probe.Attach()
		rig.chk = check.New(check.Options{Market: g.Market()})
		p.AttachChecker(rig.chk)
		p.Engine.AddHook(sim.TickFunc(func(now sim.Time) {
			if now == rig.meddleAt {
				rig.meddle()
			}
		}))
	}
	if full {
		platform.ForceFullTicks(p)
	}
	return rig
}

// offliner is a fault injector that hot-unplugs core 1 on every third tick
// and perturbs nothing else.
type offliner struct{ step sim.Time }

func (o offliner) BeginTick(p *platform.Platform, now sim.Time) {
	p.Chip.Cores[1].Offline = now/o.step%3 == 0
}
func (offliner) PowerReading(_ int, w float64, _ sim.Time) float64 { return w }
func (offliner) DVFSOutcome(int, sim.Time) (bool, sim.Time)        { return false, 0 }
func (offliner) MigrationCost(cost sim.Time, _ sim.Time) sim.Time  { return cost }

// meddle plays the pending mid-run mutation: one call of a platform
// mutator between two ticks of a run.
func (rig *spanRig) meddle() {
	p, r := rig.p, rig.r
	ts := p.Tasks()
	switch rig.meddleKind {
	case 0:
		if len(ts) > 0 {
			t := ts[r.IntN(len(ts))]
			p.SetWeight(t, p.Weight(t)*(0.5+r.Float64()))
		}
	case 1:
		p.AddTask(rig.spec(), r.IntN(len(p.Chip.Cores)))
	case 2:
		if len(ts) > 0 {
			p.RemoveTasks(ts[r.IntN(len(ts))])
		}
	case 3:
		if len(ts) > 0 {
			p.Migrate(ts[r.IntN(len(ts))], r.IntN(len(p.Chip.Cores)))
		}
	case 4:
		p.StepVF(r.IntN(len(p.Chip.Clusters)), 2*r.IntN(2)-1)
	case 5:
		rig.discrete = !rig.discrete
		if rig.discrete {
			p.SetSchedGranularity(p.Engine.Step() / 2)
		} else {
			p.SetSchedGranularity(0)
		}
	case 6:
		rig.faulty = !rig.faulty
		if rig.faulty {
			p.AttachFaults(offliner{p.Engine.Step()})
		} else {
			p.AttachFaults(nil)
		}
	}
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

// step plays one churn action, then a run of 1 µs .. 150 ms, which may
// carry an engine event and a mid-run mutation.
func (rig *spanRig) step() {
	p, r := rig.p, rig.r
	cores := len(p.Chip.Cores)
	switch a := r.IntN(8); {
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
	case a == 4: // the hardware, behind the platform's back
		cl := p.Chip.Clusters[r.IntN(len(p.Chip.Clusters))]
		if r.IntN(2) == 0 {
			cl.PowerOff()
		} else {
			cl.SetLevel(r.IntN(cl.NumLevels()))
		}
	case a == 5: // a weight set to what it already is
		ts := p.Tasks()
		t := ts[r.IntN(len(ts))]
		p.SetWeight(t, p.Weight(t))
	}
	run := sim.Time(1 + r.IntN(150000))
	if r.IntN(2) == 0 { // an event inside the run retunes a cluster
		cl := p.Chip.Clusters[r.IntN(len(p.Chip.Clusters))]
		level := r.IntN(cl.NumLevels())
		p.Engine.At(p.Now()+sim.Time(r.Int64N(int64(run))), func(sim.Time) { cl.SetLevel(level) })
	}
	if k := int((run - 1) / p.Engine.Step()); k > 0 && r.IntN(2) == 0 {
		// A mutation inside the run: from the hook where there is one,
		// else from an event.
		at := p.Now() + sim.Time(1+r.IntN(k))*p.Engine.Step()
		rig.meddleKind = r.IntN(7)
		if rig.mode == spanMode {
			p.Engine.At(at, func(sim.Time) { rig.meddle() })
		} else {
			rig.meddleAt = at
		}
	}
	p.Run(run)
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
		out = append(out, fmt.Sprintf("cluster %d J %s temp %s peak %s", i, bits(p.ClusterMeter(i).Joules()),
			bits(rig.th.Temp(i)), bits(rig.th.Peak(i))))
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
	if rig.probe != nil {
		pr := rig.probe
		out = append(out, fmt.Sprintf("probe %d below %s power %s peak %s J %s hb %s, checker %d", pr.Samples(),
			bits(pr.AnyBelowFrac()), bits(pr.AveragePower()), bits(pr.PeakPower()), bits(pr.Energy()),
			bits(pr.HeartbeatsDelivered()), rig.chk.Total()))
	}
	return out
}

// counted reports a platform counter (0 without telemetry).
func (rig *spanRig) counted(name string) uint64 {
	if rig.reg == nil {
		return 0
	}
	return rig.reg.Counter(name, "").Value()
}

// checkSpanEquivalence plays one seed's churn in both modes, each beside
// its oracle, and fails at the first step where a span or a replay run
// differs in any bit from per-tick stepping. It returns the ticks played
// inside spans and the ticks replayed (counted when telemetry is on), and
// the engine tick.
func checkSpanEquivalence(t *testing.T, seed uint64, steps int) (spanned, replayed uint64, tick sim.Time) {
	t.Helper()
	rigs := [][2]*spanRig{
		{newSpanRig(seed, spanMode, false), newSpanRig(seed, spanMode, true)},
		{newSpanRig(seed, replayMode, false), newSpanRig(seed, replayMode, true)},
	}
	for s := 0; s < steps; s++ {
		for m, pair := range rigs {
			pair[0].step()
			pair[1].step()
			fa, fb := pair[0].fingerprint(), pair[1].fingerprint()
			if len(fa) != len(fb) {
				t.Fatalf("seed %d step %d, %s: %d fingerprint lines, %d per tick", seed, s, modeNames[m], len(fa), len(fb))
			}
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("seed %d step %d, %s: %q, per tick %q", seed, s, modeNames[m], fa[i], fb[i])
				}
			}
		}
	}
	sp, re := rigs[spanMode][0], rigs[replayMode][0]
	if n := re.counted("pricepower_span_ticks_total"); n != 0 {
		t.Fatalf("seed %d: %d span ticks with a second hook registered", seed, n)
	}
	for _, pair := range rigs {
		if n := pair[1].counted("pricepower_span_ticks_total") + pair[1].counted("pricepower_replay_ticks_total"); n != 0 {
			t.Fatalf("seed %d: %d span or replayed ticks with full ticks forced", seed, n)
		}
	}
	return sp.counted("pricepower_span_ticks_total"), re.counted("pricepower_replay_ticks_total"), sp.p.Engine.Step()
}

var modeNames = [...]string{spanMode: "spans", replayMode: "replay"}

// TestSpanEquivalence: steady spans and replayed ticks leave every
// accumulator — and every per-tick observer's view — bit-identical to
// per-tick stepping under churn, at every tick length.
func TestSpanEquivalence(t *testing.T) {
	spanned, replayed := map[sim.Time]uint64{}, map[sim.Time]uint64{}
	for seed := uint64(1); seed <= 24; seed++ {
		s, r, tick := checkSpanEquivalence(t, seed, 16)
		spanned[tick] += s
		replayed[tick] += r
	}
	for _, tick := range []sim.Time{250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond} {
		if spanned[tick] == 0 {
			t.Errorf("no %v tick was played inside a span", tick)
		}
		if replayed[tick] == 0 {
			t.Errorf("no %v tick was replayed", tick)
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

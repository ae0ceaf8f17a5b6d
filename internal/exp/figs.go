package exp

import (
	"fmt"
	"math"

	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// Comparative holds the Figure 4/5 (or Figure 6) measurement matrix.
type Comparative struct {
	Results [][]RunResult // [set][governor]
	Wtdp    float64
}

// RunComparative runs every Table 6 workload set under every governor
// once; Figures 4 and 5 read different columns of the same runs (as in the
// paper).
func RunComparative(wtdp float64, dur sim.Time) (*Comparative, error) {
	c := &Comparative{Results: make([][]RunResult, len(workload.Sets)), Wtdp: wtdp}
	for i, set := range workload.Sets {
		c.Results[i] = make([]RunResult, len(GovernorNames))
		for j, gov := range GovernorNames {
			r, err := RunSet(gov, set, wtdp, dur)
			if err != nil {
				return nil, err
			}
			c.Results[i][j] = r
		}
	}
	return c, nil
}

// MissTable renders the miss-rate comparison (Figure 4 without TDP,
// Figure 6 with).
func (c *Comparative) MissTable(title string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Set", "PPM [%]", "HPM [%]", "HL [%]"},
		Note:    "percentage of time any task's heart rate is below its reference minimum",
	}
	for _, row := range c.Results {
		t.AddRow(row[0].Set,
			fmt.Sprintf("%.1f", row[0].MissFrac*100),
			fmt.Sprintf("%.1f", row[1].MissFrac*100),
			fmt.Sprintf("%.1f", row[2].MissFrac*100))
	}
	return t
}

// PowerTable renders the average-power comparison (Figure 5).
func (c *Comparative) PowerTable(title string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Set", "PPM [W]", "HPM [W]", "HL [W]"},
	}
	sums := make([]float64, 3)
	for _, row := range c.Results {
		t.AddRow(row[0].Set,
			fmt.Sprintf("%.2f", row[0].AvgPower),
			fmt.Sprintf("%.2f", row[1].AvgPower),
			fmt.Sprintf("%.2f", row[2].AvgPower))
		for j := range sums {
			sums[j] += row[j].AvgPower
		}
	}
	n := float64(len(c.Results))
	t.AddRow("mean",
		fmt.Sprintf("%.2f", sums[0]/n),
		fmt.Sprintf("%.2f", sums[1]/n),
		fmt.Sprintf("%.2f", sums[2]/n))
	return t
}

// EfficiencyTable renders energy per delivered kilo-heartbeat — the
// "minimal energy for the demands met" companion view of Figure 5.
func (c *Comparative) EfficiencyTable(title string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Set", "PPM [J/khb]", "HPM [J/khb]", "HL [J/khb]"},
		Note:    "joules per thousand heartbeats delivered; lower is better at equal miss rates",
	}
	for _, row := range c.Results {
		t.AddRow(row[0].Set,
			fmt.Sprintf("%.2f", row[0].EnergyPerKBeat()),
			fmt.Sprintf("%.2f", row[1].EnergyPerKBeat()),
			fmt.Sprintf("%.2f", row[2].EnergyPerKBeat()))
	}
	return t
}

// MeanMiss reports the per-governor mean miss fraction across all sets.
func (c *Comparative) MeanMiss() [3]float64 {
	var out [3]float64
	for _, row := range c.Results {
		for j := 0; j < 3; j++ {
			out[j] += row[j].MissFrac
		}
	}
	for j := range out {
		out[j] /= float64(len(c.Results))
	}
	return out
}

// MeanPower reports the per-governor mean average power across all sets.
func (c *Comparative) MeanPower() [3]float64 {
	var out [3]float64
	for _, row := range c.Results {
		for j := 0; j < 3; j++ {
			out[j] += row[j].AvgPower
		}
	}
	for j := range out {
		out[j] /= float64(len(c.Results))
	}
	return out
}

// figSeriesPeriod is the series grid of the behaviour figures (7 and 8),
// which starts at the end of the warm-up.
const figSeriesPeriod = 250 * sim.Millisecond

// Fig7Result is one priority case-study run.
type Fig7Result struct {
	// Outside fractions of time outside the reference range, per task.
	SwaptionsOutside, BodytrackOutside float64
	// Normalized heart-rate series (hr / target), per task.
	SwaptionsSeries, BodytrackSeries *metrics.Series
}

// fig7Spec builds the Figure 7 task pair: swaptions_native and
// bodytrack_native sharing one big core, combined demand hovering at the
// core's top supply so priorities decide who fits.
func fig7Spec(name string, base float64, prio int, phases []float64, phaseDur sim.Time) task.Spec {
	const target = 30
	s := task.Spec{
		Name:     name,
		Priority: prio,
		MinHR:    target * 0.95,
		MaxHR:    target * 1.05,
		Loop:     true,
	}
	for _, m := range phases {
		s.Phases = append(s.Phases, task.Phase{
			Duration:     phaseDur,
			HBCostLittle: base * m / target,
			SpeedupBig:   2,
			SelfCapHR:    target * 1.35,
		})
	}
	return s
}

// RunFig7 runs the priority study: both tasks pinned to big core 0 with the
// LBT module disabled (§5.4), priorities as given.
func RunFig7(prioSwaptions, prioBodytrack int, dur sim.Time) (*Fig7Result, error) {
	p := platform.NewTC2()
	cfg := ppm.DefaultConfig(0)
	cfg.DisableLBT = true
	p.SetGovernor(ppm.New(cfg))
	// Combined steady demand ≈ 1250 PU on the 1200 PU big core: mild
	// overload, so only one task can hold its range at a time.
	sw := p.AddTask(fig7Spec("swaptions_native", 1250, prioSwaptions,
		[]float64{1.0, 1.08, 0.92}, 9*sim.Second), 0)
	bt := p.AddTask(fig7Spec("bodytrack_native", 1250, prioBodytrack,
		[]float64{0.92, 1.08, 1.0}, 7*sim.Second), 0)
	pr := metrics.NewProbe(p, Warmup)
	pr.EnableSeries(Warmup, figSeriesPeriod)
	pr.Attach()
	p.Run(Warmup + dur)
	return &Fig7Result{
		SwaptionsOutside: pr.OutsideFrac(sw),
		BodytrackOutside: pr.OutsideFrac(bt),
		SwaptionsSeries:  pr.HRSeries(sw),
		BodytrackSeries:  pr.HRSeries(bt),
	}, nil
}

// Fig7 renders both halves of Figure 7: equal priorities (a) and
// swaptions at priority 7 (b).
func Fig7(dur sim.Time) (*Table, *Fig7Result, *Fig7Result, error) {
	a, err := RunFig7(1, 1, dur)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := RunFig7(7, 1, dur)
	if err != nil {
		return nil, nil, nil, err
	}
	t := &Table{
		Title: "Figure 7: time outside the normalized performance goal [0.95,1.05]",
		Headers: []string{"Scenario", "swaptions prio", "bodytrack prio",
			"swaptions outside [%]", "bodytrack outside [%]"},
	}
	t.AddRow("(a) equal", 1, 1,
		fmt.Sprintf("%.1f", a.SwaptionsOutside*100), fmt.Sprintf("%.1f", a.BodytrackOutside*100))
	t.AddRow("(b) prioritized", 7, 1,
		fmt.Sprintf("%.1f", b.SwaptionsOutside*100), fmt.Sprintf("%.1f", b.BodytrackOutside*100))
	return t, a, b, nil
}

// Fig8Result is the savings case-study outcome.
type Fig8Result struct {
	// Outside fractions measured per execution phase of x264.
	X264OutsideDormant, X264OutsideActive float64
	SwapOutsideActive                     float64
	// X264BelowDormant is the fraction of the dormant phase x264 spent
	// *below* its range (it overshoots while dormant, so this should be
	// ≈0 even though the outside fraction is large).
	X264BelowDormant float64
	// SavingsDepleted reports when the x264 agent's savings ran out
	// (0 = never during the run).
	SavingsDepleted sim.Time
	// Series on the 250 ms figure grid from the end of the warm-up: x264's
	// and swaptions' heart rate over target, and x264's savings.
	X264Series      *metrics.Series
	SwaptionsSeries *metrics.Series
	SavingsSeries   *metrics.Series
}

// RunFig8 runs the savings study (§5.4): swaptions and x264 share one big
// core at equal priority with the LBT module disabled. x264 is dormant
// (low demand) through the warm-up and the first dormant duration of the
// measured run, saving allowance, then turns active with a demand the core cannot satisfy for both tasks — its
// savings let it outbid swaptions until they deplete.
func RunFig8(dormant, active sim.Time) (*Fig8Result, error) {
	p := platform.NewTC2()
	cfg := ppm.DefaultConfig(0)
	cfg.DisableLBT = true
	g := ppm.New(cfg)
	p.SetGovernor(g)

	// Demands below are expressed on the big core the pair shares (the spec
	// carries LITTLE-core heartbeat costs, so they are scaled by the 2×
	// speedup): swaptions needs a steady 600 PU; x264 needs 350 PU while
	// dormant and 800 PU once active. The active pair (1400 PU) exceeds the
	// core's 1200 PU ceiling, so only money decides who wins: x264's saved
	// allowance lets it outbid swaptions and hold its range until the
	// savings run out, after which the equal allowances split the core
	// evenly — swaptions recovers, x264 collapses below range.
	const target = 30
	sw := p.AddTask(task.Spec{
		Name: "swaptions_native", Priority: 1,
		MinHR: target * 0.95, MaxHR: target * 1.05, Loop: true,
		Phases: []task.Phase{{HBCostLittle: 2 * 600 / float64(target), SpeedupBig: 2,
			SelfCapHR: target * 1.35}},
	}, 0)
	x264 := p.AddTask(task.Spec{
		Name: "x264_native", Priority: 1,
		MinHR: target * 0.95, MaxHR: target * 1.05, Loop: true,
		Phases: []task.Phase{
			// Dormant: modest demand, overshooting its goal cheaply. The
			// phase clock starts at creation, so the phase spans the
			// warm-up too and turns active exactly when the measured
			// dormant window below ends.
			{Duration: Warmup + dormant, HBCostLittle: 2 * 350 / float64(target), SpeedupBig: 2,
				SelfCapHR: target * 1.25},
			// Active: demand jumps so that the pair exceeds the core.
			{Duration: active, HBCostLittle: 2 * 800 / float64(target), SpeedupBig: 2,
				SelfCapHR: target * 1.35},
		},
	}, 0)

	pr := metrics.NewProbe(p, Warmup)
	pr.EnableSeries(Warmup, figSeriesPeriod)
	pr.Attach()

	res := &Fig8Result{SavingsSeries: pr.Gauge("x264_savings", func() float64 {
		if a := g.AgentOf(x264); a != nil {
			return a.Savings()
		}
		return math.NaN()
	})}
	var depleted sim.Time
	var dormantSamples, dormantOutside, dormantBelow, activeSamples, activeOutside, swapActiveOutside int
	p.Engine.AddHook(sim.TickFunc(func(now sim.Time) {
		if now <= Warmup {
			return
		}
		if now > Warmup+dormant && depleted == 0 {
			if a := g.AgentOf(x264); a != nil && a.Savings() < 1e-6 {
				depleted = now
			}
		}
		hr := x264.HeartRate(now) / x264.TargetHR()
		swHR := sw.HeartRate(now) / sw.TargetHR()
		if now <= Warmup+dormant {
			dormantSamples++
			if hr < 0.95 || hr > 1.05 {
				dormantOutside++
			}
			if hr < 0.95 {
				dormantBelow++
			}
		} else {
			activeSamples++
			if hr < 0.95 || hr > 1.05 {
				activeOutside++
			}
			if swHR < 0.95 || swHR > 1.05 {
				swapActiveOutside++
			}
		}
	}))
	p.Run(Warmup + dormant + active)

	res.SavingsDepleted = depleted
	if dormantSamples > 0 {
		res.X264OutsideDormant = float64(dormantOutside) / float64(dormantSamples)
		res.X264BelowDormant = float64(dormantBelow) / float64(dormantSamples)
	}
	if activeSamples > 0 {
		res.X264OutsideActive = float64(activeOutside) / float64(activeSamples)
		res.SwapOutsideActive = float64(swapActiveOutside) / float64(activeSamples)
	}
	res.X264Series = pr.HRSeries(x264)
	res.SwaptionsSeries = pr.HRSeries(sw)
	return res, nil
}

// Fig8 renders the savings study with the paper's timeline shape (dormant
// phase, then an active phase long enough to exhaust the savings).
func Fig8(dormant, active sim.Time) (*Table, *Fig8Result, error) {
	r, err := RunFig8(dormant, active)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Figure 8: savings let x264 outbid swaptions during its active phase",
		Headers: []string{"Quantity", "Value"},
	}
	t.AddRow("x264 outside range, dormant phase [%] (overshoot)", fmt.Sprintf("%.1f", r.X264OutsideDormant*100))
	t.AddRow("x264 below range, dormant phase [%]", fmt.Sprintf("%.1f", r.X264BelowDormant*100))
	t.AddRow("x264 outside range, active phase [%]", fmt.Sprintf("%.1f", r.X264OutsideActive*100))
	t.AddRow("swaptions outside range, active phase [%]", fmt.Sprintf("%.1f", r.SwapOutsideActive*100))
	if r.SavingsDepleted > 0 {
		t.AddRow("x264 savings depleted at", r.SavingsDepleted.String())
	} else {
		t.AddRow("x264 savings depleted at", "never (run too short)")
	}
	return t, r, nil
}

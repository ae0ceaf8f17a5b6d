package exp

import (
	"fmt"
	"io"
	"os"

	"pricepower/internal/check"
	"pricepower/internal/core"
	"pricepower/internal/hl"
	"pricepower/internal/hpm"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/workload"
)

// GovernorNames lists the three compared schemes in the paper's order.
var GovernorNames = []string{"PPM", "HPM", "HL"}

// Warmup is the settling time excluded from measurements in comparative
// runs (HRM windows fill, the market boots).
const Warmup = 5 * sim.Second

// DefaultRunDuration is the measured virtual time per comparative run.
const DefaultRunDuration = 120 * sim.Second

// RunResult summarizes one (workload set, governor) run.
type RunResult struct {
	Governor string
	Set      string
	// MissFrac is the fraction of time any task was below its minimum heart
	// rate (Figures 4 and 6).
	MissFrac float64
	// AvgPower is the mean chip power in W (Figure 5).
	AvgPower float64
	// Energy is joules over the measured window.
	Energy float64
	// Migrations counts task movements (total, cross-cluster).
	Migrations, CrossMigrations int
	// Transitions counts V-F changes across clusters (thermal cycling).
	Transitions int
	// PeakTempC is the hottest cluster die temperature reached (°C, RC
	// thermal model at 25 °C ambient).
	PeakTempC float64
	// Heartbeats is the total application progress delivered during the
	// measured window.
	Heartbeats float64
}

// EnergyPerKBeat reports joules per thousand heartbeats — the
// energy-efficiency view of a run (the paper's goal is meeting demands "at
// minimal energy", so less is better at equal miss rates).
func (r RunResult) EnergyPerKBeat() float64 {
	if r.Heartbeats <= 0 {
		return 0
	}
	return r.Energy / r.Heartbeats * 1000
}

// WorkloadProfiles adapts the workload registry's off-line profiling table
// to the PPM governor.
func WorkloadProfiles(name string, ct hw.CoreType) (float64, bool) {
	p, ok := workload.ProfileFor(name)
	if !ok {
		return 0, false
	}
	return p.Demand(ct), true
}

// NewGovernor builds one of the three compared governors for a TDP budget
// (0 = unconstrained).
func NewGovernor(name string, wtdp float64) (platform.Governor, error) {
	switch name {
	case "PPM":
		cfg := ppm.DefaultConfig(wtdp)
		cfg.Profiles = WorkloadProfiles
		return ppm.New(cfg), nil
	case "HPM":
		return hpm.New(hpm.DefaultConfig(wtdp)), nil
	case "HL":
		return hl.New(hl.DefaultConfig(wtdp)), nil
	default:
		return nil, fmt.Errorf("exp: unknown governor %q (want PPM, HPM or HL)", name)
	}
}

// CheckEnabled reports whether the PRICEPOWER_CHECK environment variable
// asks for invariant-checked runs (any non-empty value but "0" enables; the
// CI invariant job sets PRICEPOWER_CHECK=1).
func CheckEnabled() bool {
	v := os.Getenv("PRICEPOWER_CHECK")
	return v != "" && v != "0"
}

// RunOptions tunes a checked/recorded run; the zero value reproduces the
// plain RunSet behavior with checking governed by PRICEPOWER_CHECK.
type RunOptions struct {
	// Check attaches an invariant checker and fails the run on any
	// violation, regardless of PRICEPOWER_CHECK.
	Check bool
	// Recorder, when set, is attached to the platform so the run leaves a
	// replay trace (the recorder's Market field is filled in for PPM).
	Recorder *check.Recorder
	// Telemetry, when set, is attached to the platform (and through it to a
	// telemetry-aware governor) so the run emits the structured event
	// stream; the invariant checker, when also enabled, mirrors violations
	// into the same stream.
	Telemetry *telemetry.Emitter
	// Faults, when set, is attached to the platform before the run starts
	// so the whole run executes under the injected fault schedule
	// (internal/fault).
	Faults platform.FaultInjector
	// MaxOverRounds overrides the checker's tdp-settled streak tolerance
	// (fault windows legitimately pin the smoothed power above the band —
	// a refused down-step has no physical recourse until the window ends).
	MaxOverRounds int
	// Trace, when set, receives the run's time series as CSV
	// (metrics.Probe.WriteCSV), sampled every 100 ms from the first tick,
	// warm-up included. It is written even when the checker fails the
	// run.
	Trace io.Writer
}

// tracePeriod is the sampling period of RunOptions.Trace.
const tracePeriod = 100 * sim.Millisecond

// RunSet executes one workload set under one governor on a fresh TC2
// platform for the given measured duration and returns the summary.
// Tasks boot on the LITTLE cluster (as the paper's Linux does), spread
// round-robin over its cores. With PRICEPOWER_CHECK set the run executes
// under the invariant checker and fails on any violation.
func RunSet(governor string, set workload.Set, wtdp float64, dur sim.Time) (RunResult, error) {
	return RunSetOpts(governor, set, wtdp, dur, RunOptions{})
}

// RunSetOpts is RunSet with explicit checking/recording control.
func RunSetOpts(governor string, set workload.Set, wtdp float64, dur sim.Time, opts RunOptions) (RunResult, error) {
	specs, err := set.Specs(1)
	if err != nil {
		return RunResult{}, err
	}
	return RunSpecs(governor, set.Name, specs, wtdp, dur, opts)
}

// RunSpecs is RunSetOpts over explicit task specs — the entry point for
// random/synthetic workloads (robustness and invariant acceptance tests)
// that have no Table 6 set behind them. name labels the run in results and
// error messages.
func RunSpecs(governor, name string, specs []task.Spec, wtdp float64, dur sim.Time, opts RunOptions) (RunResult, error) {
	g, err := NewGovernor(governor, wtdp)
	if err != nil {
		return RunResult{}, err
	}
	return runSpecs(g, governor, name, specs, wtdp, dur, opts)
}

// RunPPMVariant runs one workload set under a custom PPM configuration
// (TDP from cfg.Market.Wtdp) — the primitive the ablation studies (and any
// downstream tuning) are built from.
func RunPPMVariant(cfg ppm.Config, set workload.Set, dur sim.Time) (RunResult, error) {
	specs, err := set.Specs(1)
	if err != nil {
		return RunResult{}, err
	}
	if cfg.Profiles == nil {
		cfg.Profiles = WorkloadProfiles
	}
	return runSpecs(ppm.New(cfg), "PPM", set.Name, specs, cfg.Market.Wtdp, dur, RunOptions{})
}

// runSpecs runs specs on a fresh TC2 platform under g, labelled governor.
func runSpecs(g platform.Governor, governor, name string, specs []task.Spec, wtdp float64, dur sim.Time, opts RunOptions) (RunResult, error) {
	p := platform.NewTC2()
	p.SetGovernor(g)
	if opts.Telemetry != nil {
		p.AttachTelemetry(opts.Telemetry)
	}
	if opts.Faults != nil {
		p.AttachFaults(opts.Faults)
	}
	PlaceOnLittle(p, specs)
	thermal := hw.NewThermalModel(p.Chip, nil, 25)
	p.AttachThermal(thermal)
	pr := metrics.NewProbe(p, Warmup)
	if opts.Trace != nil {
		pr.EnableSeries(0, tracePeriod)
	}
	pr.Attach()

	var market *core.Market
	if pg, ok := g.(*ppm.Governor); ok {
		market = pg.Market()
	}
	var checker *check.Checker
	if opts.Check || CheckEnabled() {
		checker = check.New(check.Options{Market: market, Thermal: thermal, TDP: wtdp,
			MaxOverRounds: opts.MaxOverRounds})
		p.AttachChecker(checker)
	}
	if opts.Recorder != nil {
		opts.Recorder.Market = market
		p.AttachChecker(opts.Recorder)
	}

	p.Run(Warmup + dur)
	if opts.Trace != nil {
		if err := pr.WriteCSV(opts.Trace); err != nil {
			return RunResult{}, err
		}
	}
	if checker != nil {
		if err := checker.Err(); err != nil {
			return RunResult{}, fmt.Errorf("%s/%s: %w", governor, name, err)
		}
	}

	total, cross := p.Migrations()
	trans := 0
	peakT := 25.0
	for i, cl := range p.Chip.Clusters {
		trans += cl.Transitions()
		if t := thermal.Peak(i); t > peakT {
			peakT = t
		}
	}
	return RunResult{
		Governor:        governor,
		Set:             name,
		MissFrac:        pr.AnyBelowFrac(),
		AvgPower:        pr.AveragePower(),
		Energy:          pr.Energy(),
		Migrations:      total,
		CrossMigrations: cross,
		Transitions:     trans,
		PeakTempC:       peakT,
		Heartbeats:      pr.HeartbeatsDelivered(),
	}, nil
}

// PlaceOnLittle spreads the specs round-robin across the LITTLE cluster's
// cores (falling back to core 0 on an all-big platform).
func PlaceOnLittle(p *platform.Platform, specs []task.Spec) {
	var littleCores []int
	for _, c := range p.Chip.Cores {
		if c.Type() == hw.Little {
			littleCores = append(littleCores, c.ID)
		}
	}
	if len(littleCores) == 0 {
		littleCores = []int{0}
	}
	for i, s := range specs {
		p.AddTask(s, littleCores[i%len(littleCores)])
	}
}

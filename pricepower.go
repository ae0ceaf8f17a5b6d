// Package pricepower is a Go reproduction of "Price Theory Based Power
// Management for Heterogeneous Multi-Cores" (Muthukaruppan, Pathania,
// Mitra — ASPLOS 2014): a market-based power-management framework for
// single-ISA heterogeneous multi-cores, together with the simulated
// ARM big.LITTLE platform, fair-scheduler substrate, benchmark workloads,
// baseline governors (HPM, HL) and the paper's full evaluation harness.
//
// This package is the public facade: it re-exports the library's stable
// surface so downstream users never import internal packages. The layering
// underneath:
//
//	core      — the price-theory market (task/core/cluster/chip agents)
//	lbt       — load balancing and task migration on top of the market
//	ppm       — the complete governor (market + LBT wired to a platform)
//	hpm, hl   — the paper's two baselines
//	hw, sched, task, sim — the simulated hardware/OS substrate
//	workload  — Table 5/6 benchmarks and workload sets
//	platform  — the assembled machine a governor drives
//	metrics   — miss-rate/power/energy probes
//	exp       — one regenerator per paper table and figure
//
// Quickstart:
//
//	p := pricepower.NewTC2Platform()
//	g := pricepower.NewPPM(pricepower.PPMDefaults(0)) // no TDP cap
//	p.SetGovernor(g)
//	p.AddTask(spec, 2) // place a task on LITTLE core 2
//	p.Run(10 * pricepower.Second)
//
// See examples/ for complete programs and DESIGN.md for the system map.
package pricepower

import (
	"pricepower/internal/core"
	"pricepower/internal/hl"
	"pricepower/internal/hpm"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// Virtual-time units (microsecond resolution).
type Time = sim.Time

// Time unit constants.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Hardware model.
type (
	// Chip is the simulated heterogeneous multi-core platform.
	Chip = hw.Chip
	// Cluster is one voltage-frequency domain of identical cores.
	Cluster = hw.Cluster
	// CoreType distinguishes big from LITTLE micro-architectures.
	CoreType = hw.CoreType
	// ChipSpec and ClusterSpec describe platforms; see TC2Spec for the
	// paper's evaluation board.
	ChipSpec    = hw.ChipSpec
	ClusterSpec = hw.ClusterSpec
)

// Core types.
const (
	Little = hw.Little
	Big    = hw.Big
)

// TC2Spec returns the model of the paper's Versatile Express TC2 board
// (2× Cortex-A15 + 3× Cortex-A7, 8 W TDP).
func TC2Spec() ChipSpec { return hw.TC2Spec() }

// NewChip instantiates a platform model from a spec.
func NewChip(spec ChipSpec) (*Chip, error) { return hw.NewChip(spec) }

// Task model.
type (
	// TaskSpec describes a heartbeat-emitting task (phases, heart-rate
	// range, priority).
	TaskSpec = task.Spec
	// TaskPhase is one program phase of a task.
	TaskPhase = task.Phase
	// Task is a live task instance.
	Task = task.Task
)

// EstimateDemand converts a heart-rate observation into a demand in
// processing units (the paper's Table 4 equation).
func EstimateDemand(targetHR, consumedPU, currentHR float64) float64 {
	return task.EstimateDemand(targetHR, consumedPU, currentHR)
}

// Platform composition.
type (
	// Platform is the assembled simulated machine a governor drives.
	Platform = platform.Platform
	// Governor is a power-management policy.
	Governor = platform.Governor
)

// NewTC2Platform builds the paper's evaluation platform with a 1 ms tick.
func NewTC2Platform() *Platform { return platform.NewTC2() }

// NewPlatform builds a platform around an arbitrary chip model.
func NewPlatform(chip *Chip, step Time) *Platform { return platform.New(chip, step) }

// The price-theory market (usable standalone; the running examples of the
// paper's Tables 1–3 execute directly against it).
type (
	// Market is the agent hierarchy with the chip agent's money control.
	Market = core.Market
	// MarketConfig carries the market tunables (δ, savings cap, TDP…).
	MarketConfig = core.Config
	// TaskAgent is the buyer representing one task.
	TaskAgent = core.TaskAgent
	// ClusterControl is the market's actuation interface onto a cluster.
	ClusterControl = core.ClusterControl
	// LadderControl is a self-contained ClusterControl over an explicit
	// supply ladder (useful without any hardware model).
	LadderControl = core.LadderControl
	// MarketState is the chip agent's normal/threshold/emergency state.
	MarketState = core.State
)

// MarketDefaults returns the evaluation's market tunables for a TDP budget
// (0 disables the power constraint).
func MarketDefaults(wtdp float64) MarketConfig { return core.DefaultConfig(wtdp) }

// NewMarket assembles a market over cluster controls; coresPer[i] core
// agents are created for cluster i.
func NewMarket(cfg MarketConfig, controls []ClusterControl, coresPer []int) *Market {
	return core.NewMarket(cfg, controls, coresPer)
}

// NewLadderControl builds a scripted supply ladder.
func NewLadderControl(ladder, power []float64) *LadderControl {
	return core.NewLadderControl(ladder, power)
}

// Governors.
type (
	// PPM is the paper's price-theory governor (market + LBT).
	PPM = ppm.Governor
	// PPMConfig tunes it.
	PPMConfig = ppm.Config
	// HPM is the hierarchical-PID baseline.
	HPM = hpm.Governor
	// HL is the Linaro heterogeneity-aware scheduler + ondemand baseline.
	HL = hl.Governor
)

// PPMDefaults returns the paper's cadences (31.7 ms bid rounds, balancing
// every 3 rounds, migration every 6) for a TDP budget.
func PPMDefaults(wtdp float64) PPMConfig { return ppm.DefaultConfig(wtdp) }

// BidPeriodFor derives the bidding-round period from a workload per §3.4:
// max(10 ms scheduling epoch, shortest task period).
func BidPeriodFor(specs []TaskSpec) Time { return ppm.BidPeriodFor(specs) }

// OnlineProfiler learns cross-architecture demand ratios from the
// governor's own migrations — the paper's future-work replacement for
// off-line profiling. Set both PPMConfig.Online and PPMConfig.Profiles
// (possibly chained with a static table via ChainProfiles).
type OnlineProfiler = ppm.OnlineProfiler

// NewOnlineProfiler returns an empty online profiler.
func NewOnlineProfiler() *OnlineProfiler { return ppm.NewOnlineProfiler() }

// ChainProfiles composes profile sources; the first reporting evidence wins.
func ChainProfiles(sources ...ppm.ProfileFunc) ppm.ProfileFunc {
	return ppm.ChainProfiles(sources...)
}

// ThermalModel is the per-cluster RC die-temperature model.
type ThermalModel = hw.ThermalModel

// NewThermalModel builds a thermal model over a chip (params nil = mobile
// defaults) at the given ambient temperature in °C. Platform.AttachThermal
// advances it once per tick.
func NewThermalModel(chip *Chip, ambient float64) *ThermalModel {
	return hw.NewThermalModel(chip, nil, ambient)
}

// NewPPM builds the price-theory governor.
func NewPPM(cfg PPMConfig) *PPM { return ppm.New(cfg) }

// NewHPM builds the control-theory baseline.
func NewHPM(wtdp float64) *HPM { return hpm.New(hpm.DefaultConfig(wtdp)) }

// NewHL builds the Linaro-scheduler baseline.
func NewHL(wtdp float64) *HL { return hl.New(hl.DefaultConfig(wtdp)) }

// WorkloadProfiles adapts the benchmark registry's off-line profiling data
// to the PPM governor's estimator.
func WorkloadProfiles(name string, ct CoreType) (float64, bool) {
	p, ok := workload.ProfileFor(name)
	if !ok {
		return 0, false
	}
	return p.Demand(ct), true
}

// Workloads.
type (
	// WorkloadSet is one of the paper's Table 6 multiprogrammed sets.
	WorkloadSet = workload.Set
	// Benchmark is one Table 5 application.
	Benchmark = workload.Benchmark
)

// WorkloadSets returns the paper's nine sets (l1–l3, m1–m3, h1–h3).
func WorkloadSets() []WorkloadSet { return workload.Sets }

// WorkloadSet by name; ok reports whether it exists.
func WorkloadSetByName(name string) (WorkloadSet, bool) { return workload.SetByName(name) }

// Measurement.
type (
	// Probe samples a running platform for the evaluation metrics.
	Probe = metrics.Probe
	// Series is a time series of samples.
	Series = metrics.Series
)

// NewProbe builds a probe that starts measuring after warmup.
func NewProbe(p *Platform, warmup Time) *Probe { return metrics.NewProbe(p, warmup) }

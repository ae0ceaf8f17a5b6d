// Package check is the correctness layer of the simulator: a pluggable
// runtime invariant checker plus a deterministic-replay harness (digest.go).
//
// The paper's whole argument rests on market invariants — prices stay
// non-negative (§3.2.1), supply meets demand at clearing (P_c = Σb_t/S_c ⇒
// Σs_t = S_c), budgets are conserved down the chip→cluster→core→task
// hierarchy (§3.2.3's allowance distribution), the chip's smoothed power
// settles under the TDP budget (§3.2.3's state machine), and frequencies
// stay on the discrete V-F ladder (§3.2.2). A regression in the market or
// the platform hot paths would otherwise only show up as silently wrong
// Table/Figure numbers. The Checker asserts those properties continuously
// while a simulation runs; it attaches to a platform via
// Platform.AttachChecker and costs nothing when detached.
//
// Checked invariants (identifiers appear in Violation.Invariant):
//
//	task-accounting    no task lost or duplicated across migrations: the
//	                   per-core index partitions the live tasks, frozen
//	                   (mid-migration) tasks sit on no run queue, every
//	                   other task sits on exactly its core's queue
//	vruntime-monotone  per-queue min-vruntime and per-entity vruntime
//	                   never decrease (CFS fairness bookkeeping)
//	util-bounds        core utilization stays in [0,1]
//	freq-on-ladder     every cluster's V-F level indexes its ladder and
//	                   the supply equals that rung's frequency
//	power-envelope     cluster power stays inside the [all-idle, all-busy]
//	                   envelope of its current rung; gated clusters draw
//	                   exactly their off-power
//	energy-monotone    energy meters never run backwards
//	thermal-monotone   under (near-)constant power each cluster's die
//	                   temperature moves monotonically toward its RC
//	                   steady state (first-order model, §2's thermal TDP)
//	tdp-settled        after a settling window the EWMA-smoothed chip
//	                   power stays within slack of the TDP budget; brief
//	                   burst excursions are tolerated while the state
//	                   machine throttles, persistent ones trip
//	price-nonneg       every core's price and base price is finite, ≥ 0
//	bid-bounds         bids respect the b_min floor and stay finite;
//	                   savings stay in [0, SavingsCap·a_t] against the
//	                   allowance snapshotted at the last settlement
//	                   (Eq. 1 clamp)
//	budget-conserved   Σ_v A_v = A over occupied clusters, Σ_c A_c = A_v,
//	                   Σ_t a_t = A_c at every market level, each sum
//	                   captured when distribution wrote it (LBT moves
//	                   tasks between cores after distribution, so live
//	                   re-sums are not conserved — see DESIGN.md §7)
//	market-clearing    on every core with a positive price the supplies
//	                   handed out at the last price discovery sum to the
//	                   supply that discovery cleared against
//	state-classified   the chip agent's state matches its smoothed power
//	                   against the effective Wth/Wtdp boundaries (the
//	                   configured ones, tightened while sensor-degraded)
//	allowance-floor    the global allowance respects the b_min·(n+1) floor
//	offline-no-supply  a hot-unplugged core supplies no PUs and executes
//	                   nothing (internal/fault's CoreUnplug)
//	degraded-guard     sensor-degraded mode tightens the TDP guard band by
//	                   exactly DegradedGuard and healthy mode runs on the
//	                   configured boundaries
//
// Market-level invariants run once per market round (detected by watching
// Market.Round() advance); platform-level invariants run every tick.
package check

import (
	"errors"
	"fmt"
	"math"

	"pricepower/internal/core"
	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
)

// Violation is one observed invariant breach.
type Violation struct {
	Time      sim.Time
	Round     int // market round at the time (0 when no market attached)
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v round=%d %s: %s", v.Time, v.Round, v.Invariant, v.Detail)
}

// Options configures a Checker.
type Options struct {
	// Market enables the market-level invariants (price, budget, clearing,
	// TDP state machine). Leave nil for market-less governors (HPM, HL).
	Market *core.Market
	// Thermal enables the thermal-monotonicity invariant.
	Thermal *hw.ThermalModel
	// TDP enables the tdp-settled invariant for market-less governors: the
	// checker maintains its own EWMA of chip power (the market's own
	// smoothed power is used when Market is set). 0 disables the check.
	TDP float64
	// MaxOverRounds is how many consecutive checked rounds the smoothed
	// power may ride above the slack band before tdp-settled trips
	// (default 3). The EWMA trails raw power by a round while the chip
	// agent throttles, so a workload burst can push it briefly over the
	// band even with the state machine in emergency and reacting; only a
	// persistent excursion means control is lost.
	MaxOverRounds int
	// Telemetry, when set, mirrors every violation into the structured
	// event stream (kind "violation") so breaches land in the same JSONL /
	// ring timeline as the market events that caused them. When the checker
	// is attached to a platform and this is nil, CheckTick adopts the
	// platform's emitter automatically.
	Telemetry *telemetry.Emitter
}

// SettlingRounds is how many market rounds (or, without a market,
// governor-period-scale ticks/32) to wait before enforcing tdp-settled:
// 160 rounds ≈ 5 s at the paper's 31.7 ms cadence.
const SettlingRounds = 160

// tdpSlack is the tolerated relative excursion of the smoothed power above
// the TDP. Discrete V-F rungs make the settled system oscillate around the
// budget (§3.2.3); the EWMA removes most but not all of that ripple.
const tdpSlack = 0.10

// MaxViolations bounds a checker's recorded list; further breaches only
// increment the total count.
const MaxViolations = 100

func (o Options) withDefaults() Options {
	if o.MaxOverRounds <= 0 {
		o.MaxOverRounds = 3
	}
	return o
}

// Checker implements platform.Checker: it validates the invariant list
// above at the end of every platform tick.
type Checker struct {
	opt Options

	violations []Violation
	total      int

	lastRound   int
	ticks       int64
	minVrun     []float64       // per-queue min-vruntime watermarks
	entityVrun  map[int]float64 // per-entity vruntime watermarks
	lastJoules  []float64       // chip meter + per-cluster meters
	lastPower   []float64       // per-cluster power at the previous tick
	lastTemp    []float64       // per-cluster temperature at the previous tick
	haveThermal bool
	ewma        float64 // private power EWMA for market-less TDP checking
	ewmaSeeded  bool
	overStreak  int // consecutive checked rounds above the TDP slack band
}

// New builds a Checker. Attach it with Platform.AttachChecker; drive it
// manually with CheckTick (or CheckMarket for platform-less market runs).
func New(opt Options) *Checker {
	return &Checker{opt: opt.withDefaults(), entityVrun: make(map[int]float64)}
}

// Violations returns the recorded breaches (capped at MaxViolations).
func (c *Checker) Violations() []Violation { return c.violations }

// Total reports how many breaches occurred, including unrecorded ones.
func (c *Checker) Total() int { return c.total }

// Err reports the count and then every recorded violation, one per line,
// or nil when the run was clean.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	errs := []error{fmt.Errorf("check: %d invariant violation(s)", c.total)}
	for _, v := range c.violations {
		errs = append(errs, errors.New(v.String()))
	}
	return errors.Join(errs...)
}

func (c *Checker) report(now sim.Time, invariant, format string, args ...interface{}) {
	v := Violation{Time: now, Round: c.lastRound, Invariant: invariant,
		Detail: fmt.Sprintf(format, args...)}
	if em := c.opt.Telemetry; em.Enabled(telemetry.KindViolation) {
		ev := telemetry.E(telemetry.KindViolation)
		ev.Time = now
		ev.Round = v.Round
		ev.Name = invariant
		ev.Detail = v.Detail
		em.Emit(ev)
	}
	c.total++
	if len(c.violations) < MaxViolations {
		c.violations = append(c.violations, v)
	}
}

// CheckTick implements platform.Checker.
func (c *Checker) CheckTick(p *platform.Platform, now sim.Time) {
	c.ticks++
	if c.opt.Telemetry == nil {
		c.opt.Telemetry = p.Telemetry()
	}
	c.checkTaskAccounting(p, now)
	c.checkVruntime(p, now)
	c.checkHardware(p, now)
	c.checkEnergy(p, now)
	c.checkThermal(p, now)
	if m := c.opt.Market; m != nil {
		if r := m.Round(); r != c.lastRound {
			c.lastRound = r
			c.CheckMarket(m, now)
		}
	} else if c.opt.TDP > 0 {
		// No market: maintain a private EWMA at the same horizon the chip
		// agent uses, sampled every tick (the smoothing constant is per
		// bid round in the market, so stretch it by a nominal 32 ticks).
		w := p.Power()
		if !c.ewmaSeeded {
			c.ewma, c.ewmaSeeded = w, true
		} else {
			const alpha = 0.3 / 32
			c.ewma = alpha*w + (1-alpha)*c.ewma
		}
		if c.ticks > int64(SettlingRounds)*32 {
			// Ticks are ~32× denser than market rounds; scale the
			// tolerated streak to keep the same wall-clock window.
			if limit := c.opt.TDP * (1 + tdpSlack); c.ewma > limit {
				c.overStreak++
				if c.overStreak > c.opt.MaxOverRounds*32 {
					c.report(now, "tdp-settled", "smoothed chip power %.3f W above %.3f W (TDP %.2f W + %.0f%% slack) for %d consecutive ticks",
						c.ewma, limit, c.opt.TDP, tdpSlack*100, c.overStreak)
				}
			} else {
				c.overStreak = 0
			}
		}
	}
}

// checkTaskAccounting pins the no-task-lost-or-duplicated invariant across
// migrations: the per-core index partitions the live task set, a frozen
// task is enqueued nowhere, and every other task is enqueued on exactly its
// own core's queue.
func (c *Checker) checkTaskAccounting(p *platform.Platform, now sim.Time) {
	tasks := p.Tasks()
	indexed := 0
	for core := 0; core < len(p.Chip.Cores); core++ {
		indexed += p.NumTasksOnCore(core)
	}
	if indexed != len(tasks) {
		c.report(now, "task-accounting", "per-core index holds %d tasks, platform has %d live",
			indexed, len(tasks))
	}
	for _, t := range tasks {
		core := p.CoreOf(t)
		e := p.EntityOf(t)
		if core < 0 || core >= len(p.Chip.Cores) {
			c.report(now, "task-accounting", "task %s mapped to invalid core %d", t.Name, core)
			continue
		}
		if p.Migrating(t) {
			if e.Queued() {
				c.report(now, "task-accounting", "task %s frozen mid-migration but still enqueued", t.Name)
			}
			continue
		}
		if !p.Queue(core).Contains(e) {
			c.report(now, "task-accounting", "task %s mapped to core %d but not on its queue", t.Name, core)
		}
	}
	for core := 0; core < len(p.Chip.Cores); core++ {
		q := p.Queue(core)
		live := 0
		for _, t := range p.TasksOnCore(core) {
			if !p.Migrating(t) {
				live++
			}
		}
		if q.Len() != live {
			c.report(now, "task-accounting", "core %d queue holds %d entities, index expects %d",
				core, q.Len(), live)
		}
	}
}

// checkVruntime pins CFS bookkeeping: per-queue min-vruntime and per-entity
// vruntime are monotone non-decreasing.
func (c *Checker) checkVruntime(p *platform.Platform, now sim.Time) {
	if c.minVrun == nil {
		c.minVrun = make([]float64, len(p.Chip.Cores))
		for i := range c.minVrun {
			c.minVrun[i] = math.Inf(-1)
		}
	}
	for core := 0; core < len(p.Chip.Cores); core++ {
		mv := p.Queue(core).MinVruntime()
		if mv < c.minVrun[core] {
			c.report(now, "vruntime-monotone", "core %d min-vruntime fell %.9g -> %.9g",
				core, c.minVrun[core], mv)
		}
		c.minVrun[core] = mv
	}
	for _, t := range p.Tasks() {
		e := p.EntityOf(t)
		v := e.VRuntime()
		if prev, ok := c.entityVrun[e.ID]; ok && v < prev {
			c.report(now, "vruntime-monotone", "task %s vruntime fell %.9g -> %.9g", t.Name, prev, v)
		}
		c.entityVrun[e.ID] = v
	}
}

// checkHardware pins the per-tick hardware invariants: utilizations in
// [0,1], V-F levels on the ladder, and cluster power inside the envelope of
// the current rung.
func (c *Checker) checkHardware(p *platform.Platform, now sim.Time) {
	const eps = 1e-9
	for _, core := range p.Chip.Cores {
		u := p.Utilization(core.ID)
		if u < -eps || u > 1+eps || math.IsNaN(u) {
			c.report(now, "util-bounds", "core %d utilization %.6g outside [0,1]", core.ID, u)
		}
		// offline-no-supply: a hot-unplugged core supplies no PUs and
		// executes nothing, whatever its cluster is doing.
		if core.Offline {
			if s := core.SupplyPU(); s != 0 {
				c.report(now, "offline-no-supply", "core %d offline but supplies %.1f PU", core.ID, s)
			}
			if u > eps {
				c.report(now, "offline-no-supply", "core %d offline but utilization %.6g > 0", core.ID, u)
			}
		}
	}
	for _, cl := range p.Chip.Clusters {
		lvl := cl.Level()
		if lvl < 0 || lvl >= cl.NumLevels() {
			c.report(now, "freq-on-ladder", "cluster %d level %d outside ladder [0,%d)",
				cl.ID, lvl, cl.NumLevels())
			continue
		}
		pw := hw.ClusterPower(cl)
		if !cl.On {
			if math.Abs(pw-cl.Spec.OffPower) > eps {
				c.report(now, "power-envelope", "cluster %d gated but draws %.4f W (off-power %.4f W)",
					cl.ID, pw, cl.Spec.OffPower)
			}
			continue
		}
		if got, want := cl.SupplyPU(), float64(cl.Spec.Levels[lvl].FreqMHz); got != want {
			c.report(now, "freq-on-ladder", "cluster %d supply %.1f PU not rung %d's %.1f",
				cl.ID, got, lvl, want)
		}
		lo := hw.ClusterPowerAt(cl, lvl, 0)
		hi := hw.ClusterPowerAt(cl, lvl, 1)
		if pw < lo-1e-6 || pw > hi+1e-6 {
			c.report(now, "power-envelope", "cluster %d power %.4f W outside rung %d envelope [%.4f, %.4f]",
				cl.ID, pw, lvl, lo, hi)
		}
	}
}

// checkEnergy pins meter monotonicity: integrated joules never decrease.
func (c *Checker) checkEnergy(p *platform.Platform, now sim.Time) {
	n := 1 + len(p.Chip.Clusters)
	if c.lastJoules == nil {
		c.lastJoules = make([]float64, n)
		for i := range c.lastJoules {
			c.lastJoules[i] = math.Inf(-1)
		}
	}
	j := p.Meter().Joules()
	if j < c.lastJoules[0] {
		c.report(now, "energy-monotone", "chip meter fell %.9g -> %.9g J", c.lastJoules[0], j)
	}
	c.lastJoules[0] = j
	for i := range p.Chip.Clusters {
		j := p.ClusterMeter(i).Joules()
		if j < c.lastJoules[1+i] {
			c.report(now, "energy-monotone", "cluster %d meter fell %.9g -> %.9g J",
				i, c.lastJoules[1+i], j)
		}
		c.lastJoules[1+i] = j
	}
}

// checkThermal pins the RC model's monotone approach: while a cluster's
// power is (near-)constant, its temperature must move toward — and never
// overshoot past — the steady state T_amb + R·P for that power.
func (c *Checker) checkThermal(p *platform.Platform, now sim.Time) {
	th := c.opt.Thermal
	if th == nil {
		return
	}
	n := len(p.Chip.Clusters)
	if !c.haveThermal {
		c.lastPower = make([]float64, n)
		c.lastTemp = make([]float64, n)
		for i, cl := range p.Chip.Clusters {
			c.lastPower[i] = hw.ClusterPower(cl)
			c.lastTemp[i] = th.Temp(i)
		}
		c.haveThermal = true
		return
	}
	for i, cl := range p.Chip.Clusters {
		pw := hw.ClusterPower(cl)
		temp := th.Temp(i)
		// Only judge steps taken under constant power: the steady-state
		// target is only well-defined between power changes.
		if rel := math.Abs(pw - c.lastPower[i]); rel <= 1e-9*(1+math.Abs(pw)) {
			ss := th.SteadyState(i)
			lo := math.Min(c.lastTemp[i], ss) - 1e-9
			hi := math.Max(c.lastTemp[i], ss) + 1e-9
			if temp < lo || temp > hi {
				c.report(now, "thermal-monotone",
					"cluster %d temp %.6f °C left [%.6f, %.6f] (prev %.6f, steady %.6f) at constant power",
					i, temp, lo, hi, c.lastTemp[i], ss)
			}
		}
		c.lastPower[i] = pw
		c.lastTemp[i] = temp
	}
}

// CheckMarket runs the market-level invariants once (called automatically
// after each round when the checker is attached to a platform; platform-
// less harnesses — the Table 1–3 reproductions — call it directly after
// each StepOnce).
func (c *Checker) CheckMarket(m *core.Market, now sim.Time) {
	cfg := m.Config()
	c.lastRound = m.Round()

	// price-nonneg / bid-bounds / market-clearing, per cluster and core.
	for _, v := range m.Clusters {
		for _, ca := range v.Cores {
			// The cluster agent may have moved the V-F level after this
			// round's price discovery; clearing is judged at the supply the
			// price was discovered against.
			supply := ca.DiscoveredSupply()
			price := ca.Price()
			if price < 0 || math.IsNaN(price) || math.IsInf(price, 0) {
				c.report(now, "price-nonneg", "cluster %d core %d price %v", v.ID, ca.ID, price)
			}
			if bp := ca.BasePrice(); bp < 0 || math.IsNaN(bp) || math.IsInf(bp, 0) {
				c.report(now, "price-nonneg", "cluster %d core %d base price %v", v.ID, ca.ID, bp)
			}
			for _, t := range ca.Tasks {
				b := t.Bid()
				if math.IsNaN(b) || math.IsInf(b, 0) || b < cfg.MinBid-1e-12 {
					c.report(now, "bid-bounds", "task %d bid %v below b_min %v", t.ID, b, cfg.MinBid)
				}
				s := t.Savings()
				if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
					c.report(now, "bid-bounds", "task %d savings %v negative", t.ID, s)
				}
				// The cap is enforced by settleSavings against the
				// allowance of the round that last ran the clamp (frozen
				// clusters skip bidding while allowances keep moving), so
				// judge against that snapshot.
				if cap := cfg.SavingsCap * t.SavingsBasis(); s > cap+1e-9 {
					c.report(now, "bid-bounds", "task %d savings %.6g above cap %.6g (basis allowance %.6g)",
						t.ID, s, cap, t.SavingsBasis())
				}
			}
			// Clearing, judged on the quantities snapshotted at discovery
			// (the LBT module may migrate agents — and their purchases —
			// to other cores later in the same round).
			cleared := ca.ClearedSupply()
			if price > 0 {
				if math.Abs(cleared-supply) > 1e-6*(1+supply) {
					c.report(now, "market-clearing", "cluster %d core %d cleared %.6f ≠ supply %.6f",
						v.ID, ca.ID, cleared, supply)
				}
			} else if cleared != 0 {
				c.report(now, "market-clearing", "cluster %d core %d cleared %.6g at zero price",
					v.ID, ca.ID, cleared)
			}
		}
	}

	// budget-conserved, at each level of the hierarchy. Each level is
	// judged on the Σ snapshotted when the allowance was fanned out (the
	// DistributedAllowance accessors): task migrations move agents — and
	// their allowances — across cores and clusters after distribution
	// within the same governor tick, so live sums over the current
	// membership do not have to match.
	taskCount := 0
	for _, v := range m.Clusters {
		taskCount += v.TaskCount()
		if d, a := v.DistributedAllowance(), v.Allowance(); math.Abs(d-a) > 1e-6*(1+a) {
			c.report(now, "budget-conserved", "cluster %d: ΣA_c %.6g ≠ A_v %.6g", v.ID, d, a)
		}
		for _, ca := range v.Cores {
			if d, a := ca.DistributedAllowance(), ca.Allowance(); math.Abs(d-a) > 1e-6*(1+a) {
				c.report(now, "budget-conserved", "cluster %d core %d: Σa_t %.6g ≠ A_c %.6g",
					v.ID, ca.ID, d, a)
			}
		}
	}
	if d := m.DistributedAllowance(); d > 0 && math.Abs(d-m.Allowance()) > 1e-6*(1+m.Allowance()) {
		c.report(now, "budget-conserved", "ΣA_v %.6g ≠ A %.6g", d, m.Allowance())
	}

	// allowance-floor: A ≥ b_min·(n+1) after every round.
	if floor := cfg.MinBid * float64(taskCount+1); m.Allowance() < floor-1e-9 {
		c.report(now, "allowance-floor", "allowance %.6g below floor %.6g (%d tasks)",
			m.Allowance(), floor, taskCount)
	}

	// state-classified: the chip agent's state matches its smoothed power.
	// Judged against the *effective* boundaries — while the market runs
	// degraded the guard band is tightened, and classifying against the
	// configured Wth/Wtdp would flag every correctly-early throttle.
	w := m.SmoothedPower()
	effWth, effWtdp := m.EffectiveWth(), m.EffectiveWtdp()
	want := core.Normal
	if cfg.Wtdp > 0 {
		switch {
		case w >= effWtdp:
			want = core.Emergency
		case w >= effWth:
			want = core.Threshold
		}
	}
	if m.State() != want {
		c.report(now, "state-classified", "state %v but smoothed power %.4f W classifies as %v (Wth %.2f, Wtdp %.2f)",
			m.State(), w, want, effWth, effWtdp)
	}

	// degraded-guard: sensor-degraded mode must tighten the guard band,
	// never widen it — and a healthy market must run on the configured
	// boundaries exactly.
	if cfg.Wtdp > 0 {
		switch {
		case m.Degraded() && effWtdp > cfg.Wtdp*core.DegradedGuard+1e-9:
			c.report(now, "degraded-guard", "degraded but effective Wtdp %.4f W not tightened (Wtdp %.2f, guard %.2f)",
				effWtdp, cfg.Wtdp, core.DegradedGuard)
		case !m.Degraded() && (effWtdp != cfg.Wtdp || effWth != cfg.Wth):
			c.report(now, "degraded-guard", "healthy but effective boundaries (%.4f, %.4f) ≠ configured (%.2f, %.2f)",
				effWth, effWtdp, cfg.Wth, cfg.Wtdp)
		}
	}

	// tdp-settled: after the settling window the smoothed power holds the
	// budget (the buffer-zone design of §3.2.3). Brief excursions above
	// the band are tolerated while the state machine throttles — only a
	// streak longer than MaxOverRounds means the controller lost control.
	if cfg.Wtdp > 0 && m.Round() > SettlingRounds {
		if limit := cfg.Wtdp * (1 + tdpSlack); w > limit {
			c.overStreak++
			if c.overStreak > c.opt.MaxOverRounds {
				c.report(now, "tdp-settled", "smoothed power %.4f W above %.4f W (TDP %.2f W + %.0f%% slack) for %d consecutive rounds at round %d",
					w, limit, cfg.Wtdp, tdpSlack*100, c.overStreak, m.Round())
			}
		} else {
			c.overStreak = 0
		}
	}
}

var _ platform.Checker = (*Checker)(nil)

// Package ppm is the paper's complete power-management governor: the
// price-theory market (internal/core) plus the load-balancing/task-migration
// module (internal/lbt) wired onto a simulated platform
// (internal/platform).
//
// Cadences follow §3.4: bid rounds every 31.7 ms (the shortest task period),
// load balancing every 3 bid rounds (95.1 ms), task migration every 6
// (190.2 ms). The LBT module is disabled while the chip agent is in the
// emergency state.
package ppm

import (
	"math"

	"pricepower/internal/core"
	"pricepower/internal/fault"
	"pricepower/internal/hw"
	"pricepower/internal/lbt"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// ProfileFunc supplies the off-line profiled demand of a task (by spec
// name) on a core type, in PUs at the target heart rate. The second result
// reports whether a profile exists; without one the governor falls back to
// the task's currently observed demand (no heterogeneity speculation).
type ProfileFunc func(taskName string, ct hw.CoreType) (float64, bool)

// Config tunes the governor.
type Config struct {
	// Market carries the price-theory tunables (δ, savings cap, TDP…).
	Market core.Config
	// BidPeriod is the bidding-round period (§3.4; default 31.7 ms).
	BidPeriod sim.Time
	// BalanceEvery and MigrateEvery are in bid rounds (defaults 3 and 6).
	BalanceEvery, MigrateEvery int
	// DisableLBT turns off load balancing and migration (the Figure 7/8
	// single-core studies).
	DisableLBT bool
	// Profiles supplies off-line profiling data to the LBT estimator.
	Profiles ProfileFunc
	// MigrationCooldown is the per-task quiet period after a movement
	// during which the LBT module will not move the same task again
	// (default 3 s, the scale of the workloads' program phases) —
	// migration is expensive (§5.1: up to ~4 ms) and the demand
	// observations right after one are unreliable.
	MigrationCooldown sim.Time
	// DemandSmoothing is the EWMA weight of the newest demand observation
	// (default 0.35); heart-rate-window noise otherwise flaps the planner.
	DemandSmoothing float64
	// MinSpendGain is the minimal fractional spend reduction for a
	// power-efficiency movement (default 0.03).
	MinSpendGain float64
	// Online, when set, learns cross-architecture demand ratios from the
	// governor's own migrations (the paper's future-work replacement for
	// off-line profiling). Compose it with a static table via
	// ChainProfiles, or use it alone to run fully profile-free.
	Online *OnlineProfiler
}

// BidPeriodFor derives the bidding-round period from a workload per §3.4:
// the maximum of the Linux scheduling epoch (10 ms) and the shortest task
// period (one over the highest target heart rate). The paper's 31.7 ms is
// exactly this rule applied to its workloads, whose fastest tasks beat at
// 31.5 hb/s.
func BidPeriodFor(specs []task.Spec) sim.Time {
	const linuxEpoch = 10 * sim.Millisecond
	shortest := sim.Time(0)
	for _, s := range specs {
		if hr := s.TargetHR(); hr > 0 {
			period := sim.FromSeconds(1 / hr)
			if shortest == 0 || period < shortest {
				shortest = period
			}
		}
	}
	if shortest < linuxEpoch {
		return linuxEpoch
	}
	return shortest
}

// DefaultConfig returns the paper's cadences with the default market
// tunables for the given TDP (0 = unconstrained).
func DefaultConfig(wtdp float64) Config {
	return Config{
		Market:            core.DefaultConfig(wtdp),
		BidPeriod:         sim.FromMillis(31.7),
		BalanceEvery:      3,
		MigrateEvery:      6,
		MigrationCooldown: 3 * sim.Second,
		DemandSmoothing:   0.35,
		MinSpendGain:      0.03,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Market.Wtdp)
	if c.BidPeriod <= 0 {
		c.BidPeriod = d.BidPeriod
	}
	if c.BalanceEvery <= 0 {
		c.BalanceEvery = d.BalanceEvery
	}
	if c.MigrateEvery <= 0 {
		c.MigrateEvery = d.MigrateEvery
	}
	if c.MigrationCooldown <= 0 {
		c.MigrationCooldown = d.MigrationCooldown
	}
	if c.DemandSmoothing <= 0 {
		c.DemandSmoothing = d.DemandSmoothing
	}
	if c.MinSpendGain <= 0 {
		c.MinSpendGain = d.MinSpendGain
	}
	return c
}

// Governor implements platform.Governor.
type Governor struct {
	cfg     Config
	p       *platform.Platform
	market  *core.Market
	planner *lbt.Planner
	tel     *telemetry.Emitter

	// recs holds one record per live task, in the platform's creation
	// (ascending task ID) order; spare is the merge buffer syncTasks swaps
	// with it. byTask and byAgent index the records by task ID and by
	// agent ID (both assigned in sequence: Platform.AddTask,
	// Market.AddTask), nil once removed.
	recs, spare []*taskRec
	byTask      []*taskRec
	byAgent     []*taskRec

	counts []int // powerGateEmptyClusters' per-cluster task counts

	nextBid sim.Time
	now     sim.Time
	round   int

	balances, migrations int

	// offline mirrors each core's hot-unplug state as of the previous bid
	// round, so the governor sees the offline→online edge and runs the
	// supply-agent price recovery (Market.RecoverCore). Only consulted when
	// a fault injector is attached.
	offline     []bool
	evacuations int
}

// taskRec is the governor's state for one live task.
type taskRec struct {
	t *task.Task
	a *core.TaskAgent

	lastTotal  float64 // cumulative work at the previous observation
	lastDemand float64 // smoothed demand; 0 until first observed

	// lbt is the windowed peak demand the LBT estimator reads, once
	// lbtSeen (the task's first demand observation).
	lbt     demandWindow
	lbtSeen bool

	// holdUntil is the observation hold after a migration, while held.
	holdUntil sim.Time
	held      bool

	// movedAt is the last movement's time (cooldown), once moved.
	movedAt sim.Time
	moved   bool

	// est holds the LBT estimator's inputs, taken once per plan
	// (snapEstimate).
	est struct {
		d   float64     // the windowed peak, else the current demand
		cur *hw.Cluster // the task's cluster
		// prof and profOK are the task's profile on each core type.
		prof   [hw.Big + 1]float64
		profOK [hw.Big + 1]bool
	}
}

// New builds a PPM governor with the given configuration.
func New(cfg Config) *Governor {
	return &Governor{cfg: cfg.withDefaults()}
}

// Name implements platform.Governor.
func (g *Governor) Name() string { return "PPM" }

// Market exposes the underlying market (read-only use: experiments inspect
// state, savings, allowances).
func (g *Governor) Market() *core.Market { return g.market }

// AgentOf returns the market agent representing a task (nil if the
// governor does not track it).
func (g *Governor) AgentOf(t *task.Task) *core.TaskAgent {
	if r := g.recOfTask(t); r != nil {
		return r.a
	}
	return nil
}

// recOfTask finds a live task's record; nil if untracked.
func (g *Governor) recOfTask(t *task.Task) *taskRec {
	if t.ID < 0 || t.ID >= len(g.byTask) {
		return nil
	}
	if r := g.byTask[t.ID]; r != nil && r.t == t {
		return r
	}
	return nil
}

// recOfAgent finds a live agent's record; nil if untracked.
func (g *Governor) recOfAgent(a *core.TaskAgent) *taskRec {
	if a.ID < 0 || a.ID >= len(g.byAgent) {
		return nil
	}
	if r := g.byAgent[a.ID]; r != nil && r.a == a {
		return r
	}
	return nil
}

// Moves reports how many load-balancing and migration movements the
// governor has performed.
func (g *Governor) Moves() (balances, migrations int) { return g.balances, g.migrations }

// Attach implements platform.Governor: it builds the market over the
// platform's clusters and registers agents for the existing tasks.
func (g *Governor) Attach(p *platform.Platform) {
	g.p = p
	g.offline = make([]bool, len(p.Chip.Cores))
	if g.cfg.Market.MaxSensorPowerW <= 0 {
		// Physical envelope for sensor validation: no trustworthy reading
		// can exceed every cluster running flat out (plus 5% margin).
		var env float64
		for _, cl := range p.Chip.Clusters {
			env += hw.MaxClusterPower(cl)
		}
		g.cfg.Market.MaxSensorPowerW = env * 1.05
	}
	controls := make([]core.ClusterControl, len(p.Chip.Clusters))
	cores := make([]int, len(p.Chip.Clusters))
	for i, cl := range p.Chip.Clusters {
		controls[i] = &clusterControl{cl: cl, p: p, retry: fault.Backoff{
			// DVFS retry-with-backoff: first retry next round, growing to at
			// most 8 rounds, jittered per cluster so refused clusters don't
			// re-converge on the same round.
			Base:   g.cfg.BidPeriod,
			Max:    8 * g.cfg.BidPeriod,
			Factor: 2,
			Jitter: 0.5,
			Seed:   uint64(i)*0x9e3779b97f4a7c15 + 0xdf5,
		}}
		cores[i] = cl.Spec.NumCores
	}
	g.market = core.NewMarket(g.cfg.Market, controls, cores)
	g.planner = lbt.NewPlanner(g.market, lbt.EstimatorFunc(g.estimateDemandOn))
	g.planner.MinSpendGain = g.cfg.MinSpendGain
	g.planner.Eligible = func(a *core.TaskAgent) bool {
		r := g.recOfAgent(a)
		if r == nil {
			return false
		}
		return !r.moved || g.now-r.movedAt >= g.cfg.MigrationCooldown
	}
	g.syncTasks()
	g.nextBid = g.cfg.BidPeriod
	if g.tel != nil {
		g.market.SetTelemetry(g.tel)
	}
}

// AttachTelemetry implements platform.TelemetryAware: the platform's
// emitter is handed down to the market so the whole governor — chip-agent
// state machine, DVFS price control, bids — emits through one stream.
// Attach order does not matter: whichever of Attach/AttachTelemetry runs
// second completes the wiring.
func (g *Governor) AttachTelemetry(em *telemetry.Emitter) {
	g.tel = em
	if g.market != nil {
		g.market.SetTelemetry(em)
	}
}

// NextTick implements platform.NextTicker: the next bid round's time.
// Tick returns at once on every earlier tick.
func (g *Governor) NextTick() sim.Time { return g.nextBid }

// Tick implements platform.Governor.
func (g *Governor) Tick(now sim.Time) {
	if now < g.nextBid {
		return
	}
	g.nextBid += g.cfg.BidPeriod
	g.now = now
	g.round++
	g.syncTasks()
	if g.p.Faults() != nil {
		g.handleFaultRecovery()
	}
	g.observe(now)
	g.market.StepOnce()
	g.applyPurchases()
	g.powerGateEmptyClusters()

	if g.cfg.DisableLBT || g.market.State() == core.Emergency {
		return
	}
	if mv := g.planRound(); mv != nil {
		g.applyMove(mv)
		if mv.Kind == lbt.Migrate {
			g.migrations++
		} else {
			g.balances++
		}
	}
}

// planRound runs this round's LBT planning: a migration on MigrateEvery
// rounds, else a load-balancing movement on BalanceEvery rounds, both from
// one plan. The estimator's inputs are taken first.
func (g *Governor) planRound() *lbt.Move {
	migrate, balance := g.round%g.cfg.MigrateEvery == 0, g.round%g.cfg.BalanceEvery == 0
	if !migrate && !balance {
		return nil
	}
	for _, r := range g.recs {
		g.snapEstimate(r)
	}
	return g.planner.PlanRound(migrate, balance)
}

// syncTasks reconciles the records (and market agents) with the platform's
// live tasks: an ordered merge of two ascending-ID lists. Records of removed
// tasks are dropped and their agents removed, in creation order; new tasks
// get an agent and a record.
func (g *Governor) syncTasks() {
	old, recs := g.recs, g.spare[:0]
	i := 0
	for _, t := range g.p.Tasks() {
		for i < len(old) && old[i].t.ID < t.ID {
			g.drop(old[i])
			i++
		}
		if i < len(old) && old[i].t == t {
			recs = append(recs, old[i])
			i++
			continue
		}
		recs = append(recs, g.track(t))
	}
	for ; i < len(old); i++ {
		g.drop(old[i])
	}
	clear(old) // the spare buffer must not pin dropped records
	g.recs, g.spare = recs, old[:0]
}

// track registers a new live task with the market and indexes its record.
func (g *Governor) track(t *task.Task) *taskRec {
	r := &taskRec{t: t, a: g.market.AddTask(t.Priority, g.p.CoreOf(t)), lastTotal: g.p.TotalWork(t)}
	g.byTask = setAt(g.byTask, t.ID, r)
	g.byAgent = setAt(g.byAgent, r.a.ID, r)
	return r
}

// drop removes a departed task's agent from the market and unindexes its
// record.
func (g *Governor) drop(r *taskRec) {
	g.market.RemoveTask(r.a)
	g.byTask[r.t.ID] = nil
	g.byAgent[r.a.ID] = nil
}

// setAt stores r at index i of an ID-indexed slice, growing it as needed.
func setAt(s []*taskRec, i int, r *taskRec) []*taskRec {
	for len(s) <= i {
		s = append(s, nil)
	}
	s[i] = r
	return s
}

// observe feeds each agent the demand and supply observations for the round
// that just elapsed (Table 4's conversion).
func (g *Governor) observe(now sim.Time) {
	period := g.cfg.BidPeriod.Seconds()
	for _, r := range g.recs {
		t, a := r.t, r.a
		total := g.p.TotalWork(t)
		consumed := (total - r.lastTotal) / period
		r.lastTotal = total
		a.Observed = consumed

		if t.Finished() {
			a.Demand = 0
			continue
		}
		settling := false
		if r.held {
			if now < r.holdUntil {
				// Right after a migration the HRM window mixes rates from
				// two core types; hold the profile-seeded demand until it
				// drains.
				continue
			}
			r.held = false
			settling = true
		}
		hr := t.HeartRate(now)
		d := task.EstimateDemand(t.TargetHR(), consumed, hr)
		if settling && d > 0 && g.cfg.Online != nil {
			// First trustworthy post-migration observation: one online
			// profiling sample.
			g.cfg.Online.Settle(t.Name, g.p.ClusterOf(t).Spec.Type, d)
		}
		if d <= 0 {
			// No observation yet (cold start or frozen mid-migration): keep
			// the last known demand, or seed from the profile.
			d = r.lastDemand
			if d <= 0 {
				if g.cfg.Profiles != nil {
					if pd, ok := g.cfg.Profiles(t.Name, g.p.ClusterOf(t).Spec.Type); ok {
						d = pd
					}
				}
				if d <= 0 {
					d = 100
				}
			}
		} else if prev := r.lastDemand; prev > 0 {
			// Smooth against heart-rate-window noise.
			d = g.cfg.DemandSmoothing*d + (1-g.cfg.DemandSmoothing)*prev
		}
		r.lastDemand = d
		a.Demand = d
		// The LBT planner sees the *windowed peak* demand: a placement is
		// only worth a multi-millisecond migration if it survives the
		// task's program phases, so feasibility is judged against the worst
		// demand of the recent past, not an instantaneous (or averaged)
		// observation.
		r.lbtSeen = true
		r.lbt.add(now, d)
	}
}

// demandWindow tracks a robust phase-peak demand: each one-second bucket
// keeps the *minimum* demand observed in that second (filtering sub-second
// transients — heart-rate-window lag after weight changes and migrations
// overshoots upward), and the window reports the *maximum* across buckets
// (capturing multi-second program phases).
type demandWindow struct {
	buckets [demandWindowBuckets]float64
	seconds [demandWindowBuckets]int64
}

// demandWindowBuckets × 1 s covers the workloads' longest phase loops.
const demandWindowBuckets = 10

func (w *demandWindow) add(now sim.Time, d float64) {
	sec := int64(now / sim.Second)
	i := sec % demandWindowBuckets
	if w.seconds[i] != sec {
		w.seconds[i] = sec
		w.buckets[i] = d
		return
	}
	if d < w.buckets[i] {
		w.buckets[i] = d
	}
}

func (w *demandWindow) peak(now sim.Time) float64 {
	sec := int64(now / sim.Second)
	var max float64
	for i := range w.buckets {
		if sec-w.seconds[i] < demandWindowBuckets && w.buckets[i] > max {
			max = w.buckets[i]
		}
	}
	return max
}

// scale multiplies every bucket (used when a migration translates demand to
// another core type).
func (w *demandWindow) scale(f float64) {
	for i := range w.buckets {
		w.buckets[i] *= f
	}
}

// applyPurchases turns each agent's purchased supply into a scheduler share
// (the paper's nice-value manipulation).
func (g *Governor) applyPurchases() {
	for _, r := range g.recs {
		w := r.a.Purchased()
		if w <= 0 || math.IsNaN(w) {
			w = 1
		}
		g.p.SetWeight(r.t, w)
	}
}

// Evacuations reports how many tasks the governor has moved off
// hot-unplugged cores.
func (g *Governor) Evacuations() int { return g.evacuations }

// handleFaultRecovery runs once per bid round while a fault injector is
// attached. It evacuates tasks stranded on hot-unplugged cores (they starve
// there: an offline core supplies no PUs) and, on the offline→online edge,
// rebuilds the returned core's supply-agent price state
// (Market.RecoverCore) so a stale pre-fault price does not distort the next
// clearing.
func (g *Governor) handleFaultRecovery() {
	for i, c := range g.p.Chip.Cores {
		if c.Offline {
			g.evacuateCore(i)
		} else if g.offline[i] {
			g.market.RecoverCore(i)
		}
		g.offline[i] = c.Offline
	}
}

// evacuateCore moves every task off an offline core to the least-loaded
// online core, preferring the same cluster (no cross-type demand
// translation). With nowhere to go (every other core offline) tasks stay
// put and resume when the core replugs — degraded, but nothing is lost.
func (g *Governor) evacuateCore(core int) {
	tasks := g.p.TasksOnCore(core)
	if len(tasks) == 0 {
		return
	}
	wasCluster := g.p.Chip.Cores[core].Cluster
	// TasksOnCore returns a copy, so migrating cannot disturb the walk.
	for _, t := range tasks {
		dst := g.evacTarget(core)
		if dst < 0 {
			return
		}
		if !g.p.Migrate(t, dst) {
			continue // frozen mid-migration; retry next round
		}
		if r := g.recOfTask(t); r != nil {
			newType := g.p.Chip.Cores[dst].Cluster.Spec.Type
			if newType != wasCluster.Spec.Type {
				g.translateDemand(r, wasCluster.Spec.Type, newType)
			}
			g.market.MoveTask(r.a, dst)
			r.movedAt, r.moved = g.now, true
		}
		g.evacuations++
	}
}

// evacTarget picks the least-loaded online core other than `from`,
// preferring from's own cluster; -1 if every other core is offline.
func (g *Governor) evacTarget(from int) int {
	best, bestLoad := -1, 0
	consider := func(c *hw.Core) {
		if c.ID == from || c.Offline {
			return
		}
		if n := g.p.NumTasksOnCore(c.ID); best < 0 || n < bestLoad {
			best, bestLoad = c.ID, n
		}
	}
	for _, c := range g.p.Chip.Cores[from].Cluster.Cores {
		consider(c)
	}
	if best >= 0 {
		return best
	}
	for _, c := range g.p.Chip.Cores {
		consider(c)
	}
	return best
}

// applyMove performs an approved LBT movement on both the market and the
// platform.
func (g *Governor) applyMove(mv *lbt.Move) {
	r := g.recOfAgent(mv.Agent)
	if r == nil {
		return
	}
	t := r.t
	if !g.p.CoreOnline(mv.ToCore) {
		return // LBT planned onto a core that hot-unplugged this round
	}
	wasCluster := g.p.ClusterOf(t)
	if !g.p.Migrate(t, mv.ToCore) {
		return
	}
	g.market.MoveTask(mv.Agent, mv.ToCore)
	r.movedAt, r.moved = g.now, true
	// Demand on the new core type: translate the current observation by the
	// profiled ratio (falling back to the raw profile), and hold it until
	// the HRM window has drained the pre-migration rates.
	newType := g.p.Chip.Cores[mv.ToCore].Cluster.Spec.Type
	if newType != wasCluster.Spec.Type {
		if g.cfg.Online != nil {
			g.cfg.Online.BeginMigration(t.Name, wasCluster.Spec.Type, mv.Agent.Demand)
		}
		g.translateDemand(r, wasCluster.Spec.Type, newType)
	}
}

// translateDemand carries a task's demand across a move between core
// types: the agent's demand, the smoothing history and the LBT window are
// rescaled by the profiled ratio, and observation holds until the HRM
// window has drained the pre-migration rates.
func (g *Governor) translateDemand(r *taskRec, from, to hw.CoreType) {
	a := r.a
	d := g.estimateDemandOnType(r.t, a.Demand, from, to)
	r.lastDemand = d
	if r.lbtSeen && a.Demand > 0 {
		r.lbt.scale(d / a.Demand)
	}
	a.Demand = d
	r.holdUntil, r.held = g.now+task.DefaultHRMWindow, true
}

// estimateDemandOnType translates a demand observed on core type `from`
// into core type `to` using the profiled ratio.
func (g *Governor) estimateDemandOnType(t *task.Task, d float64, from, to hw.CoreType) float64 {
	if g.cfg.Profiles == nil {
		return d
	}
	dTo, ok1 := g.cfg.Profiles(t.Name, to)
	dFrom, ok2 := g.cfg.Profiles(t.Name, from)
	if !ok1 || !ok2 || dFrom <= 0 {
		return d
	}
	return d * dTo / dFrom
}

// powerGateEmptyClusters powers clusters down when they host no tasks and
// back up when they do (§2: "if there are no active tasks in an entire
// cluster, then we can power down that cluster").
func (g *Governor) powerGateEmptyClusters() {
	if g.counts == nil {
		g.counts = make([]int, len(g.p.Chip.Clusters))
	}
	counts := g.counts
	clear(counts)
	for _, t := range g.p.Tasks() {
		counts[g.p.ClusterOf(t).ID]++
	}
	for i, cl := range g.p.Chip.Clusters {
		switch {
		case counts[i] == 0 && cl.On:
			cl.PowerOff()
			g.emitGate(i, "off")
		case counts[i] > 0 && !cl.On:
			cl.PowerOn()
			g.emitGate(i, "on")
		}
	}
}

func (g *Governor) emitGate(cluster int, dir string) {
	if !g.tel.Enabled(telemetry.KindPowerGate) {
		return
	}
	ev := telemetry.E(telemetry.KindPowerGate)
	ev.Round = g.market.Round()
	ev.Cluster = cluster
	ev.Name = dir
	g.tel.Emit(ev)
}

// snapEstimate takes a task's LBT estimator inputs for the coming plan:
// nothing they read changes while a plan runs, so each candidate target
// costs the estimator arithmetic, not a window scan and profile lookups.
func (g *Governor) snapEstimate(r *taskRec) {
	e := &r.est
	e.d = r.a.Demand
	if r.lbtSeen {
		if peak := r.lbt.peak(g.now); peak > 0 {
			e.d = peak
		}
	}
	e.cur = g.p.ClusterOf(r.t)
	if g.cfg.Profiles != nil {
		for ct := range e.prof {
			e.prof[ct], e.profOK[ct] = g.cfg.Profiles(r.t.Name, hw.CoreType(ct))
		}
	}
}

// estimateDemandOn is the LBT estimator, over the inputs snapEstimate
// took. Per §3.3, the steady-state demand on the task's *current* cluster
// is the currently observed demand (which tracks program phases); for a
// *different* cluster the observed demand is translated by the profiled
// demand ratio between the two clusters' core types (the off-line
// profiling step). Without a profile the observed demand is used as-is —
// no heterogeneity speculation.
func (g *Governor) estimateDemandOn(a *core.TaskAgent, cluster int) float64 {
	r := g.recOfAgent(a)
	if r == nil {
		return a.Demand
	}
	e := &r.est
	target := g.p.Chip.Clusters[cluster]
	if target == e.cur || g.cfg.Profiles == nil {
		return e.d
	}
	to, from := target.Spec.Type, e.cur.Spec.Type
	dTarget, dCur := e.prof[to], e.prof[from]
	if !e.profOK[to] || !e.profOK[from] || dCur <= 0 {
		return e.d
	}
	return e.d * dTarget / dCur
}

// clusterControl adapts hw.Cluster to the market's ClusterControl. V-F
// requests go through Platform.StepVF so an attached fault injector can
// refuse or defer them; refusals are retried with exponential backoff
// (jittered per cluster) instead of hammering a failed regulator every
// round. Each control only touches its own cluster and backoff state, so
// the market's cluster phases stay cluster-local.
type clusterControl struct {
	cl    *hw.Cluster
	p     *platform.Platform
	retry fault.Backoff

	attempts  int
	holdUntil sim.Time
}

func (c *clusterControl) SupplyPU() float64 { return c.cl.SupplyPU() }
func (c *clusterControl) SupplyAt(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= len(c.cl.Spec.Levels) {
		i = len(c.cl.Spec.Levels) - 1
	}
	return float64(c.cl.Spec.Levels[i].FreqMHz)
}
func (c *clusterControl) Level() int     { return c.cl.Level() }
func (c *clusterControl) NumLevels() int { return c.cl.NumLevels() }
func (c *clusterControl) StepUp() bool   { return c.step(1) }
func (c *clusterControl) StepDown() bool { return c.step(-1) }

// step requests a one-rung transition. Deferred transitions count as
// accepted (supply will move; the market's frozen-round settling already
// tolerates actuation lag); refusals arm the backoff hold.
func (c *clusterControl) step(dir int) bool {
	if !c.cl.On {
		return false
	}
	now := c.p.Engine.Now()
	if c.attempts > 0 && now < c.holdUntil {
		return false // backing off after a refused transition
	}
	switch c.p.StepVF(c.cl.ID, dir) {
	case platform.StepApplied, platform.StepDeferred:
		c.attempts = 0
		return true
	case platform.StepRefused:
		c.holdUntil = now + c.retry.Next(c.attempts)
		c.attempts++
		return false
	case platform.StepAtLimit:
		c.attempts = 0
		return false
	default: // StepBusy: a deferred transition is still in flight
		return false
	}
}

func (c *clusterControl) Power() float64                { return c.p.SensorClusterPower(c.cl.ID) }
func (c *clusterControl) PowerAt(level int) float64     { return hw.ClusterPowerAt(c.cl, level, 1) }
func (c *clusterControl) IdlePowerAt(level int) float64 { return hw.ClusterPowerAt(c.cl, level, 0) }

var _ core.ClusterControl = (*clusterControl)(nil)
var _ platform.Governor = (*Governor)(nil)
var _ platform.TelemetryAware = (*Governor)(nil)

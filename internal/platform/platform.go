// Package platform composes the hardware model, the fair-scheduler
// substrate, and the task model into one simulated machine that a power-
// management governor can drive — the moral equivalent of the paper's
// Linux-on-TC2 test bed.
//
// Each engine tick the platform:
//
//  1. runs every core's run queue for the tick, delivering work to tasks
//     (heartbeats, phase progression) and computing core utilizations;
//  2. samples the power model and accumulates energy;
//  3. calls the attached governor's Tick, which may re-weight tasks
//     (nice-value manipulation), migrate them (affinity), change cluster
//     V-F levels (cpufreq), or power clusters up/down.
//
// The tick is the simulation's hottest path: it maintains a per-core task
// index (updated on AddTask/RemoveTask/Migrate) so no tick ever scans the
// global task list per core, delivered work is written into each scheduler
// entity, and each cluster's power is computed once per tick for the chip
// total, the meters and the thermal models — the steady-state tick
// performs zero heap allocations (see TestTickAllocationFree and
// BenchmarkTickThroughput at the repository root).
package platform

import (
	"fmt"

	"pricepower/internal/hw"
	"pricepower/internal/sched"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// Governor is a power-management policy driving the platform. Attach is
// called once before the simulation starts; Tick every platform tick (the
// governor decides its own internal cadence, e.g. PPM's 31.7 ms bid rounds).
type Governor interface {
	Name() string
	Attach(p *Platform)
	Tick(now sim.Time)
}

// Checker observes the platform at the end of every tick, after the
// governor ran — the attach point for the invariant-checking and
// deterministic-replay subsystem in internal/check. Checkers must not
// mutate platform state. With no checker attached the tick pays nothing
// (an empty-slice range), preserving the zero-allocation steady state.
type Checker interface {
	CheckTick(p *Platform, now sim.Time)
}

// TelemetryAware is implemented by governors that emit structured
// telemetry (internal/telemetry). The platform propagates its emitter to
// the governor regardless of whether AttachTelemetry or SetGovernor ran
// first.
type TelemetryAware interface {
	AttachTelemetry(em *telemetry.Emitter)
}

// FaultInjector perturbs the signals governors read from (and the actions
// they apply to) the hardware — the attach point for internal/fault. Same
// contract as Checker and the telemetry emitter: with no injector attached
// every hook site pays one nil check and the steady-state tick stays
// allocation-free.
//
// BeginTick runs at the start of every platform tick; all other methods
// may be called from the market's cluster phases and must be pure reads of
// injector state (the deterministic injector derives its perturbations
// from a stateless hash of seed, target and virtual time — never from a
// shared mutable RNG).
type FaultInjector interface {
	// BeginTick applies fault-window transitions (hot-unplug toggles,
	// stuck-sensor captures) and emits fault telemetry.
	BeginTick(p *Platform, now sim.Time)
	// PowerReading perturbs one power-sensor sample; cluster is -1 for the
	// chip-level sensor.
	PowerReading(cluster int, w float64, now sim.Time) float64
	// TempReading perturbs one thermal-sensor sample.
	TempReading(cluster int, t float64, now sim.Time) float64
	// DVFSOutcome decides the fate of a requested V-F transition on a
	// cluster: refused outright, delayed by d, or (false, 0) applied now.
	DVFSOutcome(cluster int, now sim.Time) (refused bool, delay sim.Time)
	// MigrationCost perturbs one modeled migration cost.
	MigrationCost(cost sim.Time, now sim.Time) sim.Time
}

// StepResult is the outcome of a V-F step request routed through the
// platform (StepVF), distinguishing ladder ends from injected regulator
// faults so governors can retry the latter with backoff.
type StepResult int

const (
	// StepApplied: the level changed immediately.
	StepApplied StepResult = iota
	// StepDeferred: the request was accepted but the transition lands after
	// an injected regulator latency; further requests on the cluster return
	// StepBusy until it does.
	StepDeferred
	// StepAtLimit: the cluster already sits at the requested end of the
	// ladder (the hw.Cluster.StepUp/StepDown false case).
	StepAtLimit
	// StepBusy: a deferred transition is still in flight.
	StepBusy
	// StepRefused: the injected regulator refused the transition.
	StepRefused
)

// pendingStep is one in-flight deferred V-F transition (injected regulator
// latency): the platform applies target when the virtual clock reaches due.
type pendingStep struct {
	active bool
	target int
	due    sim.Time
}

// taskState is the platform-side bookkeeping for one task.
type taskState struct {
	task   *task.Task
	entity *sched.Entity
	core   int
	frozen bool // mid-migration: not runnable
	gone   bool // removed from the platform; cancels in-flight migration completion
	total  float64
	lastPU float64 // PUs consumed over the last tick (work/dt)
}

// Platform is the simulated machine.
type Platform struct {
	Engine *sim.Engine
	Chip   *hw.Chip

	queues []*sched.Queue
	tasks  []*task.Task
	live   []*taskState // parallel to tasks: live states in creation order

	// byCore indexes the live task states per core (ascending task ID, the
	// creation order the old full-scan TasksOnCore reported); byID maps a
	// task ID (equal to its scheduler entity's ID) to the task's state, nil
	// once removed.
	byCore [][]*taskState
	byID   []*taskState

	gov      Governor
	checkers []Checker

	// Fault injection (nil when detached; every hook site nil-checks).
	faults       FaultInjector
	dvfsPend     []pendingStep // per-cluster in-flight deferred transitions
	dvfsRefusedC *telemetry.Counter

	// Telemetry (nil when detached; every emission site nil-checks, so a
	// detached run keeps the zero-allocation steady-state tick).
	tel           *telemetry.Emitter
	telNextState  sim.Time
	telStateEvery sim.Time
	ticksC        *telemetry.Counter
	migUsC        *telemetry.Counter
	migMsC        *telemetry.Counter

	meter         hw.EnergyMeter
	clusterMeters []hw.EnergyMeter
	clusterPower  []float64 // per cluster, sampled once per tick
	lastPower     float64
	lastUtil      []float64

	thermals []*hw.ThermalModel

	migrations      int
	crossMigrations int
	nextEntityID    int
}

// New builds a platform around the given chip with the given tick size.
func New(chip *hw.Chip, step sim.Time) *Platform {
	p := &Platform{
		Engine:        sim.NewEngine(step),
		Chip:          chip,
		byCore:        make([][]*taskState, len(chip.Cores)),
		clusterMeters: make([]hw.EnergyMeter, len(chip.Clusters)),
		clusterPower:  make([]float64, len(chip.Clusters)),
		lastUtil:      make([]float64, len(chip.Cores)),
	}
	for range chip.Cores {
		p.queues = append(p.queues, sched.NewQueue())
	}
	p.Engine.AddHook(sim.TickFunc(p.tick))
	return p
}

// NewTC2 is the common case: the TC2 platform at a 1 ms tick.
func NewTC2() *Platform { return New(hw.NewTC2(), sim.Millisecond) }

// SetGovernor attaches the governor. It must be called before running.
func (p *Platform) SetGovernor(g Governor) {
	p.gov = g
	g.Attach(p)
	if p.tel != nil {
		if ta, ok := g.(TelemetryAware); ok {
			ta.AttachTelemetry(p.tel)
		}
	}
}

// AttachTelemetry plugs a structured-telemetry emitter into the platform:
// migrations (with the paper's µs/ms cost class) become events, tick and
// migration counters feed the emitter's registry, and the per-cluster
// frequency/power snapshot behind the /state endpoint is published every
// 100 virtual ms. The emitter is propagated to a TelemetryAware governor
// (attached before or after this call) so the market layer emits through
// the same stream. Same contract as AttachChecker: with no emitter
// attached the tick pays one nil check and stays allocation-free.
func (p *Platform) AttachTelemetry(em *telemetry.Emitter) {
	if em == nil {
		return
	}
	p.tel = em
	p.telStateEvery = 100 * sim.Millisecond
	p.telNextState = 0
	em.SetClock(p.Engine.Now)
	if reg := em.Registry(); reg != nil {
		p.ticksC = reg.Counter("pricepower_ticks_total", "Platform ticks executed.")
		p.migUsC = reg.Counter(`pricepower_migrations_total{class="us"}`,
			"Task migrations by paper cost class (us: intra-cluster, ms: cross-cluster).")
		p.migMsC = reg.Counter(`pricepower_migrations_total{class="ms"}`,
			"Task migrations by paper cost class (us: intra-cluster, ms: cross-cluster).")
	}
	if ta, ok := p.gov.(TelemetryAware); ok {
		ta.AttachTelemetry(em)
	}
}

// Telemetry returns the attached emitter (nil when detached; safe to use
// directly, every *Emitter method is nil-receiver safe).
func (p *Platform) Telemetry() *telemetry.Emitter { return p.tel }

// SetSchedGranularity switches every core's run queue to the discrete
// pick-next scheduling model with the given slice length (0 restores the
// fluid model). Discrete scheduling is bursty at the tick scale — the
// realistic regime governors must tolerate; see internal/sched.
func (p *Platform) SetSchedGranularity(g sim.Time) {
	for _, q := range p.queues {
		q.Granularity = g
	}
}

// AttachChecker registers an invariant checker (or replay recorder) to run
// at the end of every tick, after the governor. Checkers run in attachment
// order. Attaching the same checker twice is a no-op.
func (p *Platform) AttachChecker(c Checker) {
	if c == nil {
		return
	}
	for _, ex := range p.checkers {
		if ex == c {
			return
		}
	}
	p.checkers = append(p.checkers, c)
}

// AttachThermal registers a thermal model, built over the platform's chip,
// to advance once per platform tick on the tick's cluster power samples.
// The platform owns thermal time: observers (trace recorders, thermal
// governors) read temperatures but never advance the model themselves, so
// attaching several consumers cannot double-step the thermal state.
// Attaching the same model twice is a no-op.
func (p *Platform) AttachThermal(m *hw.ThermalModel) {
	if m == nil {
		return
	}
	for _, ex := range p.thermals {
		if ex == m {
			return
		}
	}
	p.thermals = append(p.thermals, m)
}

// AttachFaults plugs a fault injector into the platform: sensor readings
// (SensorPower, SensorClusterPower, SensorTemp), V-F transitions routed
// through StepVF, and migration costs are perturbed from then on, and the
// injector's BeginTick runs at the start of every platform tick (before
// scheduling, so hot-unplug edges take effect within the same tick).
// Attaching nil detaches. Same zero-cost contract as AttachChecker: with no
// injector the hook sites pay one nil check each and the steady-state tick
// stays allocation-free.
func (p *Platform) AttachFaults(fi FaultInjector) {
	p.faults = fi
	if fi != nil && p.dvfsPend == nil {
		p.dvfsPend = make([]pendingStep, len(p.Chip.Clusters))
	}
	if fi != nil && p.tel != nil && p.dvfsRefusedC == nil {
		if reg := p.tel.Registry(); reg != nil {
			p.dvfsRefusedC = reg.Counter("pricepower_dvfs_refused_total",
				"V-F transition requests refused by an injected regulator fault.")
		}
	}
}

// Faults returns the attached injector (nil when detached).
func (p *Platform) Faults() FaultInjector { return p.faults }

// CoreOnline reports whether a core is not transiently hot-unplugged.
func (p *Platform) CoreOnline(core int) bool { return !p.Chip.Cores[core].Offline }

// SensorPower reports the chip power as the governors' sensor sees it: the
// physical sample of the last tick, routed through the fault injector when
// one is attached. Measurement probes (internal/metrics) keep reading the
// physical Power — experiments measure the machine, governors trust sensors.
func (p *Platform) SensorPower() float64 {
	w := p.lastPower
	if p.faults != nil {
		w = p.faults.PowerReading(-1, w, p.Engine.Now())
	}
	return w
}

// SensorClusterPower reports one cluster's power as its sensor sees it
// (the reading PPM's market consumes for allowance distribution).
func (p *Platform) SensorClusterPower(cluster int) float64 {
	w := hw.ClusterPower(p.Chip.Clusters[cluster])
	if p.faults != nil {
		w = p.faults.PowerReading(cluster, w, p.Engine.Now())
	}
	return w
}

// SensorTemp reports one cluster's die temperature as its sensor sees it,
// from the first attached thermal model; ok is false without one.
func (p *Platform) SensorTemp(cluster int) (temp float64, ok bool) {
	if len(p.thermals) == 0 {
		return 0, false
	}
	t := p.thermals[0].Temp(cluster)
	if p.faults != nil {
		t = p.faults.TempReading(cluster, t, p.Engine.Now())
	}
	return t, true
}

// Thermals exposes the attached thermal models (read-only use).
func (p *Platform) Thermals() []*hw.ThermalModel { return p.thermals }

// StepVF requests a one-rung V-F transition on a cluster (dir > 0 steps up,
// otherwise down), routed through the fault injector when one is attached.
// It only touches the addressed cluster and its own pending-transition
// slot, keeping each cluster agent's actuation cluster-local.
func (p *Platform) StepVF(cluster, dir int) StepResult {
	cl := p.Chip.Clusters[cluster]
	if p.faults != nil {
		if p.dvfsPend[cluster].active {
			return StepBusy
		}
		refused, delay := p.faults.DVFSOutcome(cluster, p.Engine.Now())
		if refused {
			p.dvfsRefusedC.Add(1)
			return StepRefused
		}
		if delay > 0 {
			target := cl.Level() + 1
			if dir <= 0 {
				target = cl.Level() - 1
			}
			if target < 0 || target >= cl.NumLevels() {
				return StepAtLimit
			}
			p.dvfsPend[cluster] = pendingStep{active: true, target: target, due: p.Engine.Now() + delay}
			return StepDeferred
		}
	}
	ok := false
	if dir > 0 {
		ok = cl.StepUp()
	} else {
		ok = cl.StepDown()
	}
	if ok {
		return StepApplied
	}
	return StepAtLimit
}

// AddTask instantiates spec on the given core and returns the task. The
// scheduler weight starts at the fair default (nice 0).
func (p *Platform) AddTask(spec task.Spec, core int) *task.Task {
	if core < 0 || core >= len(p.queues) {
		panic(fmt.Sprintf("platform: AddTask on core %d of %d", core, len(p.queues)))
	}
	t := task.New(p.nextEntityID, spec)
	e := &sched.Entity{ID: p.nextEntityID, Weight: sched.NiceToWeight(0)}
	p.nextEntityID++
	st := &taskState{task: t, entity: e, core: core}
	p.tasks = append(p.tasks, t)
	p.live = append(p.live, st)
	p.byID = append(p.byID, st)
	p.byCore[core] = insertByID(p.byCore[core], st)
	p.queues[core].Add(e)
	return t
}

// RemoveTask detaches a task from the platform (task exit). Removing a task
// frozen mid-migration also cancels the pending migration-completion event:
// the dead entity must never be re-enqueued on the destination core, where
// it would silently absorb scheduler supply forever.
func (p *Platform) RemoveTask(t *task.Task) {
	st := p.state(t)
	if st == nil {
		return
	}
	if !st.frozen {
		p.queues[st.core].Remove(st.entity)
	}
	st.gone = true
	p.byCore[st.core] = removeState(p.byCore[st.core], st)
	p.byID[t.ID] = nil
	for i, x := range p.tasks {
		if x == t {
			p.tasks = append(p.tasks[:i], p.tasks[i+1:]...)
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
}

// insertByID inserts st into a per-core index slice, keeping ascending task
// ID (creation) order. Insertion cost is bounded by the tasks on one core.
func insertByID(list []*taskState, st *taskState) []*taskState {
	i := len(list)
	for i > 0 && list[i-1].task.ID > st.task.ID {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = st
	return list
}

// removeState deletes st from a per-core index slice, preserving order.
func removeState(list []*taskState, st *taskState) []*taskState {
	for i, x := range list {
		if x == st {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

// Tasks returns the live tasks in creation order (shared slice; do not
// mutate).
func (p *Platform) Tasks() []*task.Task { return p.tasks }

// NumTasks reports how many live tasks the platform hosts.
func (p *Platform) NumTasks() int { return len(p.tasks) }

// ClusterStats is one cluster's row in a platform stats snapshot.
type ClusterStats struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Level   int     `json:"level"`
	FreqMHz float64 `json:"freq_mhz"`
	On      bool    `json:"on"`
	PowerW  float64 `json:"power_w"`
	Tasks   int     `json:"tasks"`
}

// Stats is a self-contained snapshot of the platform's externally
// interesting state — what a fleet router (or any out-of-process observer)
// needs to judge a board without reaching into live simulation structures.
type Stats struct {
	Now        sim.Time       `json:"t"`
	PowerW     float64        `json:"power_w"`
	EnergyJ    float64        `json:"energy_j"`
	Tasks      int            `json:"tasks"`
	Migrations int            `json:"migrations"`
	CrossMigs  int            `json:"cross_migrations"`
	Clusters   []ClusterStats `json:"clusters"`
}

// Stats snapshots the platform. It must be called from the simulation's
// goroutine (between ticks); the returned value is then safe to hand to
// other goroutines — it shares no storage with the platform.
func (p *Platform) Stats() Stats {
	s := Stats{
		Now:        p.Engine.Now(),
		PowerW:     p.lastPower,
		EnergyJ:    p.meter.Joules(),
		Tasks:      len(p.tasks),
		Migrations: p.migrations,
		CrossMigs:  p.crossMigrations,
		Clusters:   make([]ClusterStats, len(p.Chip.Clusters)),
	}
	for i, cl := range p.Chip.Clusters {
		n := 0
		for _, c := range cl.Cores {
			n += len(p.byCore[c.ID])
		}
		s.Clusters[i] = ClusterStats{
			ID:      cl.ID,
			Name:    cl.Spec.Name,
			Level:   cl.Level(),
			FreqMHz: float64(cl.CurLevel().FreqMHz),
			On:      cl.On,
			PowerW:  hw.ClusterPower(cl),
			Tasks:   n,
		}
	}
	return s
}

// MaxSupplyPU reports the chip's aggregate supply ceiling: every cluster at
// its top V-F level, all cores online — the capacity bound fleet admission
// judges demand against.
func (p *Platform) MaxSupplyPU() float64 {
	var total float64
	for _, cl := range p.Chip.Clusters {
		top := cl.Spec.Levels[len(cl.Spec.Levels)-1]
		total += float64(top.FreqMHz) * float64(len(cl.Cores))
	}
	return total
}

// CoreOf reports which core a task is currently mapped to.
func (p *Platform) CoreOf(t *task.Task) int { return p.mustState(t).core }

// ClusterOf reports the cluster a task's core belongs to.
func (p *Platform) ClusterOf(t *task.Task) *hw.Cluster {
	return p.Chip.Cores[p.CoreOf(t)].Cluster
}

// SetWeight sets a task's scheduler share (the core agents' nice-value
// manipulation). Weights are relative within one core's queue.
func (p *Platform) SetWeight(t *task.Task, w float64) {
	if w <= 0 {
		w = 1
	}
	p.mustState(t).entity.Weight = w
}

// Weight reports a task's current scheduler share.
func (p *Platform) Weight(t *task.Task) float64 { return p.mustState(t).entity.Weight }

// ConsumedPU reports the supply the task consumed over the last tick, in
// PUs — the observation the paper's s_t is built from.
func (p *Platform) ConsumedPU(t *task.Task) float64 { return p.mustState(t).lastPU }

// TotalWork reports the cumulative work delivered to a task in PU·s.
func (p *Platform) TotalWork(t *task.Task) float64 { return p.mustState(t).total }

// Load reports the task's PELT load-average (runnable fraction).
func (p *Platform) Load(t *task.Task) float64 { return p.mustState(t).entity.Load.Value() }

// Migrating reports whether the task is frozen mid-migration.
func (p *Platform) Migrating(t *task.Task) bool { return p.mustState(t).frozen }

// Migrate moves a task to the destination core, charging the hardware
// migration penalty: the task is frozen (not runnable anywhere) for the
// modeled cost, then enqueued on the destination. Re-entrant calls while
// frozen and no-op moves are ignored; it reports whether a migration
// started.
func (p *Platform) Migrate(t *task.Task, dstCore int) bool {
	st := p.mustState(t)
	if st.frozen || dstCore == st.core || dstCore < 0 || dstCore >= len(p.queues) {
		return false
	}
	src := p.Chip.Cores[st.core]
	dst := p.Chip.Cores[dstCore]
	cost := hw.MigrationCost(src, dst)
	if p.faults != nil {
		cost = p.faults.MigrationCost(cost, p.Engine.Now())
	}
	p.queues[st.core].Remove(st.entity)
	// The task belongs to the destination from the moment affinity is set —
	// concurrent placement decisions must see it there, or several tasks
	// would pile onto the same "empty" core while migrations are in flight.
	p.byCore[st.core] = removeState(p.byCore[st.core], st)
	st.core = dstCore
	p.byCore[dstCore] = insertByID(p.byCore[dstCore], st)
	st.frozen = true
	p.migrations++
	if src.Cluster != dst.Cluster {
		p.crossMigrations++
	}
	if p.tel != nil {
		class, ctr := "us", p.migUsC
		if cost >= sim.Millisecond {
			class, ctr = "ms", p.migMsC
		}
		ctr.Add(1)
		if p.tel.Enabled(telemetry.KindMigration) {
			ev := telemetry.E(telemetry.KindMigration)
			ev.Task = t.ID
			ev.Name = t.Name
			ev.Cluster = dst.Cluster.ID
			ev.Core = dstCore
			ev.Prev = float64(src.ID)
			ev.Value = cost.Seconds()
			ev.Class = class
			p.tel.Emit(ev)
		}
	}
	p.Engine.After(cost, func(now sim.Time) {
		if st.gone {
			return // task removed mid-migration; do not resurrect its entity
		}
		st.frozen = false
		st.entity.Load.Reset()
		p.queues[dstCore].Add(st.entity)
	})
	return true
}

// Migrations reports (total, cross-cluster) migration counts.
func (p *Platform) Migrations() (total, cross int) { return p.migrations, p.crossMigrations }

// TasksOnCore returns the live tasks currently mapped (or migrating) to the
// given core, in creation order.
func (p *Platform) TasksOnCore(core int) []*task.Task {
	states := p.byCore[core]
	if len(states) == 0 {
		return nil
	}
	out := make([]*task.Task, len(states))
	for i, st := range states {
		out[i] = st.task
	}
	return out
}

// NumTasksOnCore reports how many live tasks are mapped (or migrating) to
// the given core, without materializing the task list.
func (p *Platform) NumTasksOnCore(core int) int { return len(p.byCore[core]) }

// Queue exposes one core's run queue for read-only inspection (invariant
// checkers cross-check queue membership against the task index).
func (p *Platform) Queue(core int) *sched.Queue { return p.queues[core] }

// EntityOf exposes a task's scheduler entity for read-only inspection.
func (p *Platform) EntityOf(t *task.Task) *sched.Entity { return p.mustState(t).entity }

// Power reports the chip power sampled at the end of the last tick (W).
func (p *Platform) Power() float64 { return p.lastPower }

// ClusterPower reports one cluster's power sampled at the end of the last
// tick.
func (p *Platform) ClusterPower(cluster int) float64 {
	return hw.ClusterPower(p.Chip.Clusters[cluster])
}

// Utilization reports a core's utilization over the last tick.
func (p *Platform) Utilization(core int) float64 { return p.lastUtil[core] }

// Meter exposes the chip energy meter.
func (p *Platform) Meter() *hw.EnergyMeter { return &p.meter }

// ClusterMeter exposes one cluster's energy meter.
func (p *Platform) ClusterMeter(cluster int) *hw.EnergyMeter {
	return &p.clusterMeters[cluster]
}

// Run advances the simulation by d.
func (p *Platform) Run(d sim.Time) { p.Engine.RunFor(d) }

// Now reports the current virtual time.
func (p *Platform) Now() sim.Time { return p.Engine.Now() }

// state finds a live task's state by its ID; nil if t is not a live task of
// this platform.
func (p *Platform) state(t *task.Task) *taskState {
	if t.ID < 0 || t.ID >= len(p.byID) {
		return nil
	}
	if st := p.byID[t.ID]; st != nil && st.task == t {
		return st
	}
	return nil
}

func (p *Platform) mustState(t *task.Task) *taskState {
	st := p.state(t)
	if st == nil {
		panic(fmt.Sprintf("platform: unknown task %q", t.Name))
	}
	return st
}

// tick is the per-tick platform work (registered as the first engine hook).
func (p *Platform) tick(now sim.Time) {
	dt := p.Engine.Step()
	seconds := dt.Seconds()

	// 0. Fault injection: window transitions first (hot-unplug/replug take
	// effect before this tick's scheduling), then any deferred V-F
	// transition whose injected regulator latency has elapsed.
	if p.faults != nil {
		p.faults.BeginTick(p, now)
		for i := range p.dvfsPend {
			if pd := &p.dvfsPend[i]; pd.active && now >= pd.due {
				pd.active = false
				if cl := p.Chip.Clusters[i]; cl.On {
					cl.SetLevel(pd.target)
				}
			}
		}
	}

	// 1. Scheduling: deliver work per core. Delivered work lands in each
	// scheduler entity (a frozen task's dequeued entity reads zero) — no
	// per-tick list, no per-core scan of the global task list.
	for coreID, q := range p.queues {
		core := p.Chip.Cores[coreID]
		ct := core.Type()
		for _, st := range p.byCore[coreID] {
			if st.frozen {
				continue
			}
			st.entity.WantPU = st.task.WantPU(ct)
		}
		util := q.Step(core.SupplyPU(), dt)
		core.Utilization = util
		p.lastUtil[coreID] = util
	}

	// 2. Task progression (all tasks advance, including idle/frozen ones).
	for _, st := range p.live {
		work := st.entity.Work()
		ct := p.Chip.Cores[st.core].Type()
		st.task.Advance(work, ct, dt, now)
		st.total += work
		st.lastPU = work / seconds
	}

	// 3. Power accounting: one power sample per cluster.
	p.lastPower = hw.ChipPower(p.Chip, p.clusterPower)
	p.meter.Accumulate(p.lastPower, dt)
	for i, w := range p.clusterPower {
		p.clusterMeters[i].Accumulate(w, dt)
	}

	// 3b. Thermal models advance under the platform's clock on the same
	// samples (observers only read them; see AttachThermal).
	for _, th := range p.thermals {
		th.Update(p.clusterPower, dt)
	}

	// 4. Governor.
	if p.gov != nil {
		p.gov.Tick(now)
	}

	// 5. Invariant checkers observe the complete post-governor state.
	for _, c := range p.checkers {
		c.CheckTick(p, now)
	}

	// 6. Telemetry: count the tick and, on the snapshot grid, publish the
	// hardware half of the live /state view (the market publishes its half
	// at the end of each round). The publish reuses the emitter's state
	// storage, so the attached steady-state tick stays allocation-free too.
	if p.tel != nil {
		p.ticksC.Add(1)
		if now >= p.telNextState {
			for p.telNextState <= now {
				p.telNextState += p.telStateEvery
			}
			p.tel.PublishState(p.fillState)
		}
	}
}

// fillState writes the hardware half of the telemetry state snapshot
// (called under the emitter's state lock).
func (p *Platform) fillState(s *telemetry.State) {
	now := p.Engine.Now()
	s.Time = now
	s.ChipPowerW = p.lastPower
	for i, cl := range p.Chip.Clusters {
		cs := s.Cluster(i)
		cs.Name = cl.Spec.Name
		cs.Level = cl.Level()
		cs.FreqMHz = float64(cl.CurLevel().FreqMHz)
		cs.On = cl.On
		cs.PowerW = hw.ClusterPower(cl)
		n := 0
		for _, c := range cl.Cores {
			n += len(p.byCore[c.ID])
		}
		cs.Tasks = n
	}
}

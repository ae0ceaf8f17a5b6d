// Package fleet shards the price-theory power market across many boards:
// N independent platform.Platform instances — each with its own PPM
// governor, telemetry registry and optional checker/recorder/fault
// injector — advanced in batches of virtual time behind a price-routing
// dispatcher. Task submissions are admitted and routed using each board's
// market-clearing price, degraded/throttle state and headroom; when every
// board is saturated the admission controller queues, and sheds only when
// the queue overflows.
//
// Stepping is pipelined with bounded skew: with Config.MaxSkew = K, Step
// issues barrier n+1 to every board and only blocks collecting barriers
// older than n+1-K, so boards may run up to K barriers ahead of the
// slowest board instead of stalling the whole fleet in lockstep (K = 0).
//
// Determinism: routing decisions happen only at batch barriers, against
// the versioned snapshots of the newest *collected* barrier (a fixed
// K-barrier lag, not a timing-dependent one), and each board's timeline
// is advanced by a goroutine that owns it exclusively — so a fixed fleet
// seed plus a recorded arrival trace replays bit-identically (per-board
// check.Replay digests match across runs, with each board's barrier
// counter folded into its digest chain) even though boards execute
// concurrently and skewed.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/metrics"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// Defaults for Config fields left zero.
const (
	DefaultBatch      = 100 * sim.Millisecond
	DefaultHysteresis = 0.10
	DefaultQueueCap   = 1024
)

// drainSeedStream namespaces the per-board drain-cooldown jitter streams
// off the fleet seed.
const drainSeedStream = 0xd7a1_0000

// routeSeedStream namespaces the sharded dispatcher's submission→shard
// hash seed off the fleet seed.
const routeSeedStream = 0x5a4d_0000

// traceSeedStream namespaces the causal-trace ID stream off the fleet
// seed: submission i gets trace.DeriveID(DeriveSeed(Seed, traceSeedStream), i).
const traceSeedStream = 0x7ace_0000

// restartSeedStream namespaces the supervisor's restart machinery off
// the fleet seed: per-board restart-backoff jitter, and the derived
// epoch seeds a resurrected board boots under (epoch e, board i runs on
// DeriveSeed(DeriveSeed(Seed, restartSeedStream+e), i), so no epoch
// ever replays another's randomness).
const restartSeedStream = 0x4e57_0000

// DefaultStallBarriers is the stall detector's quarantine threshold
// when Config.StallBarriers is zero.
const DefaultStallBarriers = 2

// Config assembles a fleet.
type Config struct {
	// Boards is the number of independent platform instances (≥ 1).
	Boards int
	// Seed is the fleet seed; each board derives its own stream from it
	// via sim.DeriveSeed(Seed, boardID).
	Seed uint64
	// TDP is the per-board power budget in W (0 = unconstrained).
	TDP float64
	// Batch is the virtual time each board advances between barriers
	// (default DefaultBatch). Routing happens only at barriers.
	Batch sim.Time
	// Hysteresis is the dispatcher's sticky-choice band (default
	// DefaultHysteresis): a challenger board must undercut the previous
	// choice by this fraction before submissions switch boards.
	Hysteresis float64
	// QueueCap bounds the admission queue (default DefaultQueueCap);
	// submissions beyond it are shed.
	QueueCap int
	// Shards partitions the dispatcher into this many price-index shards
	// over disjoint board ranges (default 1): each shard routes its own
	// hash-assigned share of every barrier's submissions against its own
	// index, with work stealing to the globally cheapest board when a
	// shard saturates or prices out (see ShardedDispatcher). Shards clamp
	// to the board count. Routing stays deterministic at any setting.
	Shards int
	// MaxSkew lets boards run up to this many barriers ahead of the
	// slowest board (0 = lockstep). Step issues each barrier without
	// waiting and only blocks collecting barriers more than MaxSkew
	// behind, so one transiently slow board no longer stalls issuance;
	// routing reads the newest collected (versioned) snapshots, a fixed
	// lag that keeps decisions deterministic.
	MaxSkew int
	// DrainDegradedAfter auto-drains a board after this many consecutive
	// degraded barriers, resubmitting its tasks through the dispatcher;
	// the board resumes after a cooldown of healthy barriers that starts
	// at the same number and backs off exponentially on every re-drain
	// (seeded jitter via fault.Backoff), so a board with a still-broken
	// sensor cannot thrash drain→resume→re-trip→drain every few barriers.
	// 0 disables auto-drain.
	DrainDegradedAfter int
	// StallBarriers is the deterministic stall detector's threshold
	// (default DefaultStallBarriers): a board that withholds its real
	// step reply for this many consecutive barriers — counted in
	// virtual barriers, never wall clock — is quarantined (excluded
	// from routing) until its first caught-up reply. Deferred
	// assignments stay in the in-flight ledger the whole time, so the
	// zero-loss invariant holds through the stall.
	StallBarriers int
	// RestartAfter enables the crash supervisor: a crashed board is
	// resurrected under the same ID after at least this many barriers,
	// growing exponentially per repeat crash with seeded jitter
	// (fault.Backoff over the restartSeedStream). The restarted board
	// boots a fresh platform under a derived restart-epoch seed and the
	// crashed board's checkpointed tasks re-enter the dispatcher. 0
	// disables restarts: a crash permanently quarantines the board and
	// its orphans requeue immediately.
	RestartAfter int
	// MaxRestarts caps supervised restarts per board; a crash beyond
	// the cap permanently quarantines the board (0 = unlimited).
	MaxRestarts int
	// Liveness is an optional wall-clock deadline per collected barrier
	// (0 = off, the default — determinism-preserving): if any board
	// produces no step reply within it, collection fails fast with a
	// LivenessError naming the unreplied boards instead of deadlocking
	// on a real hang. Injected stalls reply instantly with a sentinel
	// and never trip it.
	Liveness time.Duration
	// Faults maps board ID → fault scenario injected into that board.
	// The scenario's seed is overridden with the board's derived seed.
	// Board-level classes (fault.BoardCrash, fault.BoardStall) schedule
	// whole-board failures in batch barriers; platform classes perturb
	// sensors and actuators as on a single platform.
	Faults map[int]fault.Scenario
	// Record attaches a replay recorder to every board (check.Trace per
	// board, exposed via Traces). Each board folds its per-barrier
	// counter and assignment count into the digest chain, so bounded-skew
	// runs replay bit-identically or fail loudly.
	Record bool
	// Check attaches the runtime invariant checker to every board; the
	// first violation fails the batch in Step's error.
	Check bool
	// Trace attaches deterministic causal tracing: every submission gets
	// a trace ID derived from (Seed, admission position), spans open and
	// close in virtual time at each stage (admission queue, routing,
	// barrier wait, board residency, market rounds), lifecycle events fold
	// into per-board timelines, and latency histograms record per stage.
	// For trace-driven runs the resulting digests replay bit-identically
	// (TestFleetTraceReplaysBitIdentically); concurrent HTTP submission is
	// inherently nondeterministic input, so only safety — not digest
	// equality — is guaranteed there. Off = the zero-cost detached state.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.Boards <= 0 {
		c.Boards = 1
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.MaxSkew < 0 {
		c.MaxSkew = 0
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.StallBarriers <= 0 {
		c.StallBarriers = DefaultStallBarriers
	}
	return c
}

// Counters are the fleet's task-accounting totals. The zero-loss
// invariant — enforced by tests, check.CheckFleetConservation and the
// fleet-smoke gate — is:
//
//	Submitted - Shed - Evicted ==
//	    live tasks on boards + Queued + InFlight + Orphaned + Completed
//
// where InFlight covers tasks assigned at barriers still uncollected
// under bounded skew (including batches a stalled board is deferring),
// Orphaned covers tasks a crashed board's supervisor is holding until
// restart re-places them, and Completed is the boards' count of tasks
// that finished and were retired — the paper's task exit (§2) — read
// from the collected snapshots, not kept here. (Drained/Resubmitted
// track evacuations, which conserve tasks; evacuated tasks that overflow
// the queue are counted once in Shed, never silently dropped.)
type Counters struct {
	Submitted   uint64 `json:"submitted"`
	Routed      uint64 `json:"routed"`
	Queued      uint64 `json:"queued_total"` // submissions that waited at least one barrier
	Shed        uint64 `json:"shed"`
	Drained     uint64 `json:"drained"`
	Resubmitted uint64 `json:"resubmitted"`
	// Redrained counts auto-drains of a board beyond its first since the
	// cooldown last reset — the drain/resume flapping signal.
	Redrained uint64 `json:"redrained"`
	// Crashes counts board-crash detections; Stalls counts stall
	// quarantines (a board that missed StallBarriers barriers);
	// Restarts counts supervised resurrections. Orphaned is the
	// cumulative count of tasks orphaned by crashes; Replaced counts
	// orphans re-placed through the dispatcher (at restart or, for a
	// permanently quarantined board, immediately).
	Crashes  uint64 `json:"crashes"`
	Stalls   uint64 `json:"stalls"`
	Restarts uint64 `json:"restarts"`
	Orphaned uint64 `json:"orphaned_total"`
	Replaced uint64 `json:"replaced"`
	// Evicted counts queued submissions handed off to an external owner
	// via EvictQueued (the federation's migration path). Evicted work
	// leaves this fleet's ledger — it is the caller's to conserve.
	Evicted uint64 `json:"evicted_total"`
}

// State is the fleet-wide snapshot served at /state.
type State struct {
	Batch    int        `json:"batch"`  // barriers collected
	Issued   int        `json:"issued"` // barriers issued (≥ Batch under skew)
	Time     sim.Time   `json:"t"`
	Boards   []Snapshot `json:"boards"`
	QueueLen int        `json:"queue_len"`
	// InFlight counts tasks assigned to boards at barriers not yet
	// collected (always 0 in lockstep or after Flush), plus batches a
	// stalled board is deferring.
	InFlight int `json:"in_flight"`
	// Orphaned counts tasks held by the crash supervisor: work
	// recovered from crashed boards (checkpoint residents, stalled
	// deferrals, never-run barrier assignments) awaiting re-placement
	// at restart.
	Orphaned int `json:"orphaned"`
	// Completed sums the boards' completed-task counts (the snapshots'
	// Completed): tasks that finished and left the fleet.
	Completed int      `json:"completed"`
	Counters  Counters `json:"counters"`
	// Shards is the dispatcher's effective shard count (configured value
	// clamped to the board count).
	Shards int `json:"shards"`
}

// Live sums the tasks currently placed on boards per the collected
// snapshots.
func (s *State) Live() int {
	n := 0
	for i := range s.Boards {
		n += s.Boards[i].Tasks
	}
	return n
}

// sumCompleted sums the boards' completed-task counts.
func sumCompleted(snaps []Snapshot) int {
	n := 0
	for i := range snaps {
		n += snaps[i].Completed
	}
	return n
}

// projCarry is one board's not-yet-collected projected load: demand
// assigned at in-flight barriers that the routing snapshot (one or more
// barriers stale under skew) cannot see yet. Routing re-applies it so a
// queued backlog retried over consecutive barriers projects against the
// board like first-time submissions do, instead of dog-piling a board
// whose stale snapshot still looks empty.
type projCarry struct {
	tasks    int
	demandPU float64
}

// inflightBarrier is one issued-but-uncollected barrier: the per-board
// assignment stats to unwind from the carry once its snapshots arrive,
// and the barrier's submissions with each board's pick list — retained
// so a crash or stall collected at this barrier can recover exactly the
// work that was assigned (PerBoard's inner slices are freshly allocated
// per Route call, so holding them is safe). Its replies arrive on each
// board's replies channel, stamped with batch. The per-board add and
// mine slices are recycled once the barrier is collected.
type inflightBarrier struct {
	batch int
	add   []projCarry
	total int          // tasks assigned at this barrier
	subs  []Submission // the barrier's submission batch (shared, read-only)
	mine  [][]int32    // per-board pick indexes into subs
}

// drainOp is a deferred drain/resume/restart/replace decision, executed
// only once the pipeline is flushed so the board is quiescent and —
// crucially for restarts under bounded skew — every barrier issued
// before the decision has already been collected, so all of a crashed
// board's skewed-barrier orphans are appended before its work re-enters
// the dispatcher.
type drainOp struct {
	board   int
	resume  bool
	redrain bool
	// restart resurrects a crashed board under the same ID with a
	// derived restart-epoch seed and requeues its orphans; replace only
	// requeues the orphans (permanent quarantine: restarts disabled or
	// MaxRestarts exhausted).
	restart bool
	replace bool
}

// Fleet is the coordinator: it owns the admission queue, the dispatcher
// and the batch barrier pipeline. Submit may be called concurrently with
// Step (the HTTP frontend does); board state is only touched from Step /
// Drain / Resume / Flush, which the driver serializes.
type Fleet struct {
	cfg  Config
	disp *ShardedDispatcher

	boards []*Board

	// Pipeline state, touched only by the (serialized) stepping calls.
	inflight []inflightBarrier
	ops      []drainOp
	// Per-barrier scratch, reused so that a steady barrier allocates
	// nothing in the coordinator: the projected snapshots Route reads,
	// the collected replies and fresh snapshots, and the add/mine slices
	// of collected barriers (spare).
	routeSnaps []Snapshot
	replies    []stepReply
	got        []bool
	fresh      []Snapshot
	spare      []inflightBarrier

	degraded []int // consecutive degraded barriers per board
	healthy  []int // consecutive healthy barriers per autodrained board
	auto     []bool
	// Drain-cooldown state (see Config.DrainDegradedAfter).
	drainCount  []int // drains since the cooldown last reset
	resumeAfter []int // healthy barriers required before resume
	sinceResume []int // barriers survived since the last resume

	// Crash-supervisor state (stepping-goroutine owned, like the drain
	// streaks above). crashed marks boards whose terminal reply has been
	// collected this epoch; crashEpochs is each board's current restart
	// epoch; restartBarrier is the barrier at which a pending restart
	// becomes due (-1 = none); restarts counts supervised resurrections
	// per board (the backoff attempt counter); quarantined marks boards
	// permanently retired (restarts disabled or MaxRestarts exhausted);
	// crashedAt records the detection barrier for the restart-latency
	// histogram; orphans holds each crashed board's recovered work until
	// its restart/replace op re-places it.
	crashed        []bool
	crashEpochs    []int
	restartBarrier []int
	restarts       []int
	quarantined    []bool
	crashedAt      []int
	orphans        [][]Submission

	// Stall-detector state (stepping-goroutine owned). stallMiss counts
	// consecutive withheld replies per board; stallQ marks boards past
	// Config.StallBarriers (quarantined from routing until catch-up);
	// stallPending holds the submissions of every deferred batch (the
	// recovery set if the stalled board crashes); stallCarry is the
	// matching projection carry kept pinned in the in-flight ledger for
	// the stall's duration.
	stallMiss    []int
	stallQ       []bool
	stallPending [][]Submission
	stallCarry   []projCarry

	mu            sync.Mutex
	snaps         []Snapshot   // newest collected barrier's snapshots
	carry         []projCarry  // in-flight projected load per board
	batch         int          // barriers collected
	issued        int          // barriers issued
	now           sim.Time     // fleet virtual time (issued * cfg.Batch)
	inflightTasks int          // tasks assigned at uncollected barriers (incl. stalled deferrals)
	orphanedCount int          // tasks held by the crash supervisor
	pending       []Submission // FIFO admission queue (demand pre-estimated)
	sched         []timedSpec  // trace-scheduled future arrivals, sorted by at
	counters      Counters
	closed        bool

	reg *telemetry.Registry
	em  *telemetry.Emitter // optional event stream (KindDrain), nil-safe

	// Causal tracing (nil unless Config.Trace). The fleet buffer's folds
	// all happen on the stepping goroutine, so trace digests are
	// deterministic for trace-driven runs.
	tracer    *trace.Tracer
	traceSeed uint64
	// Stage latency histograms (nil when detached; Record is nil-safe).
	histRouting    *metrics.Histogram // wall ns per Route call
	histQueueWait  *metrics.Histogram // virtual ms enqueue → routed (exemplars)
	histBarrierLag *metrics.Histogram // barriers of skew at collect
	histRestart    *metrics.Histogram // barriers crash-detection → restart
	// evSink, when set, receives each collected barrier's board lifecycle
	// events in (round, board, kind) order (see SetEventSink).
	evSink telemetry.Sink
}

type timedSpec struct {
	at  sim.Time
	seq int // tie-break: submission order
	sub Submission
}

// New builds the fleet and boots its boards (each on its own goroutine,
// idle until the first Step).
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:         cfg,
		disp:        NewShardedDispatcher(cfg.Shards, cfg.Hysteresis, sim.DeriveSeed(cfg.Seed, routeSeedStream)),
		snaps:       make([]Snapshot, cfg.Boards),
		carry:       make([]projCarry, cfg.Boards),
		degraded:    make([]int, cfg.Boards),
		healthy:     make([]int, cfg.Boards),
		auto:        make([]bool, cfg.Boards),
		drainCount:  make([]int, cfg.Boards),
		resumeAfter: make([]int, cfg.Boards),
		sinceResume: make([]int, cfg.Boards),

		crashed:        make([]bool, cfg.Boards),
		crashEpochs:    make([]int, cfg.Boards),
		restartBarrier: make([]int, cfg.Boards),
		restarts:       make([]int, cfg.Boards),
		quarantined:    make([]bool, cfg.Boards),
		crashedAt:      make([]int, cfg.Boards),
		orphans:        make([][]Submission, cfg.Boards),
		stallMiss:      make([]int, cfg.Boards),
		stallQ:         make([]bool, cfg.Boards),
		stallPending:   make([][]Submission, cfg.Boards),
		stallCarry:     make([]projCarry, cfg.Boards),

		reg: telemetry.NewRegistry(),
	}
	for i := range f.restartBarrier {
		f.restartBarrier[i] = -1
	}
	if cfg.Trace {
		f.tracer = trace.NewTracer(cfg.Boards)
		f.traceSeed = sim.DeriveSeed(cfg.Seed, traceSeedStream)
		f.histRouting = metrics.NewLog(100, 2, 24)   // 100ns .. ~800ms wall
		f.histQueueWait = metrics.NewLog(1, 2, 20)   // 1ms .. ~9min virtual
		f.histBarrierLag = metrics.NewLog(0.5, 2, 8) // 0 lag lands ≤0.5
		f.histRestart = metrics.NewLog(0.5, 2, 10)   // barriers crash → restart
	}
	for i := 0; i < cfg.Boards; i++ {
		b, err := newBoard(i, cfg, f.tracer.Board(i), 0, 0)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.boards = append(f.boards, b)
		f.snaps[i] = Snapshot{Board: i, MaxSupplyPU: b.p.MaxSupplyPU()}
	}
	f.registerMetrics()
	return f, nil
}

func (f *Fleet) registerMetrics() {
	f.reg.GaugeFunc("pricepower_fleet_boards", "Boards in the fleet.",
		func() float64 { return float64(len(f.boards)) })
	f.reg.GaugeFunc("pricepower_fleet_queue_len", "Admission queue length.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(len(f.pending)) })
	f.reg.GaugeFunc("pricepower_fleet_batches", "Batch barriers collected.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.batch) })
	f.reg.GaugeFunc("pricepower_fleet_inflight_tasks", "Tasks assigned at uncollected barriers (bounded skew).",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.inflightTasks) })
	counter := func(name, help string, v *uint64) {
		f.reg.GaugeFunc(name, help, func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(*v)
		})
	}
	counter("pricepower_fleet_submitted_total", "Task submissions accepted.", &f.counters.Submitted)
	counter("pricepower_fleet_routed_total", "Tasks routed to a board.", &f.counters.Routed)
	counter("pricepower_fleet_queued_total", "Submissions that waited in the admission queue.", &f.counters.Queued)
	counter("pricepower_fleet_shed_total", "Submissions shed on queue overflow.", &f.counters.Shed)
	counter("pricepower_fleet_drained_total", "Tasks evacuated from draining boards.", &f.counters.Drained)
	counter("pricepower_fleet_resubmitted_total", "Evacuated tasks re-routed through the dispatcher.", &f.counters.Resubmitted)
	counter("pricepower_fleet_redrains_total", "Auto-drains of a board beyond its first (flapping).", &f.counters.Redrained)
	counter("pricepower_fleet_crashes_total", "Board-crash detections.", &f.counters.Crashes)
	counter("pricepower_fleet_stalls_total", "Stall quarantines (boards past StallBarriers misses).", &f.counters.Stalls)
	counter("pricepower_fleet_restarts_total", "Supervised board resurrections.", &f.counters.Restarts)
	counter("pricepower_fleet_orphaned_total", "Tasks orphaned by board crashes (cumulative).", &f.counters.Orphaned)
	counter("pricepower_fleet_replaced_total", "Orphaned tasks re-placed through the dispatcher.", &f.counters.Replaced)
	counter("pricepower_fleet_evicted_total", "Queued submissions evicted to an external owner (migration).", &f.counters.Evicted)
	f.reg.GaugeFunc("pricepower_fleet_orphaned_tasks", "Tasks held by the crash supervisor awaiting re-placement.",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.orphanedCount) })
	f.reg.GaugeFunc("pricepower_fleet_completed_tasks", "Tasks that finished and were retired from their boards (per the collected snapshots).",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(sumCompleted(f.snaps)) })
}

// Registry is the fleet-level metrics registry (queue depth, routing
// counters); board registries merge in via MergedMetrics.
func (f *Fleet) Registry() *telemetry.Registry { return f.reg }

// AttachTelemetry connects an event emitter to the fleet's own lifecycle
// events (KindDrain: drain / redrain / resume per board). The emitter's
// clock is bound to the fleet's virtual time.
func (f *Fleet) AttachTelemetry(em *telemetry.Emitter) {
	f.em = em
	em.SetClock(f.Now)
}

// Tracer exposes the causal tracer (nil unless Config.Trace): per-trace
// timelines, span-conservation counts, and the replay digest vector.
func (f *Fleet) Tracer() *trace.Tracer { return f.tracer }

// SetEventSink installs the ordered fleet event stream: each collected
// barrier's board lifecycle events (requires Config.Trace, which enables
// board-side capture) are stamped with their board ID and emitted sorted
// by (round, board, kind). Call before stepping; the sink is read from the
// stepping goroutine without synchronization.
func (f *Fleet) SetEventSink(s telemetry.Sink) { f.evSink = s }

// NumBoards reports the fleet size.
func (f *Fleet) NumBoards() int { return len(f.boards) }

// Now reports the fleet's virtual time (batches issued × batch size).
func (f *Fleet) Now() sim.Time { f.mu.Lock(); defer f.mu.Unlock(); return f.now }

// Submit enqueues specs for routing at the next batch barrier. It never
// routes immediately — arrival order within a barrier is the submission
// order, which keeps trace-driven runs reproducible. Returns the number
// accepted (the rest were shed against the queue cap). Demand estimation
// happens here, once per submission lifetime — not per routing attempt —
// so barrier retries route on the cached estimate.
func (f *Fleet) Submit(specs ...task.Spec) int {
	subs := make([]Submission, len(specs))
	for i, s := range specs {
		subs[i] = NewSubmission(s)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submitLocked(subs)
}

func (f *Fleet) submitLocked(subs []Submission) int {
	accepted := 0
	for _, s := range subs {
		if f.submitOneLocked(s) {
			accepted++
		}
	}
	return accepted
}

// submitOneLocked admits one submission to the queue tail, or sheds it
// against the queue cap; it reports whether the submission was accepted.
func (f *Fleet) submitOneLocked(s Submission) bool {
	pos := f.counters.Submitted
	f.counters.Submitted++
	if len(f.pending) >= f.cfg.QueueCap {
		f.counters.Shed++
		if f.tracer != nil {
			// The shed still gets its deterministic ID and a
			// zero-length attributed queue span, so conservation and
			// the replay digest see every admission outcome.
			f.tracer.Fleet().AddAttributed(trace.Span{
				Trace: trace.DeriveID(f.traceSeed, pos),
				Stage: trace.StageQueue, Board: -1, Class: "shed",
				Start: f.now, End: f.now,
			})
		}
		return false
	}
	if f.tracer != nil {
		s.Trace = trace.DeriveID(f.traceSeed, pos)
		s.EnqueuedAt = f.now
		f.tracer.Fleet().Open(trace.Span{
			Trace: s.Trace, Stage: trace.StageQueue, Board: -1, Start: f.now,
		})
	}
	f.pending = append(f.pending, s)
	return true
}

// requeueLocked puts evacuated / unrouted specs back at the queue head —
// before anything submitted during the batch, preserving FIFO admission
// (drained tasks were already running, so they go first) — and trims the
// overflow from the tail with Shed accounting. Every path that re-enters
// work (barrier retry, auto-drain, manual Drain) funnels through here so
// an evacuation overlapping a full queue sheds exactly once instead of
// silently exceeding the cap.
func (f *Fleet) requeueLocked(requeue []Submission) {
	if len(requeue) == 0 {
		return
	}
	f.pending = append(requeue, f.pending...)
	if over := len(f.pending) - f.cfg.QueueCap; over > 0 {
		f.counters.Shed += uint64(over)
		if f.tracer != nil {
			// Trimmed submissions all carry open queue spans (accepted or
			// requeued earlier); attribute them to the shed so the ledger
			// stays conserved.
			for _, s := range f.pending[f.cfg.QueueCap:] {
				if s.Trace != 0 {
					f.tracer.Fleet().CloseAttributed(s.Trace, trace.StageQueue, f.now, "shed")
				}
			}
		}
		f.pending = f.pending[:f.cfg.QueueCap]
	}
}

// EvictQueued removes up to max submissions from the tail of the
// admission queue and hands them to the caller — the federation's
// migration hook. Tail eviction preserves FIFO for the work that stays
// (the head waited longest and routes next barrier); the youngest
// arrivals are the cheapest to move. Evicted work leaves this fleet's
// zero-loss ledger via the Evicted counter:
//
//	Submitted − Shed − Evicted == live + Queued + InFlight + Orphaned + Completed
//
// so the caller must re-account it (the federation holds it in an
// in-migration ledger until the destination fleet accepts it). Open
// queue spans are closed with an "evict" attribution and the returned
// submissions' trace IDs are zeroed — the destination fleet derives
// fresh IDs from its own trace seed on re-submission.
func (f *Fleet) EvictQueued(max int) []Submission {
	f.mu.Lock()
	defer f.mu.Unlock()
	if max <= 0 || len(f.pending) == 0 {
		return nil
	}
	n := max
	if n > len(f.pending) {
		n = len(f.pending)
	}
	cut := len(f.pending) - n
	out := append([]Submission(nil), f.pending[cut:]...)
	f.pending = f.pending[:cut]
	f.counters.Evicted += uint64(n)
	for i := range out {
		if out[i].Trace != 0 {
			if f.tracer != nil {
				f.tracer.Fleet().CloseAttributed(out[i].Trace, trace.StageQueue, f.now, "evict")
			}
			out[i].Trace = 0
		}
	}
	return out
}

// SubmitAt schedules a spec for submission when the fleet's virtual time
// reaches at — the trace-driven arrival path. Entries due at the same
// barrier are submitted in (at, submission order).
func (f *Fleet) SubmitAt(at sim.Time, spec task.Spec) {
	sub := NewSubmission(spec)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sched = append(f.sched, timedSpec{at: at, seq: len(f.sched), sub: sub})
	sort.SliceStable(f.sched, func(i, j int) bool { return f.sched[i].at < f.sched[j].at })
}

// Step issues one batch barrier and keeps the pipeline within the skew
// bound:
//
//  1. due trace arrivals and the pending queue are routed (FIFO) against
//     the newest collected snapshots, with the in-flight carry projected
//     on top so uncollected assignments still count against a board;
//  2. each board receives its assignment and advances cfg.Batch on its
//     own goroutine — Step does not wait for it;
//  3. barriers older than MaxSkew are collected (blocking): snapshots
//     and versions publish, degraded streaks update, and drain/resume
//     decisions execute on a flushed pipeline (evacuated specs re-enter
//     the queue head).
//
// Step returns the first invariant violation when Config.Check is on.
func (f *Fleet) Step() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("fleet: stepped after Close")
	}
	// Release due trace arrivals into the queue, after any carried
	// pending work (older submissions route first).
	horizon := f.now + f.cfg.Batch
	for len(f.sched) > 0 && f.sched[0].at < horizon {
		f.submitOneLocked(f.sched[0].sub)
		f.sched = f.sched[1:]
	}
	snaps := append(f.routeSnaps[:0], f.snaps...)
	f.routeSnaps = snaps
	for i := range snaps {
		if c := f.carry[i]; c.tasks > 0 {
			snaps[i].Tasks += c.tasks
			snaps[i].DemandPU += c.demandPU
			frac := c.demandPU / snaps[i].MaxSupplyPU
			if snaps[i].Price > 0 {
				snaps[i].Price *= 1 + frac
			} else {
				snaps[i].Price = frac
			}
		}
	}
	subs := f.pending
	f.pending = nil
	issued := f.issued
	routeAt := f.now
	f.mu.Unlock()

	var t0 time.Time
	if f.tracer != nil {
		t0 = time.Now()
	}
	rb := f.disp.Route(snaps, subs)
	if f.tracer != nil {
		// Spans ride the barrier, not the route loop: one pass over the
		// decided picks closes each routed submission's queue span with
		// the pass that placed it (home lane vs. steal) and records its
		// queue wait. Wall-clock routing latency goes to the histogram
		// only — never the digest.
		f.histRouting.Record(float64(time.Since(t0).Nanoseconds()))
		fb := f.tracer.Fleet()
		for si := range rb.Picks {
			if rb.Picks[si] < 0 || subs[si].Trace == 0 {
				continue
			}
			class := "home"
			if rb.Stolen != nil && rb.Stolen[si] {
				class = "steal"
			}
			fb.Close(subs[si].Trace, trace.StageQueue, routeAt, class)
			f.histQueueWait.RecordExemplar(
				float64(routeAt-subs[si].EnqueuedAt)/float64(sim.Millisecond),
				uint64(subs[si].Trace))
		}
	}
	// Materialize the unrouted tail before anything can call Route again
	// (rb's slices are dispatcher scratch).
	var unrouted []Submission
	if len(rb.Unrouted) > 0 {
		unrouted = make([]Submission, 0, len(rb.Unrouted))
		for _, si := range rb.Unrouted {
			unrouted = append(unrouted, subs[si])
		}
	}

	// Fan the batch out; each board advances on its own goroutine and the
	// barrier joins the pipeline instead of blocking here. Boards receive
	// the shared read-only submission slice plus their pick-index list —
	// no per-board spec copies on the barrier's critical path.
	bar := f.newBarrier(issued+1, subs)
	for i, b := range f.boards {
		var mine []int32
		var dpu float64
		if rb.PerBoard != nil { // nil when the batch had no submissions
			mine = rb.PerBoard[i]
			dpu = rb.AddDemandPU[i]
		}
		b.cmd <- boardCmd{op: opStep, step: stepCmd{subs: subs, mine: mine, d: f.cfg.Batch, batch: bar.batch}}
		bar.add[i] = projCarry{tasks: len(mine), demandPU: dpu}
		bar.mine[i] = mine
		bar.total += len(mine)
	}
	f.inflight = append(f.inflight, bar)

	f.mu.Lock()
	f.issued++
	f.now += f.cfg.Batch
	f.inflightTasks += bar.total
	for i := range f.carry {
		f.carry[i].tasks += bar.add[i].tasks
		f.carry[i].demandPU += bar.add[i].demandPU
	}
	f.counters.Routed += uint64(rb.Routed)
	f.counters.Queued += uint64(len(unrouted))
	f.mu.Unlock()

	resubmit, firstErr := f.collectTo(f.cfg.MaxSkew)

	requeue := unrouted
	if len(resubmit) > 0 {
		requeue = append(resubmit, unrouted...)
	}
	f.mu.Lock()
	f.requeueLocked(requeue)
	f.mu.Unlock()
	if f.cfg.Check {
		// The crash-conservation self-check: every accepted task is live,
		// queued, in flight, or orphaned — at every barrier, crashes and
		// stalls included. Joined after the step error so a crash report
		// and a ledger leak both surface.
		if err := check.CheckFleetConservation(f); err != nil {
			firstErr = errors.Join(firstErr, err)
		}
	}
	return firstErr
}

// collectTo collects outstanding barriers until at most maxOutstanding
// remain and no deferred decision is pending. Decisions flush the
// pipeline first (drain/resume must see a quiescent board; restart must
// see every skewed barrier's orphans appended), then execute in decision
// order; evacuated and re-placed specs are returned for requeueing.
// Errors join across barriers and boards (errors.Join), so one collect
// pass can report two boards crashing at the same barrier plus an
// invariant violation on a third. A LivenessError aborts immediately —
// after a real hang the remaining barriers would only hang again.
func (f *Fleet) collectTo(maxOutstanding int) (resubmit []Submission, firstErr error) {
	var errs []error
	for len(f.inflight) > maxOutstanding || len(f.ops) > 0 {
		if len(f.ops) > 0 && len(f.inflight) == 0 {
			ops := f.ops
			f.ops = nil
			for _, op := range ops {
				switch {
				case op.restart:
					resubmit = append(resubmit, f.restartBoard(op.board)...)
				case op.replace:
					subs := f.takeOrphans(op.board)
					resubmit = append(resubmit, subs...)
					f.emitBoardEvent(op.board, "replace", float64(len(subs)))
				case op.resume:
					if f.crashed[op.board] || f.quarantined[op.board] {
						continue // moot: the board crashed since the op queued
					}
					f.boards[op.board].resume()
					f.mu.Lock()
					f.snaps[op.board].Draining = false
					f.mu.Unlock()
					f.emitDrainEvent(op.board, "resume", 0)
				default:
					if f.crashed[op.board] || f.quarantined[op.board] {
						continue // moot: the supervisor owns this board's work
					}
					subs := f.drainBoard(op.board)
					resubmit = append(resubmit, subs...)
					f.mu.Lock()
					f.snaps[op.board].Draining = true
					f.snaps[op.board].Tasks = 0
					if op.redrain {
						f.counters.Redrained++
					}
					f.mu.Unlock()
					class := "drain"
					if op.redrain {
						class = "redrain"
					}
					f.emitDrainEvent(op.board, class, len(subs))
				}
			}
			continue
		}
		if err := f.collectOldest(); err != nil {
			errs = append(errs, err)
			var le *LivenessError
			if errors.As(err, &le) {
				break
			}
		}
	}
	return resubmit, errors.Join(errs...)
}

// newBarrier starts an in-flight barrier record, reusing the per-board
// slices of a collected one when there is one.
func (f *Fleet) newBarrier(batch int, subs []Submission) inflightBarrier {
	var bar inflightBarrier
	if n := len(f.spare); n > 0 {
		bar = f.spare[n-1]
		f.spare = f.spare[:n-1]
	} else {
		bar.add = make([]projCarry, len(f.boards))
		bar.mine = make([][]int32, len(f.boards))
	}
	bar.batch, bar.subs, bar.total = batch, subs, 0
	return bar
}

// collectReplies gathers one barrier's step replies, one per board in
// board order, optionally bounded by the wall-clock liveness deadline.
// A board's replies arrive in barrier order on its own channel; one
// stamped with an older barrier is the late reply of a barrier a
// LivenessError abandoned, and is dropped. Injected stalls and crashes
// reply instantly with sentinels and never trip the deadline; only a
// real hang does. On timeout every already-delivered reply is drained
// non-blocking first, so the hung list names exactly the boards that
// produced nothing. The returned slice is scratch, valid until the next
// call.
func (f *Fleet) collectReplies(batch int) ([]stepReply, []int) {
	if cap(f.replies) < len(f.boards) {
		f.replies = make([]stepReply, len(f.boards))
		f.got = make([]bool, len(f.boards))
	}
	replies := f.replies[:len(f.boards)]
	if f.cfg.Liveness <= 0 {
		for i, b := range f.boards {
			r := <-b.replies
			for r.batch != batch {
				r = <-b.replies
			}
			replies[i] = r
		}
		return replies, nil
	}
	got := f.got[:len(f.boards)]
	clear(got)
	timer := time.NewTimer(f.cfg.Liveness)
	defer timer.Stop()
	for i, b := range f.boards {
		for !got[i] {
			select {
			case r := <-b.replies:
				if r.batch == batch {
					replies[i], got[i] = r, true
				}
			case <-timer.C:
				// This goroutine is the replies' only reader, so a
				// non-empty channel receives without blocking.
				var hung []int
				for j, bj := range f.boards {
					for !got[j] && len(bj.replies) > 0 {
						if r := <-bj.replies; r.batch == batch {
							replies[j], got[j] = r, true
						}
					}
					if !got[j] {
						hung = append(hung, j)
					}
				}
				return replies, hung // nil: everything was already on the wire
			}
		}
	}
	return replies, nil
}

// collectOldest blocks on the oldest in-flight barrier, resolves each
// board's reply (normal snapshot, stall sentinel, crash sentinel, or
// stall catch-up), publishes the versioned snapshots, unwinds the
// projection carry, and records any drain/restart decisions the barrier
// triggers. Per-board errors join: two boards crashing at one barrier
// yield one errors.Join of two CrashErrors.
func (f *Fleet) collectOldest() error {
	bar := f.inflight[0]
	n := copy(f.inflight, f.inflight[1:])
	f.inflight[n] = inflightBarrier{}
	f.inflight = f.inflight[:n]
	replies, hung := f.collectReplies(bar.batch)
	if hung != nil {
		return &LivenessError{Barrier: bar.batch, Deadline: f.cfg.Liveness, Boards: hung}
	}
	if cap(f.fresh) < len(f.boards) {
		f.fresh = make([]Snapshot, len(f.boards))
	}
	fresh := f.fresh[:len(f.boards)]
	var events []telemetry.Event
	var bevents []boardEvent // crash/stall lifecycle, emitted after unlock
	var errs []error
	f.mu.Lock()
	// Unwind the barrier's projection first; the resolvers below re-pin
	// the share belonging to stalled boards and move crashed boards'
	// shares to the orphan ledger.
	f.batch++
	f.inflightTasks -= bar.total
	for i := range f.carry {
		f.carry[i].tasks -= bar.add[i].tasks
		f.carry[i].demandPU -= bar.add[i].demandPU
	}
	for i := range f.boards {
		r := replies[i]
		switch {
		case r.crashed:
			fresh[i] = f.resolveCrashLocked(i, bar, r, &errs, &bevents)
		case r.stalled:
			fresh[i] = f.resolveStallLocked(i, bar, &bevents)
		default:
			fresh[i] = r.snap
			if f.stallMiss[i] > 0 {
				f.resolveCatchupLocked(i, &bevents)
			}
			if f.evSink != nil && len(r.events) > 0 {
				for _, ev := range r.events {
					ev.Board = i
					// Restamp Round with the fold round (the barrier number):
					// emit sites stamp market rounds inconsistently (migration
					// leaves it zero, fault uses its own period), so the fold
					// round is the only key that is monotone across the log.
					// Exact virtual time is preserved in ev.Time.
					ev.Round = int(bar.batch)
					events = append(events, ev)
				}
			}
			if r.err != nil {
				errs = append(errs, fmt.Errorf("fleet: board %d: %w", i, r.err))
			}
		}
	}
	copy(f.snaps, fresh)
	lag := f.issued - bar.batch
	f.mu.Unlock()
	for _, be := range bevents {
		f.emitBoardEvent(be.board, be.class, be.value)
	}
	f.noteDrainStreaks(fresh)
	f.pendRestarts(bar.batch)
	if f.tracer != nil {
		// The barrier span is fully known at collect time: it covered one
		// batch of virtual time, and its lag is how many barriers issuance
		// ran ahead while it was in flight (bounded by MaxSkew).
		start := sim.Time(bar.batch-1) * f.cfg.Batch
		f.tracer.Fleet().Add(trace.Span{
			Stage: trace.StageBarrier, Board: -1,
			Start: start, End: start + f.cfg.Batch,
			Barrier: bar.batch, Lag: lag,
		})
		f.histBarrierLag.Record(float64(lag))
	}
	f.spare = append(f.spare, bar)
	if len(events) > 0 {
		// The per-barrier event fold: one globally sorted flush per
		// barrier in (round, board, kind) order — the ordering contract
		// JSONL consumers rely on (see telemetry.JSONLSink).
		sort.SliceStable(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.Round != b.Round {
				return a.Round < b.Round
			}
			if a.Board != b.Board {
				return a.Board < b.Board
			}
			return a.Kind < b.Kind
		})
		for _, ev := range events {
			f.evSink.Emit(ev)
		}
	}
	return errors.Join(errs...)
}

// boardEvent is one gathered crash/stall lifecycle event, emitted after
// the resolvers release f.mu (the emitter's clock takes the fleet lock).
type boardEvent struct {
	board int
	class string
	value float64
}

// resolveCrashLocked handles one crashed reply under f.mu. On first
// detection it orphans the board's recoverable work — the last good
// checkpoint's residents, every stall-deferred batch, and this barrier's
// never-run assignments — unpins the stall carry, schedules the restart
// (or permanent quarantine), and reports a CrashError. Later crashed
// replies from the same epoch only orphan that barrier's skew-issued
// assignments (routing already excludes the board once the crash
// snapshot publishes).
func (f *Fleet) resolveCrashLocked(i int, bar inflightBarrier, r stepReply, errs *[]error, bevents *[]boardEvent) Snapshot {
	var orphaned []Submission
	for _, si := range bar.mine[i] {
		orphaned = append(orphaned, bar.subs[si])
	}
	snap := f.snaps[i]
	if !f.crashed[i] {
		// First detection for this epoch.
		f.crashed[i] = true
		f.crashedAt[i] = bar.batch
		f.counters.Crashes++
		*errs = append(*errs, &CrashError{Board: i, Barrier: bar.batch, Err: r.err})
		*bevents = append(*bevents, boardEvent{board: i, class: "crash", value: float64(bar.batch)})
		// The stall ledger's deferrals died with the board: unpin their
		// carry and move the submissions to the orphan set.
		orphaned = append(orphaned, f.stallPending[i]...)
		f.carry[i].tasks -= f.stallCarry[i].tasks
		f.carry[i].demandPU -= f.stallCarry[i].demandPU
		f.inflightTasks -= f.stallCarry[i].tasks
		f.stallCarry[i] = projCarry{}
		f.stallPending[i] = nil
		f.stallMiss[i] = 0
		f.stallQ[i] = false
		// The checkpoint's residents and completed count (folded at the
		// last successful barrier; nil when the board never completed
		// one, in which case the snapshot still holds the count the board
		// booted with). Completions inside the crashed step die with it:
		// those tasks are still residents of this image.
		if ck, err := DecodeCheckpoint(r.ckpt); err != nil {
			*errs = append(*errs, fmt.Errorf("fleet: board %d checkpoint: %w", i, err))
		} else if ck != nil {
			snap.Completed = ck.Completed
			for _, ct := range ck.Tasks {
				s := NewSubmission(ct.Spec)
				s.Trace = ct.Trace
				orphaned = append(orphaned, s)
			}
		}
		// Schedule the resurrection, or retire the board for good.
		if f.cfg.RestartAfter > 0 && (f.cfg.MaxRestarts <= 0 || f.restarts[i] < f.cfg.MaxRestarts) {
			f.restartBarrier[i] = bar.batch + f.restartDelayBarriers(i)
		} else {
			f.quarantined[i] = true
			f.ops = append(f.ops, drainOp{board: i, replace: true})
			*bevents = append(*bevents, boardEvent{board: i, class: "quarantine", value: float64(f.restarts[i])})
		}
	}
	f.orphans[i] = append(f.orphans[i], orphaned...)
	f.orphanedCount += len(orphaned)
	f.counters.Orphaned += uint64(len(orphaned))
	snap.Batch = bar.batch
	snap.Crashed = true
	snap.Stalled = false
	snap.Tasks = 0
	snap.DemandPU = 0
	return snap
}

// resolveStallLocked handles one stall-sentinel reply under f.mu: the
// barrier's assignments stay pinned in the in-flight ledger (the board
// holds the batch for catch-up), the actual submissions join the
// stall-pending recovery set, and the board quarantines from routing
// once it has missed Config.StallBarriers barriers in a row.
func (f *Fleet) resolveStallLocked(i int, bar inflightBarrier, bevents *[]boardEvent) Snapshot {
	f.carry[i].tasks += bar.add[i].tasks
	f.carry[i].demandPU += bar.add[i].demandPU
	f.inflightTasks += bar.add[i].tasks
	f.stallCarry[i].tasks += bar.add[i].tasks
	f.stallCarry[i].demandPU += bar.add[i].demandPU
	for _, si := range bar.mine[i] {
		f.stallPending[i] = append(f.stallPending[i], bar.subs[si])
	}
	f.stallMiss[i]++
	if !f.stallQ[i] && f.stallMiss[i] >= f.cfg.StallBarriers {
		f.stallQ[i] = true
		f.counters.Stalls++
		*bevents = append(*bevents, boardEvent{board: i, class: "stall", value: float64(f.stallMiss[i])})
	}
	snap := f.snaps[i]
	snap.Batch = bar.batch
	snap.Stalled = f.stallQ[i]
	return snap
}

// resolveCatchupLocked clears a board's stall state on its first real
// reply after a stall window: the caught-up snapshot already counts the
// deferred batches' tasks as live, so the pinned carry unwinds here,
// exactly once.
func (f *Fleet) resolveCatchupLocked(i int, bevents *[]boardEvent) {
	f.carry[i].tasks -= f.stallCarry[i].tasks
	f.carry[i].demandPU -= f.stallCarry[i].demandPU
	f.inflightTasks -= f.stallCarry[i].tasks
	f.stallCarry[i] = projCarry{}
	f.stallPending[i] = nil
	if f.stallQ[i] {
		*bevents = append(*bevents, boardEvent{board: i, class: "catch-up", value: float64(f.stallMiss[i])})
	}
	f.stallMiss[i] = 0
	f.stallQ[i] = false
}

// pendRestarts queues restart ops for crashed boards whose backoff
// expired at or before the just-collected barrier. The op mechanism
// flushes the pipeline before executing, so every skew-issued barrier's
// orphans are appended before the restart re-places them.
func (f *Fleet) pendRestarts(collected int) {
	for i := range f.boards {
		if f.restartBarrier[i] >= 0 && collected >= f.restartBarrier[i] {
			f.restartBarrier[i] = -1
			f.ops = append(f.ops, drainOp{board: i, restart: true})
		}
	}
}

// restartDelayBarriers derives the barriers between a crash detection
// and the board's resurrection: RestartAfter on the first crash, backing
// off exponentially per repeat with deterministic seeded jitter (its own
// lane of the restart seed stream, disjoint from the epoch-seed lane).
func (f *Fleet) restartDelayBarriers(board int) int {
	bo := fault.Backoff{
		Base:   sim.Time(f.cfg.RestartAfter) * f.cfg.Batch,
		Factor: 2,
		Jitter: 0.25,
		Seed:   sim.DeriveSeed(f.cfg.Seed, restartSeedStream+0x8000+uint64(board)),
	}
	barriers := int((bo.Next(f.restarts[board]) + f.cfg.Batch - 1) / f.cfg.Batch)
	if barriers < f.cfg.RestartAfter {
		barriers = f.cfg.RestartAfter
	}
	return barriers
}

// restartBoard resurrects a crashed board under the same ID: the dead
// goroutine stops, a fresh platform boots under the derived
// restart-epoch seed, and the orphaned work re-enters the dispatcher as
// ordinary submissions (returned for requeueing at the queue head).
// Runs only on a flushed pipeline (drainOp contract), so the old
// board's command queue is empty and its every skewed barrier has been
// orphan-accounted.
func (f *Fleet) restartBoard(i int) []Submission {
	f.boards[i].stop()

	epoch := f.crashEpochs[i] + 1
	completed := f.snaps[i].Completed // the crash snapshot's checkpoint count
	b, err := newBoard(i, f.cfg, f.tracer.Board(i), epoch, completed)
	if err != nil {
		// Can only happen if the board's fault scenario fails validation,
		// which New() already vetted — but if it does, retire the board
		// rather than crash the fleet.
		f.quarantined[i] = true
		f.emitBoardEvent(i, "quarantine", float64(f.restarts[i]))
		return f.takeOrphans(i)
	}
	f.crashEpochs[i] = epoch
	f.restarts[i]++
	f.crashed[i] = false
	f.degraded[i], f.healthy[i], f.auto[i] = 0, 0, false

	f.mu.Lock()
	f.boards[i] = b // under mu: Boards() is read from HTTP goroutines
	f.counters.Restarts++
	f.snaps[i] = Snapshot{Board: i, Epoch: epoch, MaxSupplyPU: b.p.MaxSupplyPU(), Completed: completed}
	latency := f.batch - f.crashedAt[i]
	f.mu.Unlock()
	if f.histRestart != nil {
		f.histRestart.Record(float64(latency))
	}
	f.emitBoardEvent(i, "restart", float64(epoch))
	return f.takeOrphans(i)
}

// takeOrphans drains a board's orphan ledger into submissions ready for
// the queue head: each keeps its trace ID and reopens a queue span
// attributed to the requeue, so a task's crash → re-place journey reads
// as one timeline.
func (f *Fleet) takeOrphans(i int) []Submission {
	subs := f.orphans[i]
	f.orphans[i] = nil
	if len(subs) == 0 {
		return nil
	}
	f.mu.Lock()
	now := f.now
	f.orphanedCount -= len(subs)
	f.counters.Replaced += uint64(len(subs))
	if f.tracer != nil {
		for j := range subs {
			if subs[j].Trace == 0 {
				continue
			}
			subs[j].EnqueuedAt = now
			f.tracer.Fleet().Open(trace.Span{
				Trace: subs[j].Trace, Stage: trace.StageQueue, Board: -1,
				Start: now, Class: "requeue",
			})
		}
	}
	f.mu.Unlock()
	return subs
}

// emitBoardEvent publishes one KindBoard lifecycle event (class = crash /
// stall / catch-up / restart / replace / quarantine). Never call under
// f.mu: the emitter's clock is f.Now.
func (f *Fleet) emitBoardEvent(board int, class string, value float64) {
	if !f.em.Enabled(telemetry.KindBoard) {
		return
	}
	ev := telemetry.E(telemetry.KindBoard)
	ev.Name = fmt.Sprintf("board-%d", board)
	ev.Class = class
	ev.Value = value
	f.em.Emit(ev)
}

// Flush collects every outstanding barrier and executes pending
// drain/resume decisions, bringing the published state fully current
// (bounded-skew runs leave up to MaxSkew barriers in flight). A no-op in
// lockstep steady state.
func (f *Fleet) Flush() error {
	resubmit, err := f.collectTo(0)
	f.mu.Lock()
	f.requeueLocked(resubmit)
	f.mu.Unlock()
	return err
}

// cooldownBarriers derives the healthy-barrier streak a board must show
// before its next resume: DrainDegradedAfter barriers on the first drain,
// doubling per re-drain (capped at 32×), with deterministic seeded jitter
// so a fleet of flapping boards doesn't resume in thundering-herd unison.
func (f *Fleet) cooldownBarriers(board int) int {
	n := f.cfg.DrainDegradedAfter
	bo := fault.Backoff{
		Base:   sim.Time(n) * f.cfg.Batch,
		Factor: 2,
		Jitter: 0.25,
		Seed:   sim.DeriveSeed(f.cfg.Seed, drainSeedStream+uint64(board)),
	}
	barriers := int((bo.Next(f.drainCount[board]) + f.cfg.Batch - 1) / f.cfg.Batch)
	if barriers < n {
		barriers = n
	}
	return barriers
}

// noteDrainStreaks tracks per-board degraded streaks against one
// collected barrier, queueing drain decisions for boards that stayed
// degraded too long and resume decisions once a drained board stays
// healthy through its cooldown. Decisions are deferred (drainOp) so they
// execute on a flushed pipeline.
func (f *Fleet) noteDrainStreaks(fresh []Snapshot) {
	if f.cfg.DrainDegradedAfter <= 0 {
		return
	}
	for i, s := range fresh {
		if f.crashed[i] || f.quarantined[i] || f.stallMiss[i] > 0 {
			// Dead or silent boards republish stale snapshots; their
			// Degraded bit is old news, and draining them is the
			// supervisor's job, not the sensor-health path's.
			f.degraded[i] = 0
			f.healthy[i] = 0
			continue
		}
		if s.Degraded {
			f.degraded[i]++
			f.healthy[i] = 0
		} else {
			f.degraded[i] = 0
			if f.auto[i] {
				f.healthy[i]++
			}
		}
		// Cooldown decay: surviving twice the last cooldown after a
		// resume earns the exponential counter back. Only trusted
		// (non-degraded) barriers count as surviving.
		if !f.auto[i] && f.drainCount[i] > 0 && !s.Degraded {
			f.sinceResume[i]++
			if f.sinceResume[i] >= 2*f.resumeAfter[i] {
				f.drainCount[i] = 0
			}
		}
		if !f.auto[i] && f.degraded[i] >= f.cfg.DrainDegradedAfter {
			f.auto[i] = true
			f.healthy[i] = 0
			f.resumeAfter[i] = f.cooldownBarriers(i)
			f.drainCount[i]++
			f.sinceResume[i] = 0
			f.ops = append(f.ops, drainOp{board: i, redrain: f.drainCount[i] > 1})
			continue
		}
		if f.auto[i] && f.healthy[i] >= f.resumeAfter[i] {
			f.auto[i] = false
			f.healthy[i] = 0
			f.sinceResume[i] = 0
			f.ops = append(f.ops, drainOp{board: i, resume: true})
		}
	}
}

// emitDrainEvent publishes one KindDrain lifecycle event (class = drain /
// redrain / resume / manual-drain / manual-resume).
func (f *Fleet) emitDrainEvent(board int, class string, evacuated int) {
	if !f.em.Enabled(telemetry.KindDrain) {
		return
	}
	ev := telemetry.E(telemetry.KindDrain)
	ev.Name = fmt.Sprintf("board-%d", board)
	ev.Class = class
	ev.Value = float64(evacuated)
	ev.Prev = float64(f.resumeAfter[board])
	f.em.Emit(ev)
}

func (f *Fleet) drainBoard(i int) []Submission {
	evs := f.boards[i].drain()
	subs := make([]Submission, len(evs))
	f.mu.Lock()
	now := f.now
	f.counters.Drained += uint64(len(subs))
	f.counters.Resubmitted += uint64(len(subs))
	f.mu.Unlock()
	for j, e := range evs {
		s := NewSubmission(e.spec)
		if f.tracer != nil && e.id != 0 {
			// The evacuated task keeps its trace ID: its board span just
			// closed attributed to the drain, and a fresh queue span opens
			// here so the requeue leg shows up on the same timeline.
			s.Trace = e.id
			s.EnqueuedAt = now
			f.tracer.Fleet().Open(trace.Span{
				Trace: e.id, Stage: trace.StageQueue, Board: -1,
				Start: now, Class: "requeue",
			})
		}
		subs[j] = s
	}
	return subs
}

// Drain evacuates board i immediately (manual hot-unplug path): the
// pipeline is flushed, the board's tasks re-enter the admission queue
// head (overflow sheds with accounting, like every requeue), and the
// board stops receiving work until Resume. Safe only between Steps
// (fleetd's driver serializes them).
func (f *Fleet) Drain(i int) error {
	if i < 0 || i >= len(f.boards) {
		return fmt.Errorf("fleet: no board %d", i)
	}
	if f.crashed[i] || f.quarantined[i] {
		return fmt.Errorf("fleet: board %d crashed; the supervisor owns its work", i)
	}
	if err := f.Flush(); err != nil {
		return err
	}
	subs := f.drainBoard(i)
	f.mu.Lock()
	f.snaps[i].Draining = true
	f.snaps[i].Tasks = 0
	f.requeueLocked(subs)
	f.mu.Unlock()
	f.emitDrainEvent(i, "manual-drain", len(subs))
	return nil
}

// Resume lets a manually drained board accept work again.
func (f *Fleet) Resume(i int) error {
	if i < 0 || i >= len(f.boards) {
		return fmt.Errorf("fleet: no board %d", i)
	}
	if f.crashed[i] || f.quarantined[i] {
		return fmt.Errorf("fleet: board %d crashed; resume waits on the supervisor", i)
	}
	if err := f.Flush(); err != nil {
		return err
	}
	f.boards[i].resume()
	f.mu.Lock()
	f.snaps[i].Draining = false
	f.mu.Unlock()
	f.emitDrainEvent(i, "manual-resume", 0)
	return nil
}

// StateSnapshot publishes the fleet-wide view of the newest collected
// barrier.
func (f *Fleet) StateSnapshot() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	shards := f.cfg.Shards
	if shards > len(f.boards) {
		shards = len(f.boards)
	}
	if shards < 1 {
		shards = 1
	}
	st := State{
		Batch:     f.batch,
		Issued:    f.issued,
		Time:      f.now,
		Boards:    append([]Snapshot(nil), f.snaps...),
		QueueLen:  len(f.pending),
		InFlight:  f.inflightTasks,
		Orphaned:  f.orphanedCount,
		Completed: sumCompleted(f.snaps),
		Counters:  f.counters,
		Shards:    shards,
	}
	return st
}

// FleetAccounting reports the zero-loss ledger terms at the newest
// collected barrier, for check.CheckFleetConservation: accepted =
// submitted − shed − evicted must equal live + queued + in-flight +
// orphaned + completed. Live and completed both come from the collected
// snapshots, i.e. from board state: a board retires the tasks that
// finished in a batch before it publishes that barrier's snapshot, so
// each completion leaves "live" and enters "completed" at the same
// barrier. (Evicted work belongs to whoever called EvictQueued.)
func (f *Fleet) FleetAccounting() check.Ledger {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := check.Ledger{
		Accepted:  f.counters.Submitted - f.counters.Shed - f.counters.Evicted,
		Queued:    uint64(len(f.pending)),
		InFlight:  uint64(f.inflightTasks),
		Orphaned:  uint64(f.orphanedCount),
		Completed: uint64(sumCompleted(f.snaps)),
	}
	for i := range f.snaps {
		l.Live += uint64(f.snaps[i].Tasks)
	}
	return l
}

// Traces returns the per-board replay traces (index = board ID); entries
// are nil unless Config.Record was set.
func (f *Fleet) Traces() []*check.Trace {
	boards := f.Boards()
	out := make([]*check.Trace, len(boards))
	for i, b := range boards {
		out[i] = b.Trace()
	}
	return out
}

// Boards exposes the boards (read-only use: registries, traces). The
// returned slice is a copy: a supervised restart swaps a board pointer
// mid-run, and HTTP readers must not race it.
func (f *Fleet) Boards() []*Board {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Board(nil), f.boards...)
}

// Close stops every board goroutine. The fleet is unusable afterwards.
// Outstanding pipelined steps drain through each board's command queue
// before the stop executes.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	for _, b := range f.boards {
		b.stop()
	}
}

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
	"strconv"
	"sync"
	"time"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
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
// process smoke gate (scripts/smoke.sh) — is:
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

// State is the fleet-wide snapshot. The federation reads one per region
// for its /state and /regions summaries and serves the board rows at
// /boards.
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

func (c *projCarry) add(d projCarry) { c.tasks += d.tasks; c.demandPU += d.demandPU }
func (c *projCarry) sub(d projCarry) { c.tasks -= d.tasks; c.demandPU -= d.demandPU }

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

// pick copies out the submissions at the given indexes (nil for none).
func pick(subs []Submission, idx []int32) []Submission {
	if len(idx) == 0 {
		return nil
	}
	out := make([]Submission, len(idx))
	for j, si := range idx {
		out[j] = subs[si]
	}
	return out
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
	ops []boardOp
	// Per-barrier scratch, reused so that a steady barrier allocates
	// nothing in the coordinator: the projected snapshots Route reads,
	// the collected replies and fresh snapshots, and the add/mine slices
	// of collected barriers (spare).
	routeSnaps []Snapshot
	replies    []stepReply
	got        []bool
	fresh      []Snapshot
	spare      []inflightBarrier
	// spareRows are per-cluster rows of snapshots no longer published,
	// handed to the boards at the next barriers (see stepCmd.rows).
	spareRows [][]platform.ClusterStats

	mu    sync.Mutex
	recs  []boardRec  // per-board lifecycle records (lifecycle.go)
	snaps []Snapshot  // newest collected barrier's snapshots
	carry []projCarry // in-flight projected load per board
	// inflight holds the issued-but-uncollected barriers in issue order;
	// abandoned holds barriers a LivenessError gave up on, whose work is
	// still in flight on the hung boards. Written under mu: the in-flight
	// ledger term is derived from them.
	inflight  []inflightBarrier
	abandoned []inflightBarrier
	batch     int                      // barriers collected
	issued    int                      // barriers issued
	now       sim.Time                 // fleet virtual time (issued * cfg.Batch)
	pending   []Submission             // FIFO admission queue (demand pre-estimated)
	sched     sim.Schedule[Submission] // trace-scheduled future arrivals
	counters  Counters
	closed    bool

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

// New builds the fleet and boots its boards (each on its own goroutine,
// idle until the first Step).
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:   cfg,
		disp:  NewShardedDispatcher(cfg.Shards, cfg.Hysteresis, sim.DeriveSeed(cfg.Seed, routeSeedStream)),
		recs:  make([]boardRec, cfg.Boards),
		snaps: make([]Snapshot, cfg.Boards),
		carry: make([]projCarry, cfg.Boards),
		reg:   telemetry.NewRegistry(),
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
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.ledgerLocked().InFlight) })
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
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.ledgerLocked().Orphaned) })
	f.reg.GaugeFunc("pricepower_fleet_completed_tasks", "Tasks that finished and were retired from their boards (per the collected snapshots).",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(f.ledgerLocked().Completed) })
}

// Registry is the fleet-level metrics registry (queue depth, routing
// counters); board registries merge in via ExportMetrics.
func (f *Fleet) Registry() *telemetry.Registry { return f.reg }

// ExportMetrics snapshots the merged series set: the fleet's own
// registry as-is, plus every board's registry with a board label
// injected into each series. The federation relabels the result again
// with a region label (telemetry.AppendLabeled).
func (f *Fleet) ExportMetrics() []telemetry.Series {
	merged := f.Registry().Export()
	for _, b := range f.Boards() {
		merged = telemetry.AppendLabeled(merged, b.Registry().Export(), "board", strconv.Itoa(b.ID))
	}
	return merged
}

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
	f.sched.Push(at, sub)
}

// releaseLocked admits the scheduled arrivals due before horizon, in
// (at, submission order), behind any carried pending work.
func (f *Fleet) releaseLocked(horizon sim.Time) {
	for at, ok := f.sched.Next(); ok && at < horizon; at, ok = f.sched.Next() {
		f.submitOneLocked(f.sched.Pop())
	}
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
	f.releaseLocked(f.now + f.cfg.Batch)
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
	unrouted := pick(subs, rb.Unrouted)

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
		var rows []platform.ClusterStats
		if n := len(f.spareRows); n > 0 {
			rows, f.spareRows = f.spareRows[n-1], f.spareRows[:n-1]
		}
		b.cmd <- boardCmd{op: opStep, step: stepCmd{subs: subs, mine: mine, d: f.cfg.Batch, batch: bar.batch, rows: rows}}
		bar.add[i] = projCarry{tasks: len(mine), demandPU: dpu}
		bar.mine[i] = mine
		bar.total += len(mine)
	}

	f.mu.Lock()
	f.issued++
	f.now += f.cfg.Batch
	f.inflight = append(f.inflight, bar)
	for i := range f.carry {
		f.carry[i].add(bar.add[i])
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
				// A deferred op is never refused: one the board outlived
				// (it crashed since) is moot.
				subs, _ := f.runOp(op.board, op.ev)
				resubmit = append(resubmit, subs...)
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
	replies, hung := f.collectReplies(bar.batch)
	f.mu.Lock()
	n := copy(f.inflight, f.inflight[1:])
	f.inflight[n] = inflightBarrier{}
	f.inflight = f.inflight[:n]
	if hung != nil {
		f.abandoned = append(f.abandoned, bar)
		f.mu.Unlock()
		return &LivenessError{Barrier: bar.batch, Deadline: f.cfg.Liveness, Boards: hung}
	}
	if cap(f.fresh) < len(f.boards) {
		f.fresh = make([]Snapshot, len(f.boards))
	}
	fresh := f.fresh[:len(f.boards)]
	var events []telemetry.Event
	var notes []telemetry.Event // lifecycle events, emitted after unlock
	var errs []error
	// Unwind the barrier's projection first; the transitions below re-pin
	// the share belonging to stalled boards and move crashed boards'
	// shares to the orphan ledger.
	f.batch++
	for i := range f.carry {
		f.carry[i].sub(bar.add[i])
	}
	for i := range f.boards {
		r := replies[i]
		var ev event
		switch {
		case r.crashed:
			fresh[i], ev = f.crashReplyLocked(i, &bar, r, &errs)
		case r.stalled:
			fresh[i] = f.snaps[i]
			fresh[i].Batch = bar.batch
			ev = event{kind: evStall, add: bar.add[i], subs: pick(bar.subs, bar.mine[i])}
		default:
			// The published rows retire: readers copy them under mu
			// (StateSnapshot), so from here on nobody else reads them.
			if rows := f.snaps[i].Clusters; rows != nil {
				f.spareRows = append(f.spareRows, rows)
			}
			fresh[i] = r.snap
			if f.recs[i].state == stStalled {
				ev.kind = evCatchup
			}
			if f.evSink != nil && len(r.events) > 0 {
				for _, be := range r.events {
					be.Board = i
					// Restamp Round with the fold round (the barrier number):
					// emit sites stamp market rounds inconsistently (migration
					// leaves it zero, fault uses its own period), so the fold
					// round is the only key that is monotone across the log.
					// Exact virtual time is preserved in be.Time.
					be.Round = int(bar.batch)
					events = append(events, be)
				}
			}
			if r.err != nil {
				errs = append(errs, fmt.Errorf("fleet: board %d: %w", i, r.err))
			}
		}
		if ev.kind != evNone {
			out := f.apply(i, ev)
			notes = append(notes, out.notes...)
			f.queue(i, out.op)
		}
		f.recs[i].mark(&fresh[i], f.cfg.StallBarriers)
	}
	copy(f.snaps, fresh)
	lag := f.issued - bar.batch
	f.mu.Unlock()
	f.emit(notes)
	f.noteBarrier(fresh, bar.batch)
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

// StateSnapshot publishes the fleet-wide view of the newest collected
// barrier. It shares no storage with the fleet: the boards' cluster rows
// are copied, since the fleet recycles them into later barriers.
func (f *Fleet) StateSnapshot() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.ledgerLocked()
	return State{
		Batch:     f.batch,
		Issued:    f.issued,
		Time:      f.now,
		Boards:    cloneSnapshots(f.snaps),
		QueueLen:  len(f.pending),
		InFlight:  int(l.InFlight),
		Orphaned:  int(l.Orphaned),
		Completed: int(l.Completed),
		Counters:  f.counters,
		Shards:    max(1, min(f.cfg.Shards, len(f.boards))),
	}
}

// cloneSnapshots copies snapshots together with their cluster rows (all
// rows in one allocation).
func cloneSnapshots(snaps []Snapshot) []Snapshot {
	out := append([]Snapshot(nil), snaps...)
	n := 0
	for i := range out {
		n += len(out[i].Clusters)
	}
	rows := make([]platform.ClusterStats, n)
	for i := range out {
		if c := out[i].Clusters; c != nil {
			k := copy(rows, c)
			out[i].Clusters, rows = rows[:k:k], rows[k:]
		}
	}
	return out
}

// FleetAccounting reports the zero-loss ledger terms at the newest
// collected barrier, for check.CheckFleetConservation: accepted =
// submitted − shed − evicted must equal live + queued + in-flight +
// orphaned + completed. (Evicted work belongs to whoever called
// EvictQueued.)
func (f *Fleet) FleetAccounting() check.Ledger {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ledgerLocked()
}

// ledgerLocked derives every ledger term from state. Live and completed
// come from the collected snapshots, i.e. from board state: a board
// retires the tasks that finished in a batch before it publishes that
// barrier's snapshot, so each completion leaves "live" and enters
// "completed" at the same barrier. In-flight is the tasks assigned at
// uncollected (or abandoned) barriers plus the stalled boards' pinned
// deferrals; orphaned is the crashed boards' recovered work awaiting
// re-placement.
func (f *Fleet) ledgerLocked() check.Ledger {
	l := check.Ledger{
		Accepted: f.counters.Submitted - f.counters.Shed - f.counters.Evicted,
		Queued:   uint64(len(f.pending)),
	}
	for i := range f.snaps {
		l.Live += uint64(f.snaps[i].Tasks)
		l.Completed += uint64(f.snaps[i].Completed)
		l.InFlight += uint64(f.recs[i].stallCarry.tasks)
		l.Orphaned += uint64(len(f.recs[i].orphans))
	}
	for _, bars := range [2][]inflightBarrier{f.inflight, f.abandoned} {
		for _, bar := range bars {
			l.InFlight += uint64(bar.total)
		}
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

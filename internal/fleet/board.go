package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pricepower/internal/check"
	"pricepower/internal/core"
	"pricepower/internal/exp"
	"pricepower/internal/fault"
	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// Board is one independent platform instance in the fleet: its own TC2
// chip, PPM governor, telemetry registry, optional invariant checker,
// replay recorder and fault injector, advanced by a dedicated goroutine
// that only moves when the fleet sends it a batch command. All of a
// board's mutable state is owned by that goroutine — the fleet talks to
// it exclusively through the command channel, so a board needs no locks
// and its virtual timeline is bit-reproducible.
type Board struct {
	ID    int
	Seed  uint64 // per-board seed, derived from the fleet seed
	epoch int    // restart epoch (0 = original boot)

	p   *platform.Platform
	gov *ppm.Governor
	em  *telemetry.Emitter
	chk *check.Checker
	rec *check.Recorder
	inj *fault.Injector

	little []int // LITTLE core IDs, placement targets
	rr     int   // persistent round-robin cursor over little

	draining bool

	// Board failure domain (see DESIGN.md §12). bsc is the board-level
	// fault schedule (nil without board faults); crashed flips on panic
	// recovery and is terminal for this epoch — the board answers every
	// later command with a crashed reply so the barrier pipeline never
	// deadlocks on it. ckpt is the encoded checkpoint folded at the end
	// of the last successful step; deferred holds stalled batches until
	// the stall window closes.
	bsc      *fault.Scenario
	crashed  bool
	crashErr error
	ckpt     []byte
	deferred []deferredBatch

	// Causal tracing (nil when Config.Trace is off — the zero-cost
	// detached state). All fields are owned by the board goroutine; trc's
	// own mutex covers the HTTP layer's concurrent reads.
	trc      *trace.Buffer
	capture  *captureSink
	obs      *boardObserver
	traceOf  map[*task.Task]trace.ID
	histStep *metrics.Histogram // wall ns per batch step (place + run)

	cmd  chan interface{}
	done chan struct{}
}

// traceCaptureKinds is the lifecycle-event mask a traced board captures
// for its timeline points: the low-volume kinds only, so the capture path
// never sees the per-round price/bid/clearing firehose.
var traceCaptureKinds = telemetry.Kinds(telemetry.KindDVFS, telemetry.KindMigration,
	telemetry.KindThrottle, telemetry.KindPowerGate, telemetry.KindDegraded, telemetry.KindFault)

// captureSink buffers a traced board's lifecycle events during p.Run.
// The append is mutex-guarded per the Sink contract; the board drains and
// sorts the batch into a total content order before folding, which is what
// keeps the trace digest replay-stable.
type captureSink struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (c *captureSink) Emit(ev telemetry.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *captureSink) drain() []telemetry.Event {
	c.mu.Lock()
	evs := c.evs
	c.evs = nil
	c.mu.Unlock()
	return evs
}

// sortEvents imposes the total content order used before folding captured
// events into the trace digest, so the digest depends on what was emitted,
// not on the order the layers emitted it in.
func sortEvents(evs []telemetry.Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Prev < b.Prev
	})
}

type stepCmd struct {
	subs  []Submission // the barrier's full submission batch (shared, read-only)
	mine  []int32      // indexes into subs placed (in order) before the batch runs
	d     sim.Time     // batch length of virtual time
	batch int
	reply chan stepReply
}

type stepReply struct {
	snap Snapshot
	// events are the batch's captured lifecycle events, content-sorted
	// (nil unless tracing): the fleet's per-barrier fold stamps board IDs
	// and emits them in (round, board, kind) order to its event sink.
	events []telemetry.Event
	err    error // first invariant violation, when checking is on

	// crashed marks a terminal reply from a dead board: no snapshot, no
	// events — just the last folded checkpoint for the supervisor to
	// orphan from. The board keeps answering so the pipeline never
	// blocks on it. stalled marks a withheld step (board-stall fault):
	// the batch was deferred board-side and the fleet keeps its
	// assignments in flight until the board catches up or crashes.
	crashed bool
	stalled bool
	ckpt    []byte // encoded Checkpoint (crashed replies only)
}

// deferredBatch is one stalled step command held by the board: it runs,
// in order, at the first barrier past the stall window (or dies with
// the board, in which case the fleet's stall-pending ledger recovers
// the work).
type deferredBatch struct {
	subs  []Submission
	mine  []int32
	d     sim.Time
	batch int
}

// evacuated pairs an evacuated spec with its causal trace ID (0 when
// untraced or already completed) so a drained task keeps its identity
// across the requeue.
type evacuated struct {
	spec task.Spec
	id   trace.ID
}

type drainCmd struct {
	reply chan []evacuated // the evacuated specs, in placement order
}

type resumeCmd struct{ reply chan struct{} }

type stopCmd struct{ reply chan struct{} }

// newBoard assembles one board from the fleet config. The governor is
// always PPM: clearing prices are the routing signal, so a price-less
// governor has no place in the fleet. trc is the board's trace buffer
// (nil when tracing is detached). epoch is the restart epoch: 0 for the
// original boot (seed stream unchanged from the pre-failure-domain
// fleet, keeping old replay digests valid), ≥ 1 for a supervised
// restart, which derives a fresh epoch-namespaced seed so the reborn
// board's randomness never replays the timeline that crashed.
func newBoard(id int, cfg Config, trc *trace.Buffer, epoch int) (*Board, error) {
	seed := sim.DeriveSeed(cfg.Seed, uint64(id))
	if epoch > 0 {
		seed = sim.DeriveSeed(sim.DeriveSeed(cfg.Seed, restartSeedStream+uint64(epoch)), uint64(id))
	}
	b := &Board{
		ID:    id,
		Seed:  seed,
		epoch: epoch,
		p:     platform.NewTC2(),
		// Bounded skew queues up to MaxSkew+1 step commands on a board
		// that is running behind, plus one control command (drain /
		// resume / stop); the buffer keeps the fleet's issue path from
		// blocking on a slow board.
		cmd:  make(chan interface{}, cfg.MaxSkew+2),
		done: make(chan struct{}),
	}
	pcfg := ppm.DefaultConfig(cfg.TDP)
	pcfg.Profiles = exp.WorkloadProfiles
	b.gov = ppm.New(pcfg)
	b.p.SetGovernor(b.gov)

	// Each board owns a registry so /metrics can expose per-board series
	// under a board label. The emitter carries no sinks and a zero kind
	// mask: the fleet wants the registry's direct counters (ticks, market
	// rounds, throttles, sensor rejects), not N boards' event streams.
	// With tracing on, a capture sink collects the low-volume lifecycle
	// kinds for the board's trace timeline — the per-round kinds stay
	// masked so the bid/route hot loops remain untouched.
	if trc != nil {
		b.trc = trc
		b.capture = &captureSink{}
		b.traceOf = make(map[*task.Task]trace.ID)
		b.histStep = metrics.NewLog(1000, 2, 26) // 1µs .. ~34s wall per step
		b.em = telemetry.NewEmitter(telemetry.NewRegistry(), b.capture)
		b.em.SetKinds(traceCaptureKinds)
	} else {
		b.em = telemetry.NewEmitter(telemetry.NewRegistry())
		b.em.SetKinds(0)
	}
	b.p.AttachTelemetry(b.em)

	maxOver := 0
	if sc, ok := cfg.Faults[id]; ok {
		sc.Seed = b.Seed
		geo := b.p.Chip
		if err := sc.Validate(len(geo.Clusters), len(geo.Cores)); err != nil {
			return nil, fmt.Errorf("fleet: board %d fault scenario: %w", id, err)
		}
		b.inj = fault.NewInjector(sc)
		b.p.AttachFaults(b.inj)
		maxOver = faultMaxOverRounds
		if sc.HasBoardFaults() {
			// Board-level faults (crash / stall) are consulted once per
			// step command against the batch barrier number; the platform
			// injector skips them.
			scc := sc
			b.bsc = &scc
		}
	}
	if cfg.Check {
		b.chk = check.New(check.Options{
			Market:        b.gov.Market(),
			TDP:           cfg.TDP,
			MaxOverRounds: maxOver,
		})
		b.p.AttachChecker(b.chk)
	}
	if cfg.Record {
		name := fmt.Sprintf("board-%d", id)
		if epoch > 0 {
			name = fmt.Sprintf("board-%d.r%d", id, epoch)
		}
		b.rec = check.NewRecorder(name, b.Seed, "fleet",
			check.RecorderOptions{Market: b.gov.Market()})
		b.p.AttachChecker(b.rec)
	}
	if trc != nil {
		// The observer rides the existing per-tick checker hook: one round
		// comparison per tick, span work only on round boundaries and task
		// completions — nothing on the bid/route loops.
		b.obs = &boardObserver{
			b:             b,
			m:             b.gov.Market(),
			histRound:     metrics.NewLog(1, 2, 16),  // 1ms .. ~33s virtual
			histResidency: metrics.NewLog(10, 2, 20), // 10ms .. ~3h virtual
		}
		b.p.AttachChecker(b.obs)
	}

	for _, c := range b.p.Chip.Cores {
		if c.Type() == hw.Little {
			b.little = append(b.little, c.ID)
		}
	}
	if len(b.little) == 0 {
		b.little = []int{0}
	}

	go b.loop()
	return b, nil
}

// faultMaxOverRounds relaxes the checker's tdp-settled tolerance on
// fault-injected boards, matching ppmsim: a refused down-step or a stuck
// sensor legitimately pins smoothed power above the slack band for the
// length of the fault window.
const faultMaxOverRounds = 64

// loop is the board goroutine: it owns every mutable field of the board
// and executes fleet commands in arrival order. Every command is
// answered even after a crash — the barrier pipeline must never block
// on a dead board.
func (b *Board) loop() {
	defer close(b.done)
	for raw := range b.cmd {
		switch c := raw.(type) {
		case stepCmd:
			c.reply <- b.step(c)
		case drainCmd:
			if b.crashed {
				// Nothing to evacuate: the supervisor already owns the
				// crashed board's work via the checkpoint.
				c.reply <- nil
			} else {
				c.reply <- b.evacuate()
			}
		case resumeCmd:
			b.draining = false
			close(c.reply)
		case stopCmd:
			close(c.reply)
			return
		}
	}
}

// step executes one barrier command with the board's failure domain
// around it: a crashed board answers terminally, a stalling board
// defers the batch behind a sentinel reply, and any panic — injected
// board-crash or real bug — is recovered into the terminal crashed
// state instead of killing the goroutine (which would deadlock
// collectTo forever on this board's reply channel).
func (b *Board) step(c stepCmd) (r stepReply) {
	if b.crashed {
		return stepReply{crashed: true, ckpt: b.ckpt, err: b.crashErr}
	}
	if b.bsc != nil && b.bsc.StallsAt(b.ID, c.batch) {
		// Withhold the real reply: hold the batch for catch-up and answer
		// with the sentinel so the barrier still completes. The fleet
		// keeps these assignments in flight (stall-pending) and
		// quarantines the board after Config.StallBarriers misses.
		b.deferred = append(b.deferred, deferredBatch{subs: c.subs, mine: c.mine, d: c.d, batch: c.batch})
		return stepReply{stalled: true}
	}
	defer func() {
		if p := recover(); p != nil {
			r = b.recoverCrash(c.batch, p)
		}
	}()
	var w0 time.Time
	if b.trc != nil {
		w0 = time.Now()
	}
	// Catch up deferred (stalled) batches first, in barrier order, then
	// run the current one: the board's virtual timeline replays exactly
	// the batches it was issued, so replay digests stay bit-identical.
	for _, dd := range b.deferred {
		b.runBatch(dd.subs, dd.mine, dd.d, dd.batch)
	}
	b.deferred = nil
	b.runBatch(c.subs, c.mine, c.d, c.batch)
	r = stepReply{snap: b.snapshot(c.batch)}
	if b.trc != nil {
		// Per-round fold: drain the batch's captured lifecycle events
		// (including any caught-up batches'), sort into the total content
		// order, so the digest depends on what was emitted rather than
		// the order the layers emitted it in, and fold them as timeline
		// points. Wall-clock step time goes only to
		// the histogram, never the digest.
		b.histStep.Record(float64(time.Since(w0).Nanoseconds()))
		evs := b.capture.drain()
		sortEvents(evs)
		for _, ev := range evs {
			b.trc.Mark(trace.Point{
				Kind:  ev.Kind.String(),
				Board: b.ID,
				Time:  ev.Time,
				Class: ev.Class,
				Value: ev.Value,
			})
		}
		r.events = evs
	}
	if b.chk != nil {
		r.err = b.chk.Err()
	}
	// Fold the restart image after the step fully succeeded: a crash at
	// barrier n orphans from the barrier n-1 image plus the fleet-side
	// ledgers, never from a half-run barrier.
	b.ckpt = b.foldCheckpoint(c.batch)
	return r
}

// runBatch is one batch of board work: the injected-crash gate, the
// placement of the barrier's assignments, and the platform run.
func (b *Board) runBatch(subs []Submission, mine []int32, d sim.Time, batch int) {
	if b.bsc != nil && b.bsc.CrashesAt(b.ID, batch) {
		panic(fmt.Sprintf("fault: board-crash injected at barrier %d", batch))
	}
	b.place(subs, mine)
	b.p.Run(d)
	if b.rec != nil {
		// Fold the barrier counter and assignment count into the replay
		// trace: under bounded skew a run is bit-identical only if every
		// batch of work landed on the same barrier, so the counters must
		// be part of the digest chain, not just the market samples.
		b.rec.Record(uint64(batch)<<20 | uint64(len(mine)))
	}
}

// recoverCrash turns a step panic into the terminal crashed state: the
// board's open residency spans close attributed to the crash (in trace
// ID order — map iteration order must never reach a digest), buffered
// capture is dropped, and every future command gets an immediate
// crashed reply carrying the last good checkpoint.
func (b *Board) recoverCrash(batch int, cause interface{}) stepReply {
	b.crashed = true
	b.crashErr = fmt.Errorf("board %d panicked at barrier %d: %v", b.ID, batch, cause)
	b.deferred = nil // the fleet's stall-pending ledger owns this work now
	if b.trc != nil {
		now := b.p.Now()
		ids := make([]trace.ID, 0, len(b.traceOf))
		for _, id := range b.traceOf {
			if id != 0 {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			b.trc.CloseAttributed(id, trace.StageBoard, now, "crash")
		}
		b.traceOf = make(map[*task.Task]trace.ID)
		b.capture.drain() // the dead batch's events never reach the fold
		if b.obs != nil {
			b.obs.watch = b.obs.watch[:0]
		}
	}
	return stepReply{crashed: true, ckpt: b.ckpt, err: b.crashErr}
}

// foldCheckpoint builds and encodes the board's restart image: every
// resident task spec with its trace ID, plus the market/governor
// restart position (barrier, round, virtual time, placement cursor,
// seed). Runs on the board goroutine after a successful step, so the
// platform state it reads is a consistent barrier boundary.
func (b *Board) foldCheckpoint(batch int) []byte {
	tasks := b.p.Tasks()
	ck := &Checkpoint{
		Board: b.ID,
		Epoch: b.epoch,
		Batch: batch,
		Round: b.gov.Market().Round(),
		Time:  b.p.Now(),
		RR:    b.rr,
		Seed:  b.Seed,
		Tasks: make([]CheckpointTask, 0, len(tasks)),
	}
	for _, t := range tasks {
		ck.Tasks = append(ck.Tasks, CheckpointTask{Spec: t.Spec, Trace: b.traceOf[t]})
	}
	return ck.Encode()
}

// place boots the board's share of the barrier batch on the LITTLE
// cluster round-robin (the paper's Linux boots tasks there; the governor
// migrates them as the market dictates). The dispatcher hands every board
// the shared submission slice plus its pick-index list, so placement
// copies nothing. The cursor persists across batches so successive
// arrivals spread.
func (b *Board) place(subs []Submission, mine []int32) {
	now := b.p.Now()
	for _, si := range mine {
		t := b.p.AddTask(subs[si].Spec, b.little[b.rr%len(b.little)])
		b.rr++
		if b.trc == nil || subs[si].Trace == 0 {
			continue
		}
		// Open the residency span on the board's own buffer (single
		// writer); the observer closes it on completion, evacuate on
		// drain. Looping tasks never finish, so only finite tasks join
		// the completion watch list.
		id := subs[si].Trace
		b.traceOf[t] = id
		b.trc.Open(trace.Span{Trace: id, Stage: trace.StageBoard, Board: b.ID, Start: now})
		if !t.Spec.Loop {
			b.obs.watch = append(b.obs.watch, watchedTask{t: t, id: id, placed: now})
		}
	}
}

// evacuate removes every task from the board and returns their specs so
// the fleet can resubmit them through the dispatcher. The board keeps
// ticking while drained — an empty market settles to idle — and marks
// itself draining so no new work is routed to it.
func (b *Board) evacuate() []evacuated {
	b.draining = true
	now := b.p.Now()
	tasks := append([]*task.Task(nil), b.p.Tasks()...)
	out := make([]evacuated, 0, len(tasks))
	for _, t := range tasks {
		e := evacuated{spec: t.Spec}
		if id := b.traceOf[t]; id != 0 {
			// The residency span ends here, attributed to the drain; the
			// fleet reopens a queue span under the same trace ID when it
			// requeues the spec.
			e.id = id
			b.trc.CloseAttributed(id, trace.StageBoard, now, "drain")
			delete(b.traceOf, t)
		}
		out = append(out, e)
		b.p.RemoveTask(t)
	}
	if b.obs != nil {
		b.obs.watch = b.obs.watch[:0] // every watched task just left the board
	}
	return out
}

// snapshot publishes the board's routing signal at a batch barrier.
func (b *Board) snapshot(batch int) Snapshot {
	m := b.gov.Market()
	var sum float64
	var n int
	for _, cl := range m.Clusters {
		for _, c := range cl.Cores {
			sum += c.Price()
			n++
		}
	}
	price := 0.0
	if n > 0 {
		price = sum / float64(n)
	}
	st := b.p.Stats()
	return Snapshot{
		Board:       b.ID,
		Epoch:       b.epoch,
		Time:        b.p.Now(),
		Batch:       batch,
		Round:       m.Round(),
		Price:       price,
		PowerW:      st.PowerW,
		SmoothedW:   m.SmoothedPower(),
		WthW:        m.EffectiveWth(),
		WtdpW:       m.EffectiveWtdp(),
		State:       m.State().String(),
		Degraded:    m.Degraded(),
		Draining:    b.draining,
		Tasks:       st.Tasks,
		DemandPU:    m.TotalDemand(),
		SupplyPU:    m.TotalSupply(),
		MaxSupplyPU: b.p.MaxSupplyPU(),
		Clusters:    st.Clusters,
	}
}

// watchedTask is one finite task awaiting completion detection.
type watchedTask struct {
	t      *task.Task
	id     trace.ID
	placed sim.Time
}

// boardObserver is the traced board's per-tick hook (platform.Checker):
// it turns market-round boundaries into StageRound spans + the round
// histogram, and closes residency spans the tick a finite task finishes —
// tick-granular virtual timestamps, no market-loop instrumentation. Runs
// on the board goroutine inside p.Run, so it may touch board-owned state.
type boardObserver struct {
	b *Board
	m *core.Market

	lastRound  int
	roundStart sim.Time
	watch      []watchedTask

	histRound     *metrics.Histogram // virtual ms per market round
	histResidency *metrics.Histogram // virtual ms placement → completion
}

func (o *boardObserver) CheckTick(p *platform.Platform, now sim.Time) {
	if r := o.m.Round(); r != o.lastRound {
		o.b.trc.Add(trace.Span{
			Stage: trace.StageRound,
			Board: o.b.ID,
			Start: o.roundStart,
			End:   now,
			Round: r,
		})
		o.histRound.Record(float64(now-o.roundStart) / float64(sim.Millisecond))
		o.lastRound = r
		o.roundStart = now
	}
	if len(o.watch) == 0 {
		return
	}
	kept := o.watch[:0]
	for _, w := range o.watch {
		if !w.t.Finished() {
			kept = append(kept, w)
			continue
		}
		o.b.trc.Close(w.id, trace.StageBoard, now, "completed")
		o.histResidency.RecordExemplar(float64(now-w.placed)/float64(sim.Millisecond), uint64(w.id))
		delete(o.b.traceOf, w.t)
	}
	o.watch = kept
}

// Registry exposes the board's telemetry registry for /metrics merging.
func (b *Board) Registry() *telemetry.Registry { return b.em.Registry() }

// Trace returns the board's replay trace (nil unless Config.Record).
func (b *Board) Trace() *check.Trace {
	if b.rec == nil {
		return nil
	}
	return b.rec.Trace()
}

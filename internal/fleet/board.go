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

	little []int // LITTLE core IDs, placement targets
	rr     int   // persistent round-robin cursor over little

	// completed counts the tasks that finished and were retired on this
	// board, cumulative across restart epochs (a restarted board resumes
	// from its crashed predecessor's checkpoint). Snapshot and Checkpoint
	// publish it; the fleet's conservation ledger reads it from there.
	completed int

	// Board failure domain (see DESIGN.md §12). bsc is the board-level
	// fault schedule (nil without board faults); crashed flips on panic
	// recovery and is terminal for this epoch — the board answers every
	// later command with a crashed reply so the barrier pipeline never
	// deadlocks on it. img is the restart image, refolded in place at
	// the end of every successful step (and after a drain); nil before
	// the first. A crash freezes it into a copy of its own, which every
	// crashed reply carries to the supervisor; a crashed board never
	// refolds it. deferred holds stalled batches until the stall window
	// closes.
	bsc      *fault.Scenario
	crashed  bool
	crashErr error
	img      *Checkpoint
	deferred []stepCmd

	// Causal tracing (nil when Config.Trace is off — the zero-cost
	// detached state). All fields are owned by the board goroutine; trc's
	// own mutex covers the HTTP layer's concurrent reads.
	trc           *trace.Buffer
	capture       *captureSink
	obs           *boardObserver
	traceOf       map[*task.Task]residency
	histStep      *telemetry.Histogram // wall ns per batch step (place + run)
	histResidency *telemetry.Histogram // virtual ms placement → completion

	cmd     chan boardCmd
	replies chan stepReply // step replies, in barrier order
	done    chan struct{}
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

// stepCmd is one barrier's work for a board. A stalling board holds its
// step commands: they run, in order, at the first barrier past the stall
// window (or die with the board, in which case the fleet's stall-pending
// ledger recovers the work).
type stepCmd struct {
	subs  []Submission // the barrier's full submission batch (shared, read-only)
	mine  []int32      // indexes into subs placed (in order) before the batch runs
	d     sim.Time     // batch length of virtual time
	batch int
	// rows is storage for the reply snapshot's per-cluster rows (nil
	// allocates): rows of a snapshot the fleet no longer publishes, so
	// the board is their only user until its reply hands them back.
	rows []platform.ClusterStats
}

// cmdOp names a board command.
type cmdOp uint8

const (
	opStep cmdOp = iota
	opDrain
	opStop
)

// boardCmd is one fleet command. It travels by value on a typed channel,
// so issuing a barrier allocates nothing; step replies come back on the
// board's own replies channel.
type boardCmd struct {
	op   cmdOp
	step stepCmd           // opStep
	evac chan []Submission // opDrain: the evacuated tasks, in placement order
}

type stepReply struct {
	// batch is the barrier the reply answers. The fleet reads a board's
	// replies in barrier order and drops any older than the barrier it
	// collects: the late reply of a barrier abandoned by a LivenessError.
	batch int
	snap  Snapshot
	err   error // first invariant violation, when checking is on

	// crashed marks a terminal reply from a dead board: no snapshot —
	// just the restart image of the last successful step, for the
	// supervisor to orphan from. The board keeps answering so the
	// pipeline never blocks on it. stalled marks a withheld step
	// (board-stall fault): the batch was deferred board-side and the
	// fleet keeps its assignments in flight until the board catches up
	// or crashes.
	crashed bool
	stalled bool
	img     *Checkpoint // frozen restart image (crashed replies only)
}

// residency is a traced task's open board span: its trace ID and the
// virtual time it was placed.
type residency struct {
	id     trace.ID
	placed sim.Time
}

// newBoard assembles one board from the fleet config. The governor is
// always PPM: clearing prices are the routing signal, so a price-less
// governor has no place in the fleet. trc is the board's trace buffer
// (nil when tracing is detached). epoch is the restart epoch: 0 for the
// original boot (seed stream unchanged from the pre-failure-domain
// fleet, keeping old replay digests valid), ≥ 1 for a supervised
// restart, which derives a fresh epoch-namespaced seed so the reborn
// board's randomness never replays the timeline that crashed. completed
// is the completion count the board resumes from (its crashed
// predecessor's checkpoint; 0 at boot).
func newBoard(id int, cfg Config, trc *trace.Buffer, epoch, completed int) (*Board, error) {
	seed := sim.DeriveSeed(cfg.Seed, uint64(id))
	if epoch > 0 {
		seed = sim.DeriveSeed(sim.DeriveSeed(cfg.Seed, restartSeedStream+uint64(epoch)), uint64(id))
	}
	b := &Board{
		ID:        id,
		Seed:      seed,
		epoch:     epoch,
		completed: completed,
		p:         platform.NewTC2(),
		// Bounded skew queues up to MaxSkew+1 step commands on a board
		// that is running behind, plus one control command (drain or
		// stop); the buffer keeps the fleet's issue path from
		// blocking on a slow board. The replies buffer holds the same
		// MaxSkew+1 uncollected barriers plus one late reply of a barrier
		// a LivenessError abandoned, so the board never blocks on a send.
		cmd:     make(chan boardCmd, cfg.MaxSkew+2),
		replies: make(chan stepReply, cfg.MaxSkew+2),
		done:    make(chan struct{}),
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
		b.traceOf = make(map[*task.Task]residency)
		reg := telemetry.NewRegistry()
		b.histStep = reg.Histogram("pricepower_board_step_wall_ns",
			"Wall-clock board step time per barrier (ns).", 1000, 2, 26) // 1µs .. ~34s wall per step
		b.histResidency = reg.Histogram("pricepower_board_task_residency_ms",
			"Virtual placement-to-completion time (ms), with trace exemplars.", 10, 2, 20) // 10ms .. ~3h virtual
		b.em = telemetry.NewEmitter(reg, b.capture)
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
		if sc.HasPlatformFaults() {
			// A scenario of board- and region-level faults only gets no
			// injector: every hook would be the identity, and an
			// attached injector keeps the platform off steady spans.
			b.p.AttachFaults(fault.NewInjector(sc))
		}
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
		// The observer acts only on market-round boundaries, which the
		// governor makes on singly stepped ticks: as a round observer it
		// runs on those ticks (one round comparison each) and leaves the
		// platform's steady spans enabled — nothing on the bid/route loops.
		b.obs = &boardObserver{
			b: b,
			m: b.gov.Market(),
		}
		b.obs.histRound = b.Registry().Histogram("pricepower_board_round_ms",
			"Virtual market-round duration (ms).", 1, 2, 16) // 1ms .. ~33s virtual
		b.p.AttachRoundObserver(b.obs)
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
	for c := range b.cmd {
		switch c.op {
		case opStep:
			b.replies <- b.step(c.step)
		case opDrain:
			if b.crashed {
				// Nothing to evacuate: the supervisor already owns the
				// crashed board's work via the checkpoint.
				c.evac <- nil
			} else {
				c.evac <- b.evacuate()
			}
		case opStop:
			return
		}
	}
}

// drain evacuates the board (see evacuate) and returns the evacuated
// tasks; a crashed board returns none.
func (b *Board) drain() []Submission {
	evac := make(chan []Submission, 1)
	b.cmd <- boardCmd{op: opDrain, evac: evac}
	return <-evac
}

// stop ends the board goroutine after every command queued before it.
func (b *Board) stop() {
	b.cmd <- boardCmd{op: opStop}
	<-b.done
}

// step executes one barrier command with the board's failure domain
// around it: a crashed board answers terminally, a stalling board
// defers the batch behind a sentinel reply, and any panic — injected
// board-crash or real bug — is recovered into the terminal crashed
// state instead of killing the goroutine (which would deadlock
// collectTo forever on this board's reply channel).
func (b *Board) step(c stepCmd) (r stepReply) {
	if b.crashed {
		return stepReply{batch: c.batch, crashed: true, img: b.img, err: b.crashErr}
	}
	if b.bsc != nil && b.bsc.StallsAt(b.ID, c.batch) {
		// Withhold the real reply: hold the batch for catch-up and answer
		// with the sentinel so the barrier still completes. The fleet
		// keeps these assignments in flight (stall-pending) and
		// quarantines the board after stallBarriers misses.
		b.deferred = append(b.deferred, c)
		return stepReply{batch: c.batch, stalled: true}
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
	r = stepReply{batch: c.batch, snap: b.snapshot(c.batch, c.rows)}
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
	}
	if b.chk != nil {
		r.err = b.chk.Err()
	}
	// Fold the restart image after the step fully succeeded: a crash at
	// barrier n orphans from the barrier n-1 image plus the fleet-side
	// ledgers, never from a half-run barrier.
	b.foldImage(c.batch)
	return r
}

// runBatch is one batch of board work: the injected-crash gate, the
// placement of the barrier's assignments, the platform run, and the
// retirement of the tasks that finished during it.
func (b *Board) runBatch(subs []Submission, mine []int32, d sim.Time, batch int) {
	if b.bsc != nil && b.bsc.CrashesAt(b.ID, batch) {
		panic(fmt.Sprintf("fault: board-crash injected at barrier %d", batch))
	}
	b.place(subs, mine)
	b.p.Run(d)
	b.retire()
	if b.rec != nil {
		// Fold the barrier counter and assignment count into the replay
		// trace: under bounded skew a run is bit-identical only if every
		// batch of work landed on the same barrier, so the counters must
		// be part of the digest chain, not just the market samples.
		b.rec.Record(uint64(batch)<<20 | uint64(len(mine)))
	}
}

// retire removes the tasks that finished during the batch, in finish
// order — the paper's task exit (§2): the platform drops the task's
// run-queue entity, the governor drops its record and market agent at its
// next round, and the task leaves the checkpoint. A traced task's board
// span closes as completed at its finish tick. The count joins the
// board's completed total, which the fleet ledger reads. Completions in a
// batch that later crashes die with the board: the supervisor orphans the
// tasks from the previous checkpoint, which still holds them.
func (b *Board) retire() {
	done := b.p.TakeFinished()
	if len(done) == 0 {
		return
	}
	if b.trc != nil {
		for _, t := range done {
			r, ok := b.traceOf[t]
			if !ok {
				continue
			}
			end := t.FinishedAt()
			b.trc.Close(r.id, trace.StageBoard, end, "completed")
			b.histResidency.RecordExemplar(float64(end-r.placed)/float64(sim.Millisecond), uint64(r.id))
			delete(b.traceOf, t)
		}
	}
	b.p.RemoveTasks(done...)
	b.completed += len(done)
}

// recoverCrash turns a step panic into the terminal crashed state: the
// board's open residency spans close attributed to the crash (in trace
// ID order — map iteration order must never reach a digest), buffered
// capture is dropped, and every future command gets an immediate
// crashed reply carrying the last good restart image, frozen here in a
// copy of its own so no reply aliases the storage folds reuse.
func (b *Board) recoverCrash(batch int, cause interface{}) stepReply {
	b.crashed = true
	b.crashErr = fmt.Errorf("board %d panicked at barrier %d: %v", b.ID, batch, cause)
	b.img = b.img.clone()
	b.deferred = nil // the fleet's stall-pending ledger owns this work now
	if b.trc != nil {
		now := b.p.Now()
		ids := make([]trace.ID, 0, len(b.traceOf))
		for _, r := range b.traceOf {
			ids = append(ids, r.id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			b.trc.CloseAttributed(id, trace.StageBoard, now, "crash")
		}
		b.traceOf = make(map[*task.Task]residency)
		b.capture.drain() // the dead batch's events never reach the fold
	}
	return stepReply{batch: batch, crashed: true, img: b.img, err: b.crashErr}
}

// foldImage refolds the board's restart image in place: every resident
// task spec with its trace ID (finished tasks were retired at the end of
// their batch, so none is resident) and the completed count, stamped with
// the barrier. Runs on the board goroutine after a successful step, so
// the platform state it reads is a consistent barrier boundary. The image
// keeps its task storage across folds and holds spec values, whose name
// and phase storage is immutable and shared with the tasks: a fold
// allocates nothing once the storage has grown to the board's peak
// residency, and the image pins no task.
func (b *Board) foldImage(batch int) {
	var tasks []CheckpointTask
	if b.img == nil {
		b.img = &Checkpoint{}
	} else {
		tasks = b.img.Tasks[:0]
	}
	for _, t := range b.p.Tasks() {
		tasks = append(tasks, CheckpointTask{Spec: t.Spec, Trace: b.traceOf[t].id})
	}
	*b.img = Checkpoint{Batch: batch, Completed: b.completed, Tasks: tasks}
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
		// writer); retire closes it on completion, evacuate on drain.
		id := subs[si].Trace
		b.traceOf[t] = residency{id: id, placed: now}
		b.trc.Open(trace.Span{Trace: id, Stage: trace.StageBoard, Board: b.ID, Start: now})
	}
}

// evacuate removes every resident task from the board and returns them
// as submissions so the fleet can route them again. Finished tasks were
// retired at the end of their batch, so none is evacuated and re-run. The
// board keeps ticking while drained — an empty market settles to idle;
// the fleet's lifecycle record marks it draining so no new work is routed
// to it. The restart image is refolded empty of the evacuated tasks: they
// are the fleet's to place now, and a crash before the next barrier must
// not orphan them a second time.
func (b *Board) evacuate() []Submission {
	now := b.p.Now()
	tasks := append([]*task.Task(nil), b.p.Tasks()...)
	out := make([]Submission, 0, len(tasks))
	for _, t := range tasks {
		s := NewSubmission(t.Spec)
		if r, ok := b.traceOf[t]; ok {
			// The residency span ends here, attributed to the drain; the
			// fleet reopens a queue span under the same trace ID when it
			// requeues the task.
			s.Trace = r.id
			b.trc.CloseAttributed(r.id, trace.StageBoard, now, "drain")
			delete(b.traceOf, t)
		}
		out = append(out, s)
	}
	b.p.RemoveTasks(tasks...)
	if b.img != nil {
		b.foldImage(b.img.Batch)
	}
	return out
}

// snapshot publishes the board's routing signal at a batch barrier, its
// per-cluster rows written into rows' storage.
func (b *Board) snapshot(batch int, rows []platform.ClusterStats) Snapshot {
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
	st := b.p.Stats(rows)
	return Snapshot{
		Board:       b.ID,
		Epoch:       b.epoch,
		Time:        b.p.Now(),
		Batch:       batch,
		Round:       m.Round(),
		Price:       price,
		PowerW:      st.PowerW,
		SmoothedW:   m.SmoothedPower(),
		EnergyJ:     st.EnergyJ,
		WthW:        m.EffectiveWth(),
		WtdpW:       m.EffectiveWtdp(),
		State:       m.State().String(),
		Degraded:    m.Degraded(),
		Tasks:       st.Tasks,
		Completed:   b.completed,
		DemandPU:    m.TotalDemand(),
		SupplyPU:    m.TotalSupply(),
		MaxSupplyPU: b.p.MaxSupplyPU(),
		Clusters:    st.Clusters,
	}
}

// boardObserver is the traced board's round observer
// (Platform.AttachRoundObserver): it turns market-round boundaries into
// StageRound spans + the round histogram — tick-granular virtual
// timestamps, no market-loop instrumentation. Runs on the board goroutine
// inside p.Run, so it may touch board-owned state.
type boardObserver struct {
	b *Board
	m *core.Market

	lastRound  int
	roundStart sim.Time

	histRound *telemetry.Histogram // virtual ms per market round
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

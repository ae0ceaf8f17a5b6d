package fleet

import (
	"fmt"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// boardState is a board's place in the fleet's lifecycle (DESIGN.md §12).
// The order matters: from stStalled on a board republishes a stale
// snapshot, and from stCrashed on the crash supervisor owns its work.
type boardState uint8

const (
	stLive        boardState = iota // stepping, routed per its snapshot
	stDraining                      // evacuated; takes no work until resumed
	stStalled                       // withholding replies; deferred batches pinned in flight
	stCrashed                       // dead; the restart backoff is running
	stRestarting                    // dead; the restart op waits for a flushed pipeline
	stQuarantined                   // retired for good; its orphans are re-placed
)

// supervised reports whether the crash supervisor owns the board.
func (s boardState) supervised() bool { return s >= stCrashed }

// boardRec is one board's lifecycle record. Every field is written under
// f.mu: orphans and stallCarry are ledger terms HTTP readers derive.
type boardRec struct {
	state boardState
	// drained is the drain mark (Snapshot.Draining). It outlives a stall
	// or a crash: a drained board that stalls is still drained. manual is
	// the operator's drain: set by Drain and cleared only by Resume, so
	// neither the cooldown machine nor a restart undoes it.
	drained, manual bool

	// Drain cooldown (Config.DrainDegradedAfter): consecutive degraded
	// barriers; healthy barriers while auto-drained; auto-drains since the
	// cooldown last reset; the healthy barriers the next resume needs;
	// trusted barriers since the last resume; and whether an auto-drain
	// awaits its resume.
	degraded, healthy, drains, cooldown, sinceResume int

	auto bool

	// Stall detector: consecutive withheld replies, the deferred batches'
	// submissions (the recovery set if the board crashes), and their
	// projected load, pinned in flight while the stall lasts.
	stallMiss    int
	stallPending []Submission
	stallCarry   projCarry

	// Crash supervisor: restart epoch, supervised restarts (the backoff
	// attempt), detection barrier, the barrier the restart is due, and the
	// recovered work held until a restart or replace op re-places it.
	epoch, restarts, crashedAt, restartAt int

	orphans []Submission
}

// settle puts a board that is neither stalled nor dead in the state its
// drain mark says.
func (r *boardRec) settle() {
	r.state = stLive
	if r.drained {
		r.state = stDraining
	}
}

// mark stamps the record's lifecycle onto a snapshot about to publish.
func (r *boardRec) mark(s *Snapshot, stallBarriers int) {
	s.Draining = r.drained
	s.Stalled = r.state == stStalled && r.stallMiss >= stallBarriers
	s.Crashed = r.state.supervised()
}

// refuse is the supervisor's claim on a dead board: a manual drain or
// resume of a crashed, restarting or quarantined board is refused. A
// deferred drain or resume is not refused but moot.
func (r *boardRec) refuse(i int, kind evKind) error {
	switch {
	case !r.state.supervised():
	case kind == evDrain:
		return fmt.Errorf("fleet: board %d crashed; the supervisor owns its work", i)
	case kind == evResume:
		return fmt.Errorf("fleet: board %d crashed; resume waits on the supervisor", i)
	}
	return nil
}

// evKind is one input to a board's lifecycle. The ops a barrier defers to
// the flushed pipeline are events too: replace, restarted, and the auto
// drains and resume.
type evKind uint8

const (
	evNone          evKind = iota
	evHealthy              // real step reply, sensors healthy
	evDegraded             // real step reply, Degraded bit set
	evStall                // stall sentinel
	evCatchup              // first real reply after a stall
	evCrash                // crashed reply
	evRestartDue           // a collected barrier, checked against the restart backoff
	evRestarted            // the restart op booted a fresh board
	evRestartFailed        // the restart op could not boot one
	evReplace              // the replace op re-places a quarantined board's orphans
	evAutoDrain            // the cooldown machine's first drain
	evAutoRedrain          // a drain beyond the first since the cooldown reset
	evAutoResume           // the cooldown machine's resume
	evDrain                // manual Drain
	evResume               // manual Resume
)

// drainClass names each drain and resume kind's KindDrain event.
var drainClass = [...]string{evAutoDrain: "drain", evAutoRedrain: "redrain",
	evAutoResume: "resume", evDrain: "manual-drain", evResume: "manual-resume"}

// event is an evKind with its inputs: the collected barrier, the board's
// share of it (stall and crash replies) and, at a first crash detection,
// the checkpoint's residents.
type event struct {
	kind            evKind
	barrier         int
	add             projCarry
	subs, recovered []Submission
}

// outcome is what a transition asks of its caller: an op to defer to the
// flushed pipeline, lifecycle events to emit once f.mu is released (the
// emitter's clock takes it), orphans released for re-placement, or a
// manual command's refusal.
type outcome struct {
	op      evKind
	notes   []telemetry.Event
	release []Submission
	err     error
}

// apply is the board lifecycle's one transition function: it moves board
// i's record through ev and returns what the move asks of the caller,
// who holds f.mu. Board effects (evacuating, booting a successor) stay
// with the caller; apply keeps the record, the board's routing carry and
// the fleet counters. An event the state cannot receive (a live reply
// from a dead board, a restart of a board not restarting) changes
// nothing.
func (f *Fleet) apply(i int, ev event) (out outcome) {
	r, c := &f.recs[i], &f.carry[i]
	note := func(kind telemetry.Kind, class string, value float64) {
		e := telemetry.E(kind)
		e.Name, e.Class, e.Value = fmt.Sprintf("board-%d", i), class, value
		out.notes = append(out.notes, e)
	}
	release := func() {
		out.release, r.orphans = r.orphans, nil
		f.counters.Replaced += uint64(len(out.release))
	}
	switch ev.kind {
	case evHealthy, evDegraded:
		if r.state > stDraining || r.manual {
			// Silent or dead boards republish stale snapshots; their
			// Degraded bit is old news, and draining them is the
			// supervisor's job, not the sensor-health path's. A manually
			// drained board is the operator's until Resume.
			r.degraded, r.healthy = 0, 0
			break
		}
		bad := ev.kind == evDegraded
		if bad {
			r.degraded++
			r.healthy = 0
		} else {
			r.degraded = 0
			if r.auto {
				r.healthy++
			}
		}
		// Cooldown decay: surviving twice the last cooldown after a
		// resume earns the exponential counter back. Only trusted
		// (non-degraded) barriers count as surviving.
		if !r.auto && r.drains > 0 && !bad {
			r.sinceResume++
			if r.sinceResume >= 2*r.cooldown {
				r.drains = 0
			}
		}
		switch {
		case !r.auto && r.degraded >= f.cfg.DrainDegradedAfter:
			r.auto, r.healthy = true, 0
			r.cooldown = f.backoffBarriers(f.cfg.DrainDegradedAfter, drainSeedStream+uint64(i), r.drains)
			r.drains++
			r.sinceResume = 0
			out.op = evAutoDrain
			if r.drains > 1 {
				out.op = evAutoRedrain
			}
		case r.auto && r.healthy >= r.cooldown:
			r.auto, r.healthy, r.sinceResume = false, 0, 0
			out.op = evAutoResume
		}

	case evStall:
		if r.state.supervised() {
			break
		}
		// The board holds the batch for catch-up: its assignment stays
		// pinned in flight and its submissions join the recovery set.
		c.add(ev.add)
		r.stallCarry.add(ev.add)
		r.stallPending = append(r.stallPending, ev.subs...)
		r.stallMiss++
		r.state = stStalled
		if r.stallMiss == f.cfg.StallBarriers {
			f.counters.Stalls++
			note(telemetry.KindBoard, "stall", float64(r.stallMiss))
		}

	case evCatchup:
		if r.state.supervised() {
			break
		}
		// The caught-up snapshot already counts the deferred batches'
		// tasks as live, so the pinned carry unwinds here, exactly once.
		c.sub(r.stallCarry)
		if r.stallMiss >= f.cfg.StallBarriers {
			note(telemetry.KindBoard, "catch-up", float64(r.stallMiss))
		}
		r.stallMiss, r.stallPending, r.stallCarry = 0, nil, projCarry{}
		r.settle()

	case evCrash:
		held := len(r.orphans)
		r.orphans = append(r.orphans, ev.subs...)
		if !r.state.supervised() {
			// First detection this epoch. The stall ledger's deferrals
			// died with the board: unpin their carry and orphan them,
			// then the checkpoint's residents.
			r.crashedAt = ev.barrier
			f.counters.Crashes++
			note(telemetry.KindBoard, "crash", float64(ev.barrier))
			r.orphans = append(r.orphans, r.stallPending...)
			c.sub(r.stallCarry)
			r.stallMiss, r.stallPending, r.stallCarry = 0, nil, projCarry{}
			r.orphans = append(r.orphans, ev.recovered...)
			// Schedule the resurrection, or retire the board for good. The
			// delay's jitter lane sits 0x8000 above the epoch-seed lanes.
			if f.cfg.RestartAfter > 0 && (f.cfg.MaxRestarts <= 0 || r.restarts < f.cfg.MaxRestarts) {
				r.state = stCrashed
				r.restartAt = ev.barrier + f.backoffBarriers(f.cfg.RestartAfter, restartSeedStream+0x8000+uint64(i), r.restarts)
			} else {
				r.state = stQuarantined
				out.op = evReplace
				note(telemetry.KindBoard, "quarantine", float64(r.restarts))
			}
		}
		f.counters.Orphaned += uint64(len(r.orphans) - held)

	case evRestartDue:
		if r.state == stCrashed && ev.barrier >= r.restartAt {
			r.state = stRestarting
			out.op = evRestarted
		}

	case evRestarted:
		if r.state != stRestarting {
			break
		}
		r.drained = r.manual
		r.settle()
		r.epoch++
		r.restarts++
		r.degraded, r.healthy, r.auto = 0, 0, false
		f.counters.Restarts++
		note(telemetry.KindBoard, "restart", float64(r.epoch))
		release()

	case evRestartFailed:
		if r.state != stRestarting {
			break
		}
		r.state = stQuarantined
		note(telemetry.KindBoard, "quarantine", float64(r.restarts))
		release()

	case evReplace:
		if r.state != stQuarantined {
			break
		}
		release()
		note(telemetry.KindBoard, "replace", float64(len(out.release)))

	case evAutoDrain, evAutoRedrain, evAutoResume, evDrain, evResume:
		if r.state.supervised() {
			out.err = r.refuse(i, ev.kind)
			break
		}
		if ev.kind == evDrain || ev.kind == evResume {
			// The operator takes the board from the cooldown machine, or
			// hands it back with a clean slate.
			r.manual = ev.kind == evDrain
			r.auto, r.degraded, r.healthy = false, 0, 0
		}
		r.drained = r.manual || ev.kind == evAutoDrain || ev.kind == evAutoRedrain
		if r.state != stStalled {
			r.settle()
		}
		if ev.kind == evAutoRedrain {
			f.counters.Redrained++
		}
		note(telemetry.KindDrain, drainClass[ev.kind], 0) // the caller sets the evacuated count
		out.notes[0].Prev = float64(r.cooldown)
	}
	return out
}

// backoffBarriers derives a backoff in whole barriers: base barriers at
// attempt 0, doubling per attempt up to fault.Backoff's 32× cap, with
// deterministic jitter seeded from the given stream off the fleet seed,
// and never shorter than base. The drain cooldown (so a fleet of
// flapping boards doesn't resume in thundering-herd unison) and the
// restart delay each use their own stream.
func (f *Fleet) backoffBarriers(base int, stream uint64, attempt int) int {
	bo := fault.Backoff{
		Base:   sim.Time(base) * f.cfg.Batch,
		Factor: 2,
		Jitter: 0.25,
		Seed:   sim.DeriveSeed(f.cfg.Seed, stream),
	}
	return max(base, int((bo.Next(attempt)+f.cfg.Batch-1)/f.cfg.Batch))
}

// emit publishes lifecycle events: KindBoard (crash / stall / catch-up /
// restart / replace / quarantine) and KindDrain (drain / redrain / resume
// / manual-drain / manual-resume). Never call under f.mu: the emitter's
// clock is f.Now.
func (f *Fleet) emit(notes []telemetry.Event) {
	for _, ev := range notes {
		f.em.Emit(ev)
	}
}

// boardOp is a deferred lifecycle op, executed only once the pipeline is
// flushed so the board is quiescent and — crucially for restarts under
// bounded skew — every barrier issued before the decision has already
// been collected, so all of a crashed board's skewed-barrier orphans are
// appended before its work re-enters the dispatcher. Ops run in decision
// order, which fixes the requeue order.
type boardOp struct {
	board int
	ev    evKind
}

// queue defers a transition's op to the flushed pipeline.
func (f *Fleet) queue(i int, op evKind) {
	if op != evNone {
		f.ops = append(f.ops, boardOp{board: i, ev: op})
	}
}

// crashReplyLocked turns one crashed reply into its snapshot and crash
// event. On first detection it reports a CrashError and recovers the
// last good checkpoint's residents for the orphan set; later crashed
// replies from the same epoch only orphan that barrier's skew-issued
// assignments (routing excludes the board once the crash publishes).
func (f *Fleet) crashReplyLocked(i int, bar *inflightBarrier, r stepReply, errs *[]error) (Snapshot, event) {
	snap := f.snaps[i]
	ev := event{kind: evCrash, barrier: bar.batch, subs: pick(bar.subs, bar.mine[i])}
	if !f.recs[i].state.supervised() {
		*errs = append(*errs, &CrashError{Board: i, Barrier: bar.batch, Err: r.err})
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
				ev.recovered = append(ev.recovered, s)
			}
		}
	}
	snap.Batch = bar.batch
	snap.Tasks = 0
	snap.DemandPU = 0
	return snap, ev
}

// noteBarrier feeds a collected barrier to every board's record: its
// Degraded bit to the cooldown machine, which queues auto drains and
// resumes, then its number to the restart backoff, which queues due
// restarts.
func (f *Fleet) noteBarrier(fresh []Snapshot, collected int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.DrainDegradedAfter > 0 {
		for i := range fresh {
			kind := evHealthy
			if fresh[i].Degraded {
				kind = evDegraded
			}
			f.queue(i, f.apply(i, event{kind: kind}).op)
		}
	}
	for i := range f.recs {
		f.queue(i, f.apply(i, event{kind: evRestartDue, barrier: collected}).op)
	}
}

// runOp carries out an op on the flushed pipeline (manual Drain and
// Resume included): it applies the op's event, does what the transition
// asks of the board, and returns the work to requeue at the queue head.
// The flushed pipeline means a restarted board's command queue is empty
// and its every skewed barrier has been orphan-accounted.
func (f *Fleet) runOp(i int, kind evKind) ([]Submission, error) {
	r := &f.recs[i]
	var next *Board
	if kind == evRestarted {
		// Resurrect the board under the same ID: the dead goroutine
		// stops and a fresh platform boots under the derived
		// restart-epoch seed, resuming the crash snapshot's completed
		// count. Booting can only fail if the board's fault scenario
		// fails validation, which New() already vetted — but if it
		// does, the board retires rather than crash the fleet.
		f.boards[i].stop()
		var err error
		if next, err = newBoard(i, f.cfg, f.tracer.Board(i), r.epoch+1, f.snaps[i].Completed); err != nil {
			kind = evRestartFailed
		}
	}
	f.mu.Lock()
	out := f.apply(i, event{kind: kind})
	if next != nil {
		f.boards[i] = next // under mu: Boards() is read from HTTP goroutines
		f.snaps[i] = Snapshot{Board: i, Epoch: r.epoch, MaxSupplyPU: next.p.MaxSupplyPU(), Completed: f.snaps[i].Completed}
		r.mark(&f.snaps[i], f.cfg.StallBarriers)
		f.histRestart.Record(float64(f.batch - r.crashedAt))
	}
	f.reopenLocked(out.release) // orphans re-placed by a restart or replace
	f.mu.Unlock()
	subs := out.release
	if len(out.notes) > 0 && out.notes[0].Kind == telemetry.KindDrain { // a drain or resume, not moot
		if r.drained {
			subs = f.boards[i].drain()
		}
		f.mu.Lock()
		r.mark(&f.snaps[i], f.cfg.StallBarriers)
		if r.drained {
			f.snaps[i].Tasks = 0
			f.counters.Drained += uint64(len(subs))
			f.counters.Resubmitted += uint64(len(subs))
			f.reopenLocked(subs)
		}
		f.mu.Unlock()
		out.notes[0].Value = float64(len(subs))
	}
	f.emit(out.notes)
	return subs, out.err
}

// reopenLocked readies released orphans or evacuated tasks for the queue
// head: each keeps its trace ID and opens a queue span attributed to the
// requeue, so a task's crash → re-place or drain → re-route journey reads
// as one timeline.
func (f *Fleet) reopenLocked(subs []Submission) {
	if f.tracer == nil {
		return
	}
	for j := range subs {
		if subs[j].Trace == 0 {
			continue
		}
		subs[j].EnqueuedAt = f.now
		f.tracer.Fleet().Open(trace.Span{
			Trace: subs[j].Trace, Stage: trace.StageQueue, Board: -1,
			Start: f.now, Class: "requeue",
		})
	}
}

// Drain evacuates board i immediately (manual hot-unplug path): the
// pipeline is flushed, the board's tasks re-enter the admission queue
// head (overflow sheds with accounting, like every requeue), and the
// board stops receiving work until Resume. Safe only between Steps
// (the caller serializes them with stepping).
func (f *Fleet) Drain(i int) error { return f.manual(i, evDrain) }

// Resume lets a manually drained board accept work again.
func (f *Fleet) Resume(i int) error { return f.manual(i, evResume) }

// manual runs a manual drain or resume: refused outright for a board the
// crash supervisor owns, otherwise run on a flushed pipeline like a
// deferred op.
func (f *Fleet) manual(i int, kind evKind) error {
	if i < 0 || i >= len(f.boards) {
		return fmt.Errorf("fleet: no board %d", i)
	}
	if err := f.recs[i].refuse(i, kind); err != nil {
		return err
	}
	if err := f.Flush(); err != nil {
		return err
	}
	subs, err := f.runOp(i, kind)
	f.mu.Lock()
	f.requeueLocked(subs)
	f.mu.Unlock()
	return err
}

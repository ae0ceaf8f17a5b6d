package fleet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pricepower/internal/fault"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

var stateNames = [...]string{"live", "draining", "stalled", "crashed", "restarting", "quarantined"}

var evNames = [...]string{"none", "healthy", "degraded", "stall", "catch-up", "crash", "restart-due",
	"restarted", "restart-failed", "replace", "auto-drain", "auto-redrain", "auto-resume"}

// cell is one (state, event) outcome as the table states it: the next
// state, the deferred op, the lifecycle events emitted (classes,
// comma-joined), the snapshot marks the record publishes (D draining,
// S stalled, C crashed), the board's routing carry, the stall carry
// pinned in flight and the orphans held (tasks each).
type cell struct {
	next                   boardState
	op                     evKind
	notes, flags           string
	carry, pinned, orphans int
}

func (c cell) to(s boardState) cell    { c.next = s; return c }
func (c cell) queues(op evKind) cell   { c.op = op; return c }
func (c cell) emits(notes string) cell { c.notes = notes; return c }
func (c cell) marks(flags string) cell { c.flags = flags; return c }
func (c cell) ledger(carry, pinned, orphans int) cell {
	c.carry, c.pinned, c.orphans = carry, pinned, orphans
	return c
}

// unchanged is a state's base record observed without a transition.
func unchanged(s boardState) cell {
	c := cell{next: s}
	switch s {
	case stDraining:
		c.flags = "D"
	case stStalled:
		c.carry, c.pinned = 2, 2
	case stCrashed, stRestarting, stQuarantined:
		c.flags, c.orphans = "C", 1
	}
	return c
}

func lifecycleSub(name string) Submission { return Submission{Spec: task.Spec{Name: name}} }

// baseRec builds a representative record in state s: a degraded streak
// one barrier short of an auto-drain everywhere; a stall one miss short
// of quarantine, holding two deferred tasks pinned in the carry; a
// crashed board whose restart fell due at barrier 5; one orphan held by
// every dead board.
func baseRec(s boardState) (boardRec, projCarry) {
	r := boardRec{state: s, degraded: 1}
	var c projCarry
	switch s {
	case stDraining:
		r.drained = true
	case stStalled:
		r.stallMiss = 1
		r.stallPending = []Submission{lifecycleSub("p1"), lifecycleSub("p2")}
		r.stallCarry = projCarry{tasks: 2, demandPU: 1.5}
		c = r.stallCarry
	case stCrashed, stRestarting, stQuarantined:
		r.crashedAt, r.restartAt = 3, 5
		r.orphans = []Submission{lifecycleSub("o")}
	}
	return r, c
}

// TestLifecycleTransitionTable drives the board lifecycle's transition
// function over every (state, event) pair, plus the variants where the
// record's bookkeeping changes the outcome, and checks the next state,
// the op or events emitted, the snapshot marks and the ledger terms the
// record holds.
func TestLifecycleTransitionTable(t *testing.T) {
	L, D, S, C, R, Q := stLive, stDraining, stStalled, stCrashed, stRestarting, stQuarantined
	u := unchanged
	rows := []struct {
		name string
		ev   evKind
		prep func(*boardRec, *Config)
		want [6]cell // indexed by the state before
	}{
		{"healthy reply", evHealthy, nil,
			[6]cell{u(L), u(D), u(S), u(C), u(R), u(Q)}},
		{"healthy through the cooldown", evHealthy, func(r *boardRec, _ *Config) { r.auto, r.cooldown = true, 1 },
			[6]cell{u(L).queues(evAutoResume), u(D).queues(evAutoResume), u(S), u(C), u(R), u(Q)}},
		{"degraded reply", evDegraded, nil,
			[6]cell{u(L).queues(evAutoDrain), u(D).queues(evAutoDrain), u(S), u(C), u(R), u(Q)}},
		{"degraded again after a drain", evDegraded, func(r *boardRec, _ *Config) { r.drains = 1 },
			[6]cell{u(L).queues(evAutoRedrain), u(D).queues(evAutoRedrain), u(S), u(C), u(R), u(Q)}},
		{"stall reply", evStall, nil,
			[6]cell{u(L).to(S).ledger(1, 1, 0), u(D).to(S).ledger(1, 1, 0),
				u(S).emits("stall").marks("S").ledger(3, 3, 0), u(C), u(R), u(Q)}},
		{"catch-up", evCatchup, nil,
			[6]cell{u(L), u(D), u(S).to(L).ledger(0, 0, 0), u(C), u(R), u(Q)}},
		{"catch-up after the stall quarantine", evCatchup, func(r *boardRec, _ *Config) {
			if r.state == stStalled {
				r.stallMiss = 2
			}
		}, [6]cell{u(L), u(D), u(S).to(L).emits("catch-up").ledger(0, 0, 0), u(C), u(R), u(Q)}},
		{"catch-up of a drained board", evCatchup, func(r *boardRec, _ *Config) {
			if r.state == stStalled {
				r.drained = true
			}
		}, [6]cell{u(L), u(D), u(S).to(D).marks("D").ledger(0, 0, 0), u(C), u(R), u(Q)}},
		{"crash reply", evCrash, nil,
			[6]cell{u(L).to(C).emits("crash").marks("C").ledger(0, 0, 2),
				u(D).to(C).emits("crash").marks("DC").ledger(0, 0, 2),
				u(S).to(C).emits("crash").marks("C").ledger(0, 0, 4),
				u(C).ledger(0, 0, 2), u(R).ledger(0, 0, 2), u(Q).ledger(0, 0, 2)}},
		{"crash with restarts off", evCrash, func(_ *boardRec, c *Config) { c.RestartAfter = 0 },
			[6]cell{u(L).to(Q).queues(evReplace).emits("crash,quarantine").marks("C").ledger(0, 0, 2),
				u(D).to(Q).queues(evReplace).emits("crash,quarantine").marks("DC").ledger(0, 0, 2),
				u(S).to(Q).queues(evReplace).emits("crash,quarantine").marks("C").ledger(0, 0, 4),
				u(C).ledger(0, 0, 2), u(R).ledger(0, 0, 2), u(Q).ledger(0, 0, 2)}},
		{"restart due", evRestartDue, nil,
			[6]cell{u(L), u(D), u(S), u(C).to(R).queues(evRestarted), u(R), u(Q)}},
		{"restart not yet due", evRestartDue, func(r *boardRec, _ *Config) { r.restartAt = 9 },
			[6]cell{u(L), u(D), u(S), u(C), u(R), u(Q)}},
		{"restart done", evRestarted, nil,
			[6]cell{u(L), u(D), u(S), u(C), u(R).to(L).emits("restart").marks("").ledger(0, 0, 0), u(Q)}},
		// A restart boots a fresh board: a drain it died under is gone.
		{"restart of a drained board", evRestarted, func(r *boardRec, _ *Config) {
			if r.state == stRestarting {
				r.drained = true
			}
		}, [6]cell{u(L), u(D), u(S), u(C), u(R).to(L).emits("restart").marks("").ledger(0, 0, 0), u(Q)}},
		{"restart failed", evRestartFailed, nil,
			[6]cell{u(L), u(D), u(S), u(C), u(R).to(Q).emits("quarantine").ledger(0, 0, 0), u(Q)}},
		{"replace", evReplace, nil,
			[6]cell{u(L), u(D), u(S), u(C), u(R), u(Q).emits("replace").ledger(0, 0, 0)}},
		{"auto drain", evAutoDrain, nil,
			[6]cell{u(L).to(D).emits("drain").marks("D"), u(D).emits("drain"), u(S).emits("drain").marks("D"), u(C), u(R), u(Q)}},
		{"auto redrain", evAutoRedrain, nil,
			[6]cell{u(L).to(D).emits("redrain").marks("D"), u(D).emits("redrain"), u(S).emits("redrain").marks("D"), u(C), u(R), u(Q)}},
		{"auto resume", evAutoResume, nil,
			[6]cell{u(L).emits("resume"), u(D).to(L).emits("resume").marks(""), u(S).emits("resume"), u(C), u(R), u(Q)}},
	}

	covered := map[evKind]bool{}
	for _, row := range rows {
		covered[row.ev] = true
		for from := stLive; from <= stQuarantined; from++ {
			f := &Fleet{
				cfg:   Config{Boards: 1, Seed: 5, DrainDegradedAfter: 2, RestartAfter: 3}.withDefaults(),
				recs:  make([]boardRec, 1),
				carry: make([]projCarry, 1),
			}
			f.recs[0], f.carry[0] = baseRec(from)
			if row.prep != nil {
				row.prep(&f.recs[0], &f.cfg)
			}
			ev := event{kind: row.ev, barrier: 7}
			switch row.ev {
			case evStall:
				ev.add = projCarry{tasks: 1, demandPU: 0.25}
				ev.subs = []Submission{lifecycleSub("s")}
			case evCrash:
				ev.subs = []Submission{lifecycleSub("s")}
				ev.recovered = []Submission{lifecycleSub("k")}
			}
			out := f.apply(0, ev)

			r := &f.recs[0]
			var classes []string
			for _, n := range out.notes {
				classes = append(classes, n.Class)
			}
			var snap Snapshot
			r.mark(&snap)
			flags := ""
			for _, m := range []struct {
				on bool
				c  string
			}{{snap.Draining, "D"}, {snap.Stalled, "S"}, {snap.Crashed, "C"}} {
				if m.on {
					flags += m.c
				}
			}
			got := cell{next: r.state, op: out.op, notes: strings.Join(classes, ","), flags: flags,
				carry: f.carry[0].tasks, pinned: r.stallCarry.tasks, orphans: len(r.orphans)}
			if want := row.want[from]; got != want {
				t.Errorf("%s from %s:\n got  %s\n want %s", row.name, stateNames[from], describe(got), describe(want))
			}
			// Every orphan a transition releases is counted as re-placed.
			if uint64(len(out.release)) != f.counters.Replaced {
				t.Errorf("%s from %s: released %d orphans, counted %d replaced",
					row.name, stateNames[from], len(out.release), f.counters.Replaced)
			}
		}
	}
	for k := evHealthy; k <= evAutoResume; k++ {
		if !covered[k] {
			t.Errorf("event %s has no row in the transition table", evNames[k])
		}
	}
}

func describe(c cell) string {
	return fmt.Sprintf("%s op=%s notes=[%s] marks=[%s] carry/pinned/orphans=%d/%d/%d",
		stateNames[c.next], evNames[c.op], c.notes, c.flags, c.carry, c.pinned, c.orphans)
}

// fleetGauges reads the two held-ledger gauges from the fleet registry's
// Prometheus text.
func fleetGauges(t *testing.T, f *Fleet) (inflight, orphaned float64) {
	var buf bytes.Buffer
	if err := telemetry.WriteSeriesProm(&buf, f.Registry().Export()); err != nil {
		t.Error(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		switch name {
		case "pricepower_fleet_inflight_tasks":
			inflight, _ = strconv.ParseFloat(val, 64)
		case "pricepower_fleet_orphaned_tasks":
			orphaned, _ = strconv.ParseFloat(val, 64)
		}
	}
	return inflight, orphaned
}

// TestLedgerDerivedUnderConcurrentReaders plays a crash, a stall and a
// supervised restart under bounded skew while a concurrent reader polls
// StateSnapshot and the in-flight and orphaned gauges, as the HTTP
// frontend does. Run under -race it pins that every ledger term is read
// under the fleet lock; at each barrier the published State, the gauges
// and FleetAccounting must agree, since all three derive from the same
// records.
func TestLedgerDerivedUnderConcurrentReaders(t *testing.T) {
	f, err := New(Config{
		Boards: 3, Seed: 3, MaxSkew: 1, Check: true, RestartAfter: 3,
		Faults: map[int]fault.Scenario{1: crashScenario(4, 1), 0: stallScenario(3, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := f.StateSnapshot()
			inflight, orphaned := fleetGauges(t, f)
			if st.InFlight < 0 || st.Orphaned < 0 || inflight < 0 || orphaned < 0 {
				t.Errorf("negative ledger term: state %d/%d, gauges %g/%g", st.InFlight, st.Orphaned, inflight, orphaned)
				return
			}
		}
	}()

	var held, pinned bool
	for n := 1; n <= 24; n++ {
		if n <= 12 {
			f.Submit(lightSpec("t"), lightSpec("u"), lightSpec("v"), lightSpec("w"))
		}
		stepChecked(t, f)
		st, l := f.StateSnapshot(), f.FleetAccounting()
		inflight, orphaned := fleetGauges(t, f)
		if uint64(st.InFlight) != l.InFlight || uint64(st.Orphaned) != l.Orphaned ||
			float64(st.InFlight) != inflight || float64(st.Orphaned) != orphaned {
			t.Fatalf("barrier %d: state in-flight/orphaned %d/%d, accounting %d/%d, gauges %g/%g",
				n, st.InFlight, st.Orphaned, l.InFlight, l.Orphaned, inflight, orphaned)
		}
		held = held || st.Orphaned > 0
		pinned = pinned || f.recs[0].stallCarry.tasks > 0
	}
	close(done)
	wg.Wait()
	st := f.StateSnapshot()
	if st.Counters.Crashes != 1 || st.Counters.Stalls != 1 || st.Counters.Restarts != 1 || !held || !pinned {
		t.Fatalf("crashes %d stalls %d restarts %d, orphans held %v, stall carry pinned %v: want one each, both seen",
			st.Counters.Crashes, st.Counters.Stalls, st.Counters.Restarts, held, pinned)
	}
}

package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
)

// eagerCheckpoint is the restart image built from scratch out of the
// board's state, as boards once did after every successful step: the
// oracle for the image the board keeps and refolds in place. batch is
// the barrier the image covers.
func eagerCheckpoint(b *Board, batch int) *Checkpoint {
	tasks := b.p.Tasks()
	ck := &Checkpoint{Batch: batch, Completed: b.completed}
	for _, t := range tasks {
		ck.Tasks = append(ck.Tasks, CheckpointTask{Spec: t.Spec, Trace: b.traceOf[t].id})
	}
	return ck
}

// sameImage reports whether two restart images hold the same values; an
// empty task list equals a nil one (the fold reuses its storage).
func sameImage(a, b *Checkpoint) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Batch != b.Batch || a.Completed != b.Completed || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[i], b.Tasks[i]) {
			return false
		}
	}
	return true
}

// TestImageMatchesEagerCheckpoint runs a churned lockstep fleet —
// placements every barrier, finite tasks retiring, a stall and its
// catch-up, a drain and resume at barriers the test picks, an auto-drain
// under a sensor fault, a crash inside a catch-up step and its supervised
// restart — traced and untraced, and at every barrier checks each board's
// restart image — on a crashed board, the frozen copy its crashed replies
// carry — against the eager fold of its last successful barrier.
func TestImageMatchesEagerCheckpoint(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			const boards, crashAt = 5, 9
			f, err := New(Config{
				Boards:             boards,
				Seed:               0x1a9e,
				Check:              true,
				Trace:              traced,
				RestartAfter:       2,
				DrainDegradedAfter: 2,
				Faults: map[int]fault.Scenario{
					1: stallScenario(4, 2),
					// Board 2 stalls once, then crashes in the catch-up
					// step after replaying the deferred batch: its live
					// state has moved past its last good image.
					2: {Faults: []fault.Fault{
						{Type: fault.BoardStall, Start: crashAt - 1, Rounds: 1},
						{Type: fault.BoardCrash, Start: crashAt, Rounds: 1},
					}},
					4: {Faults: []fault.Fault{{Type: fault.PowerDropout, Cluster: -1, Start: 40, Rounds: 1 << 20}}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			want := make([]*Checkpoint, boards) // eager image of each board's last good barrier
			prev := append([]*Board(nil), f.boards...)
			check := func(when string) {
				t.Helper()
				for i, b := range f.boards {
					if b != prev[i] {
						want[i] = nil // a restarted board has no image until its first step
						prev[i] = b
					}
					if !sameImage(b.img, want[i]) {
						t.Fatalf("%s: board %d image %+v differs from the eager fold of its last good barrier %+v",
							when, i, b.img, want[i])
					}
				}
			}

			var crashImage *Checkpoint
			autoDrained := false
			for n := 1; n <= 40; n++ {
				if n <= 18 {
					f.Submit(finiteSpec(fmt.Sprintf("f%d", n), sim.Time(150+50*(n%5))*sim.Millisecond))
					if n%3 == 0 {
						f.Submit(lightSpec(fmt.Sprintf("l%d", n)))
					}
				}
				stepChecked(t, f)
				for i, b := range f.boards {
					if b == prev[i] && f.recs[i].state <= stDraining {
						want[i] = eagerCheckpoint(b, f.batch) // the step succeeded: the image moved
					}
				}
				if n == crashAt {
					crashImage = want[2]
				}
				check(fmt.Sprintf("barrier %d", n))
				autoDrained = autoDrained || f.recs[4].auto

				switch n {
				case 12:
					if f.snaps[3].Tasks == 0 {
						t.Fatal("board 3 is idle at the drain")
					}
					drainNow(t, f, 3)
					want[3] = eagerCheckpoint(f.boards[3], f.batch)
					check("after the drain")
				case 16:
					resumeNow(t, f, 3)
					check("after the resume")
				}
			}

			// The run took every path the image has.
			st := f.StateSnapshot()
			if st.Counters.Crashes != 1 || st.Counters.Restarts != 1 || st.Counters.Stalls != 1 {
				t.Fatalf("crashes %d, restarts %d, stalls %d; want 1 each",
					st.Counters.Crashes, st.Counters.Restarts, st.Counters.Stalls)
			}
			if st.Counters.Drained == 0 || st.Completed == 0 {
				t.Fatalf("drained %d, completed %d; want both > 0", st.Counters.Drained, st.Completed)
			}
			if !autoDrained {
				t.Fatal("board 4 never auto-drained")
			}
			if crashImage == nil || len(crashImage.Tasks) == 0 {
				t.Fatalf("crashed board's image = %+v; want resident tasks", crashImage)
			}
		})
	}
}

package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"pricepower/internal/fault"
	"pricepower/internal/sim"
)

// eagerCheckpoint is the restart image built from scratch out of the
// board's state and encoded, as boards once did after every successful
// step: the oracle for the image the board keeps and refolds in place.
// batch is the barrier the image covers.
func eagerCheckpoint(b *Board, batch int) []byte {
	tasks := b.p.Tasks()
	ck := &Checkpoint{
		Board:     b.ID,
		Epoch:     b.epoch,
		Batch:     batch,
		Round:     b.gov.Market().Round(),
		Time:      b.p.Now(),
		RR:        b.rr,
		Seed:      b.Seed,
		Completed: b.completed,
		Tasks:     make([]CheckpointTask, 0, len(tasks)),
	}
	for _, t := range tasks {
		ck.Tasks = append(ck.Tasks, CheckpointTask{Spec: t.Spec, Trace: b.traceOf[t].id})
	}
	return ck.Encode()
}

// TestImageMatchesEagerCheckpoint runs a churned lockstep fleet —
// placements every barrier, finite tasks retiring, a stall and its
// catch-up, a manual drain and resume, an auto-drain under a sensor
// fault, a crash inside a catch-up step and its supervised restart —
// traced and untraced, and
// at every barrier checks each board's restart image against the eager
// fold of its last successful barrier: the bytes a crash would carry
// (the encoded image, as the crash path encodes it) must equal the oracle's,
// and a crashed board's reply bytes must equal them too.
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

			want := make([][]byte, boards) // eager image of each board's last good barrier
			prev := append([]*Board(nil), f.boards...)
			check := func(when string) {
				t.Helper()
				for i, b := range f.boards {
					if b != prev[i] {
						want[i] = nil // a restarted board has no image until its first step
						prev[i] = b
					}
					if got := b.img.Encode(); !bytes.Equal(got, want[i]) {
						t.Fatalf("%s: board %d image differs from the eager fold of its last good barrier", when, i)
					}
					if b.crashed && !bytes.Equal(b.ckpt, want[i]) {
						t.Fatalf("%s: board %d crash reply carries other bytes than its last good image", when, i)
					}
				}
			}

			var crashImage []byte
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
					if b == prev[i] && !f.crashed[i] && f.stallMiss[i] == 0 {
						want[i] = eagerCheckpoint(b, f.batch) // the step succeeded: the image moved
					}
				}
				if n == crashAt {
					crashImage = want[2]
				}
				check(fmt.Sprintf("barrier %d", n))
				autoDrained = autoDrained || f.auto[4]

				switch n {
				case 12:
					if f.snaps[3].Tasks == 0 {
						t.Fatal("board 3 is idle at the manual drain")
					}
					if err := f.Drain(3); err != nil {
						t.Fatal(err)
					}
					want[3] = eagerCheckpoint(f.boards[3], f.batch)
					check("after the manual drain")
				case 16:
					if err := f.Resume(3); err != nil {
						t.Fatal(err)
					}
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
			ck, err := DecodeCheckpoint(crashImage)
			if err != nil || ck == nil || len(ck.Tasks) == 0 {
				t.Fatalf("crashed board's image = %+v, %v; want resident tasks", ck, err)
			}
		})
	}
}

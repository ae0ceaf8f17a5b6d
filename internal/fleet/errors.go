package fleet

import (
	"fmt"
	"time"
)

// CrashError reports one board-crash detection: the fleet observed the
// board's first terminal crashed reply while collecting the given
// barrier. A crash is a *recoverable* event — the barrier still
// completed, the board's work was orphaned into the supervisor, and a
// restart may already be scheduled — so callers that supervise (the
// federation, fedd, the chaos harness) log it and keep stepping, while
// callers that treat any error as fatal still see it. Multiple boards
// failing in one barrier surface as an errors.Join of one CrashError
// each (see CrashErrors).
type CrashError struct {
	Board   int
	Barrier int
	Err     error // the board's panic, as reported by its recovery handler
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fleet: board %d crashed (detected at barrier %d): %v", e.Board, e.Barrier, e.Err)
}

func (e *CrashError) Unwrap() error { return e.Err }

// CrashErrors walks err's wrap tree and collects every CrashError in
// it. only reports whether the tree contains nothing *but* crash
// errors — the "safe to keep stepping" signal: a joined error that also
// carries an invariant violation or a liveness timeout must still abort
// the run.
func CrashErrors(err error) (crashes []*CrashError, only bool) {
	if err == nil {
		return nil, false
	}
	only = true
	var walk func(error)
	walk = func(e error) {
		if ce, ok := e.(*CrashError); ok {
			crashes = append(crashes, ce)
			return
		}
		if m, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range m.Unwrap() {
				walk(sub)
			}
			return
		}
		only = false
	}
	walk(err)
	if len(crashes) == 0 {
		return nil, false
	}
	return crashes, only
}

// LivenessError reports a wall-clock barrier timeout (Config.Liveness):
// at least one board produced no step reply within the deadline. This
// is the real-hang escape hatch — injected stalls answer immediately
// with a sentinel and never trip it — so it lists exactly the boards
// that were still silent when the deadline fired, for the diagnostic
// dump (`fedd -deadline`).
type LivenessError struct {
	Barrier  int
	Deadline time.Duration
	Boards   []int // boards with no reply when the deadline fired
}

func (e *LivenessError) Error() string {
	return fmt.Sprintf("fleet: liveness deadline %v exceeded at barrier %d: no step reply from boards %v",
		e.Deadline, e.Barrier, e.Boards)
}

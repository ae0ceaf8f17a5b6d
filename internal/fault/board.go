package fault

// Board-level faults
//
// The fleet layer (internal/fleet) treats a whole board as a failure
// domain: a board can crash (its goroutine panics mid-step) or stall
// (it withholds step replies for a window of barriers). Both are
// scheduled here with the same discipline as every sensor fault — a
// window plus a pure stateless hash of (scenario seed, fault index,
// board, barrier) — so a crashing, stalling fleet run replays
// bit-identically from its seed.
//
// Unlike the platform faults, board fault windows are measured in fleet
// *batch barriers* (1-based, the fleet's batch counter), not market
// rounds: the board consults the schedule once per step command, never
// from the market's phases. RoundMS does not apply to them.

const (
	// BoardCrash panics the board goroutine at the start of the step for
	// any barrier inside the window (Start ≤ barrier < Start+Rounds, in
	// batch barriers). The fleet recovers the panic into a terminal
	// crashed reply and the supervisor takes over. Magnitude is the
	// per-barrier firing probability (0 or ≥ 1: every barrier in the
	// window fires).
	BoardCrash Type = "board-crash"
	// BoardStall makes the board withhold its real step reply for every
	// barrier inside the window: the board answers with a stall sentinel
	// and defers the batch, catching up at the first barrier past the
	// window. Magnitude is the per-barrier stall probability (0 or ≥ 1:
	// always).
	BoardStall Type = "board-stall"
)

// BoardTypes lists the board-level fault classes. They are deliberately
// not part of Types: the chaos schedule (RandomScenario) draws platform
// faults only, and board faults target the fleet layer, which the
// single-platform chaos tests never construct.
var BoardTypes = []Type{BoardCrash, BoardStall}

// IsBoardFault reports whether t is a board-level fault class (windows
// in batch barriers, consumed by internal/fleet, skipped by the
// platform Injector).
func IsBoardFault(t Type) bool { return t == BoardCrash || t == BoardStall }

// boardFaultAt reports whether a fault of class t fires on the given
// board at the given barrier: some window of that class covers the
// barrier, and the (seed, fault, board, barrier) hash clears the
// magnitude gate. Pure — the schedule can be consulted from any
// goroutine without synchronization.
func (sc Scenario) boardFaultAt(t Type, board, barrier int) bool {
	for i := range sc.Faults {
		f := &sc.Faults[i]
		if f.Type != t || barrier < f.Start || barrier >= f.Start+f.Rounds {
			continue
		}
		if f.Magnitude > 0 && f.Magnitude < 1 &&
			unit(hash3(sc.Seed, uint64(i)^0xb0a2d, uint64(board+1), uint64(barrier))) >= f.Magnitude {
			continue
		}
		return true
	}
	return false
}

// CrashesAt reports whether the board's step at the given barrier is
// scheduled to crash.
func (sc Scenario) CrashesAt(board, barrier int) bool {
	return sc.boardFaultAt(BoardCrash, board, barrier)
}

// StallsAt reports whether the board withholds its step reply at the
// given barrier.
func (sc Scenario) StallsAt(board, barrier int) bool {
	return sc.boardFaultAt(BoardStall, board, barrier)
}

// HasBoardFaults reports whether the scenario schedules any board-level
// fault (the fleet only consults the schedule per step when it does).
func (sc Scenario) HasBoardFaults() bool {
	for i := range sc.Faults {
		if IsBoardFault(sc.Faults[i].Type) {
			return true
		}
	}
	return false
}

// Package trace provides deterministic causal tracing for the fleet hot
// path: every submission carries a trace ID derived from the run seed and
// its admission position (never from wall clock), and each stage of its
// life — admission queue, routing, barrier wait, board residency,
// market rounds — is recorded as a span in *virtual* time. Because IDs,
// span boundaries, and the fold order are all functions of (seed, config,
// inputs), a faulted multi-board run replays with bit-identical trace
// digests, pinned next to the existing replay digests (internal/check).
//
// The layer honours the zero-cost-detached contract: nothing in this
// package is touched from bid or route loops. Spans ride the per-round
// fold after the step barrier — boards hand their events back with the
// step reply and the fleet folds them single-threaded at collect time.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"pricepower/internal/check"
	"pricepower/internal/sim"
)

// ID identifies one causal trace. IDs are derived, not random: the i-th
// accepted submission of a run gets DeriveID(traceSeed, i), so a replay of
// the same inputs reproduces the same IDs. Zero is reserved for "no trace"
// (ambient events not tied to a submission).
type ID uint64

// DeriveID derives the trace ID for the submission at the given admission
// position from the run's trace seed stream.
func DeriveID(seed, position uint64) ID {
	id := ID(sim.DeriveSeed(seed, position))
	if id == 0 { // keep zero reserved for "no trace"
		id = 1
	}
	return id
}

// String renders the ID the way it appears in exposition and /trace?id=
// queries: 16 hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit form accepted by /trace?id=.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// Stage labels which leg of the pipeline a span covers.
type Stage uint8

const (
	// StageQueue covers admission: enqueue (SubmitAt release or requeue)
	// until the dispatcher routes the submission to a board, or until it is
	// shed (attributed close).
	StageQueue Stage = iota
	// StageBoard covers board residency: placement on a board until the
	// task completes, or until a drain evacuates it (attributed close).
	StageBoard
	// StageBarrier covers one batch barrier: issue until collection, with
	// Lag recording how many batches the pipeline ran ahead (bounded by the
	// configured max skew K).
	StageBarrier
	// StageRound covers one board-local market round.
	StageRound

	numStages
)

var stageNames = [numStages]string{"queue", "board", "barrier", "round"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalJSON renders the stage as its name, the form the /trace timeline
// serves.
func (s Stage) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON accepts the name form, so timelines round-trip through
// JSON (clients of /trace decode into the same Span type).
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown stage %q", name)
}

// Span is one closed interval of a trace's life, in virtual time. Board is
// -1 for fleet-level spans (queue, barrier). Class carries the resolution:
// "home" for queue spans closed by routing,
// "shed"/"requeue" for attributed admission outcomes, "completed"/"drain"/
// "crash" for board spans ("crash" = the board panicked with the task
// resident; the supervisor requeues it under the same trace ID).
type Span struct {
	Trace   ID       `json:"trace"`
	Stage   Stage    `json:"stage"`
	Board   int      `json:"board"`
	Class   string   `json:"class,omitempty"`
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Barrier int      `json:"barrier,omitempty"`
	Round   int      `json:"round,omitempty"`
	Lag     int      `json:"lag,omitempty"`
}

// Point is one instantaneous lifecycle event on a trace's timeline (DVFS
// step, migration, throttle, fault, …). Trace 0 marks an ambient board
// event not attributable to a single submission; the timeline query folds
// those in for boards the trace was resident on.
type Point struct {
	Trace ID       `json:"trace,omitempty"`
	Kind  string   `json:"kind"`
	Board int      `json:"board"`
	Time  sim.Time `json:"t"`
	Class string   `json:"class,omitempty"`
	Value float64  `json:"value,omitempty"`
}

// Counts is the span ledger a conservation check audits: every opened span
// must end up closed or attributed (shed/drain), with none closed twice or
// closed without opening (Mismatched).
type Counts struct {
	Opened     uint64 `json:"opened"`
	Closed     uint64 `json:"closed"`
	Attributed uint64 `json:"attributed"`
	Open       uint64 `json:"open"`
	Mismatched uint64 `json:"mismatched"`
}

// Add folds o into c (the fleet-wide aggregation over board buffers).
func (c *Counts) Add(o Counts) {
	c.Opened += o.Opened
	c.Closed += o.Closed
	c.Attributed += o.Attributed
	c.Open += o.Open
	c.Mismatched += o.Mismatched
}

// foldSpan folds every deterministic field of a span into the replay
// digest fold (check.Digest). Wall-clock values never enter a span, so the
// fold is replay-stable by construction.
func foldSpan(d check.Digest, sp Span) check.Digest {
	return d.Uint64(uint64(sp.Trace)).
		Uint64(uint64(sp.Stage)).
		Int(int64(sp.Board)).
		String(sp.Class).
		Int(int64(sp.Start)).
		Int(int64(sp.End)).
		Int(int64(sp.Barrier)).
		Int(int64(sp.Round)).
		Int(int64(sp.Lag))
}

// foldPoint folds a point event. Its value enters as raw bits (-0 and +0
// digest apart, unlike check.Digest.Float).
func foldPoint(d check.Digest, p Point) check.Digest {
	return d.Uint64(uint64(p.Trace)).
		String(p.Kind).
		Int(int64(p.Board)).
		Int(int64(p.Time)).
		String(p.Class).
		Uint64(math.Float64bits(p.Value))
}

package fleet

import (
	"encoding/binary"
	"fmt"
	"math"

	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry/trace"
)

// Checkpoint is a board's compact restart image. The board goroutine
// keeps one and refolds it in place at the end of every successful step
// (and after a drain); it is encoded only when a crashed step reply
// carries it to the supervisor. It holds exactly what the supervisor
// needs to resurrect the board's *work* — the resident task specs with
// their causal trace IDs — and the board's completed-task count, plus
// the market/governor restart position (barrier, round, virtual time,
// placement cursor, seed) that stamps where in the run the image was
// taken. Finished tasks are retired at the end of their batch, so an
// image never holds one: a restart cannot re-run a finished task. The
// restarted board itself boots fresh under a derived restart-epoch
// seed; the checkpointed tasks re-enter the dispatcher rather than being
// teleported onto the new platform, so restart placement follows the
// same price routing as any admission.
type Checkpoint struct {
	Board int      // board ID the image belongs to
	Epoch int      // restart epoch the image was folded under
	Batch int      // barrier the image covers (the last collected step)
	Round int      // market bid rounds completed at the fold
	Time  sim.Time // board-local virtual time at the fold
	RR    int      // placement round-robin cursor (seed-stream position)
	Seed  uint64   // board seed the epoch ran under
	// Completed is the board's cumulative completed-task count at the
	// fold; the restarted board resumes from it.
	Completed int
	Tasks     []CheckpointTask
}

// CheckpointTask is one resident task in a checkpoint: the spec the
// dispatcher re-places plus the causal trace ID that keeps the task's
// timeline continuous across the crash (0 when untraced).
type CheckpointTask struct {
	Spec  task.Spec
	Trace trace.ID
}

// Checkpoint wire format: a version byte, then varints for every integer
// field and IEEE-754 bits for every float. Strings are length-prefixed.
// The format is a private fleet concern (the supervisor is the only
// consumer), but it must round-trip exactly: restart accounting depends
// on every checkpointed task surviving encode/decode bit-for-bit (see
// FuzzCheckpointRoundTrip).
const (
	ckptMagic   = 0xC4
	ckptVersion = 2
)

func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func putFloat(b []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(b, tmp[:]...)
}

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Encode serializes the checkpoint. A nil checkpoint encodes as nil (the
// pre-first-barrier state: nothing resident, nothing to restart).
func (c *Checkpoint) Encode() []byte {
	if c == nil {
		return nil
	}
	b := make([]byte, 0, 64+32*len(c.Tasks))
	b = append(b, ckptMagic, ckptVersion)
	b = putUvarint(b, uint64(c.Board))
	b = putUvarint(b, uint64(c.Epoch))
	b = putUvarint(b, uint64(c.Batch))
	b = putUvarint(b, uint64(c.Round))
	b = putUvarint(b, uint64(c.Time))
	b = putUvarint(b, uint64(c.RR))
	b = putUvarint(b, c.Seed)
	b = putUvarint(b, uint64(c.Completed))
	b = putUvarint(b, uint64(len(c.Tasks)))
	for i := range c.Tasks {
		t := &c.Tasks[i]
		b = putUvarint(b, uint64(t.Trace))
		b = putString(b, t.Spec.Name)
		b = putUvarint(b, uint64(t.Spec.Priority))
		b = putFloat(b, t.Spec.MinHR)
		b = putFloat(b, t.Spec.MaxHR)
		if t.Spec.Loop {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = putUvarint(b, uint64(len(t.Spec.Phases)))
		for _, p := range t.Spec.Phases {
			b = putUvarint(b, uint64(p.Duration))
			b = putFloat(b, p.HBCostLittle)
			b = putFloat(b, p.SpeedupBig)
			b = putFloat(b, p.SelfCapHR)
		}
	}
	return b
}

// ckptReader is a bounds-checked cursor over an encoded checkpoint; the
// first malformed field poisons it and every later read returns zero.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("fleet: checkpoint: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// intField decodes a varint that must fit a non-negative int (counts and
// cursors; an adversarial encoding cannot smuggle a negative length in).
func (r *ckptReader) intField(what string) int {
	v := r.uvarint()
	if r.err == nil && v > math.MaxInt32 {
		r.err = fmt.Errorf("fleet: checkpoint: %s %d out of range", what, v)
	}
	return int(v)
}

func (r *ckptReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = fmt.Errorf("fleet: checkpoint: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *ckptReader) string() string {
	n := r.intField("string length")
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.err = fmt.Errorf("fleet: checkpoint: truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *ckptReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = fmt.Errorf("fleet: checkpoint: truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// DecodeCheckpoint parses an encoded checkpoint. nil input decodes to a
// nil checkpoint (no error): a board that crashed before its first
// successful barrier has no image. Malformed input never panics — the
// supervisor treats a decode error as an empty checkpoint plus a
// surfaced error.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 2 || b[0] != ckptMagic {
		return nil, fmt.Errorf("fleet: checkpoint: bad magic")
	}
	if b[1] != ckptVersion {
		return nil, fmt.Errorf("fleet: checkpoint: unknown version %d", b[1])
	}
	r := &ckptReader{b: b[2:]}
	c := &Checkpoint{
		Board: r.intField("board"),
		Epoch: r.intField("epoch"),
		Batch: r.intField("batch"),
		Round: r.intField("round"),
	}
	c.Time = sim.Time(r.uvarint())
	c.RR = r.intField("rr")
	c.Seed = r.uvarint()
	c.Completed = r.intField("completed")
	n := r.intField("task count")
	if r.err != nil {
		return nil, r.err
	}
	// Bound the allocation by what the buffer could actually hold (each
	// task costs ≥ 28 bytes encoded), so a hostile count cannot OOM.
	if n > len(r.b)/28+1 {
		return nil, fmt.Errorf("fleet: checkpoint: task count %d exceeds buffer", n)
	}
	c.Tasks = make([]CheckpointTask, 0, n)
	for i := 0; i < n; i++ {
		var t CheckpointTask
		t.Trace = trace.ID(r.uvarint())
		t.Spec.Name = r.string()
		t.Spec.Priority = r.intField("priority")
		t.Spec.MinHR = r.float()
		t.Spec.MaxHR = r.float()
		t.Spec.Loop = r.byte() == 1
		np := r.intField("phase count")
		if r.err != nil {
			return nil, r.err
		}
		if np > len(r.b)/25+1 {
			return nil, fmt.Errorf("fleet: checkpoint: phase count %d exceeds buffer", np)
		}
		t.Spec.Phases = make([]task.Phase, 0, np)
		for j := 0; j < np; j++ {
			var p task.Phase
			p.Duration = sim.Time(r.uvarint())
			p.HBCostLittle = r.float()
			p.SpeedupBig = r.float()
			p.SelfCapHR = r.float()
			t.Spec.Phases = append(t.Spec.Phases, p)
		}
		if r.err != nil {
			return nil, r.err
		}
		c.Tasks = append(c.Tasks, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("fleet: checkpoint: %d trailing bytes", len(r.b))
	}
	return c, nil
}

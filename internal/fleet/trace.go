package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// ArrivalTrace is the submission format shared by fleetd's -trace flag
// and its POST /submit body: a batch of registry-known benchmark×input
// tasks, optionally offset into the fleet's virtual future. Benchmark
// and input names resolve case-insensitively through the workload
// registry.
type ArrivalTrace struct {
	Tasks []Arrival `json:"tasks"`
}

// Arrival is one trace entry: Count copies of bench×input at priority,
// due AtMS milliseconds of virtual time after the entry is accepted
// (0 = next barrier).
type Arrival struct {
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Priority int    `json:"priority,omitempty"` // default 1
	Count    int    `json:"count,omitempty"`    // default 1
	AtMS     int64  `json:"at_ms,omitempty"`
}

// Submit bounds, shared by the fleet's and the federation's arrival
// traces (fleetd/fedd -trace files and POST /submit bodies).
const (
	// MaxSubmitTasks caps the tasks one trace expands to: the sum of its
	// entries' counts. A body far below MaxSubmitBody can name any count,
	// so the bound is what keeps one small request from asking for
	// billions of specs.
	MaxSubmitTasks = 1 << 16
	// MaxAtMS caps an entry's due offset (about 35 years of virtual
	// time), far below where the offset in sim.Time, plus the fleet's
	// clock, would overflow.
	MaxAtMS = int64(1) << 40
)

// ArrivalCount checks one trace entry's count and due offset against the
// submit bounds, given the tasks the entries before it expand to, and
// returns how many tasks the entry expands to (a count ≤ 0 means 1).
// Traces check every entry before they expand any.
func ArrivalCount(total, count int, atMS int64) (int, error) {
	if atMS < 0 {
		return 0, fmt.Errorf("negative at_ms")
	}
	if atMS > MaxAtMS {
		return 0, fmt.Errorf("at_ms %d beyond the %d ms horizon", atMS, MaxAtMS)
	}
	if count <= 0 {
		count = 1
	}
	if count > MaxSubmitTasks-total {
		return 0, fmt.Errorf("trace expands past %d tasks", MaxSubmitTasks)
	}
	return count, nil
}

// Resolve expands the trace into (spec, due-time) pairs in trace order,
// validating every entry against the submit bounds and the workload
// registry.
func (tr *ArrivalTrace) Resolve() ([]TimedSpec, error) {
	total := 0
	for i, a := range tr.Tasks {
		n, err := ArrivalCount(total, a.Count, a.AtMS)
		if err != nil {
			return nil, fmt.Errorf("fleet: trace entry %d: %w", i, err)
		}
		total += n
	}
	out := make([]TimedSpec, 0, total)
	for i, a := range tr.Tasks {
		b, ok := workload.ByName(a.Bench)
		if !ok {
			return nil, fmt.Errorf("fleet: trace entry %d: unknown benchmark %q", i, a.Bench)
		}
		prio := a.Priority
		if prio == 0 {
			prio = 1
		}
		spec, err := b.Spec(a.Input, prio)
		if err != nil {
			return nil, fmt.Errorf("fleet: trace entry %d: %w", i, err)
		}
		count := max(a.Count, 1)
		for n := 0; n < count; n++ {
			out = append(out, TimedSpec{At: sim.Time(a.AtMS) * sim.Millisecond, Spec: spec})
		}
	}
	return out, nil
}

// TimedSpec is a resolved arrival: the spec and its virtual due time
// relative to acceptance.
type TimedSpec struct {
	At   sim.Time
	Spec task.Spec
}

// ParseTrace decodes an ArrivalTrace, rejecting unknown fields so typos
// in hand-written traces fail loudly.
func ParseTrace(r io.Reader) (*ArrivalTrace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr ArrivalTrace
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("fleet: trace: %w", err)
	}
	if len(tr.Tasks) == 0 {
		return nil, fmt.Errorf("fleet: trace: no tasks")
	}
	return &tr, nil
}

// LoadTrace reads and resolves a trace file.
func LoadTrace(path string) ([]TimedSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	specs, err := tr.Resolve()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// SubmitTimed feeds resolved arrivals into the fleet: due-now entries go
// straight to the admission queue, future ones onto the virtual-time
// schedule (offsets are relative to the fleet's current time).
func SubmitTimed(f *Fleet, specs []TimedSpec) {
	base := f.Now()
	for _, ts := range specs {
		if ts.At <= 0 {
			f.Submit(ts.Spec)
		} else {
			f.SubmitAt(base+ts.At, ts.Spec)
		}
	}
}

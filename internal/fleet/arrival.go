package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// Arrival is one arrival-trace entry: Count copies of bench×input at
// priority, due AtMS milliseconds of virtual time after the entry is
// accepted (0 = next barrier). Benchmark and input names resolve
// case-insensitively through the workload registry. The federation's
// trace entry (federation.FedArrival) embeds it and adds a region pin.
type Arrival struct {
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Priority int    `json:"priority,omitempty"` // default 1
	Count    int    `json:"count,omitempty"`    // default 1
	AtMS     int64  `json:"at_ms,omitempty"`
}

// Spec resolves the entry's benchmark×input through the workload
// registry at its priority (0 means 1).
func (a Arrival) Spec() (task.Spec, error) {
	b, ok := workload.ByName(a.Bench)
	if !ok {
		return task.Spec{}, fmt.Errorf("unknown benchmark %q", a.Bench)
	}
	prio := a.Priority
	if prio == 0 {
		prio = 1
	}
	return b.Spec(a.Input, prio)
}

func (a Arrival) arrival() Arrival { return a }

// TraceEntry is an arrival-trace entry type: Arrival, or a type that
// embeds it (the federation's region-pinned FedArrival).
type TraceEntry interface{ arrival() Arrival }

// ArrivalTrace is the arrival-trace format, the POST /submit body and
// fedd's -trace file: a batch of registry-known benchmark×input tasks,
// optionally offset into the virtual future.
type ArrivalTrace[E TraceEntry] struct {
	Tasks []E `json:"tasks"`
}

// ParseTrace decodes an arrival trace, rejecting unknown fields so typos
// in hand-written traces fail loudly, and empty traces.
func ParseTrace[E TraceEntry](r io.Reader) (*ArrivalTrace[E], error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr ArrivalTrace[E]
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(tr.Tasks) == 0 {
		return nil, fmt.Errorf("trace: no tasks")
	}
	return &tr, nil
}

// TimedSpec is one resolved arrival: the spec, its virtual due time
// relative to acceptance, and the index of the trace entry it expands.
type TimedSpec struct {
	At    sim.Time
	Spec  task.Spec
	Entry int
}

// Resolve expands the trace into its arrivals in trace order. Every
// entry is checked against the submit bounds before any is expanded, so
// a huge count late in a trace costs nothing; then each resolves through
// the workload registry.
func (tr *ArrivalTrace[E]) Resolve() ([]TimedSpec, error) {
	total := 0
	for i, e := range tr.Tasks {
		a := e.arrival()
		n, err := ArrivalCount(total, a.Count, a.AtMS)
		if err != nil {
			return nil, fmt.Errorf("trace entry %d: %w", i, err)
		}
		total += n
	}
	out := make([]TimedSpec, 0, total)
	for i, e := range tr.Tasks {
		a := e.arrival()
		spec, err := a.Spec()
		if err != nil {
			return nil, fmt.Errorf("trace entry %d: %w", i, err)
		}
		for range max(a.Count, 1) {
			out = append(out, TimedSpec{At: sim.Time(a.AtMS) * sim.Millisecond, Spec: spec, Entry: i})
		}
	}
	return out, nil
}

// Submit bounds for arrival traces (fedd -trace files and POST /submit
// bodies).
const (
	// MaxSubmitTasks caps the tasks one trace expands to: the sum of its
	// entries' counts. A small body can name any count, so the bound is
	// what keeps one request from asking for billions of specs.
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

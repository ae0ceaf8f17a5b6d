package telemetry

// FilterSink wraps another sink with a per-kind mask — the cost-control
// wrapper that lets one emitter feed a full-fidelity JSONL log and a cheap
// steady-state ring at the same time (the emitter's own mask is the union
// of what its sinks want; each FilterSink narrows its branch).
type FilterSink struct {
	next Sink
	mask KindSet
}

// NewFilter wraps next so only kinds in mask pass through.
func NewFilter(next Sink, mask KindSet) *FilterSink {
	return &FilterSink{next: next, mask: mask}
}

// Emit implements Sink.
func (f *FilterSink) Emit(ev Event) {
	if f.mask.Has(ev.Kind) {
		f.next.Emit(ev)
	}
}

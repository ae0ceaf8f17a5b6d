package trace

import (
	"sync"

	"pricepower/internal/check"
	"pricepower/internal/sim"
)

// Buffer accumulates one owner's spans and points — the fleet coordinator
// has one, each board has one. Writes happen on the owner's goroutine (the
// fleet's collect path or the board's step loop); the mutex only exists so
// the HTTP layer can read concurrently. The digest folds spans in
// *completion* order and points in mark order, which the owners make
// deterministic by sorting their per-round batches before folding.
type Buffer struct {
	mu     sync.Mutex
	spans  []Span
	points []Point
	open   map[openKey]Span
	counts Counts
	digest check.Digest
}

type openKey struct {
	id    ID
	stage Stage
}

// NewBuffer returns an empty buffer. A nil *Buffer is a valid no-op
// recorder — every method short-circuits — which is how the detached
// configuration stays zero-cost.
func NewBuffer() *Buffer {
	return &Buffer{open: make(map[openKey]Span), digest: check.NewDigest()}
}

// Open starts a span. The (trace, stage) pair must not already be open;
// a duplicate counts as a mismatch and replaces the stale entry.
func (b *Buffer) Open(sp Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	k := openKey{sp.Trace, sp.Stage}
	if _, dup := b.open[k]; dup {
		b.counts.Mismatched++
	} else {
		b.counts.Opened++
	}
	b.open[k] = sp
	b.mu.Unlock()
}

// Close completes the open (trace, stage) span at end, stamping class (and
// keeping the opener's class when class is empty). Closing a span that was
// never opened counts as a mismatch and records nothing.
func (b *Buffer) Close(id ID, stage Stage, end sim.Time, class string) {
	b.finish(id, stage, end, class, false)
}

// CloseAttributed completes the span as an attributed outcome — shed at
// admission, drained off a board — rather than a normal close. Conservation
// treats both as accounted for; the distinction keeps "work finished" and
// "work evicted" separable in the ledger.
func (b *Buffer) CloseAttributed(id ID, stage Stage, end sim.Time, class string) {
	b.finish(id, stage, end, class, true)
}

func (b *Buffer) finish(id ID, stage Stage, end sim.Time, class string, attributed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	k := openKey{id, stage}
	sp, ok := b.open[k]
	if !ok {
		b.counts.Mismatched++
		b.mu.Unlock()
		return
	}
	delete(b.open, k)
	sp.End = end
	if class != "" {
		sp.Class = class
	}
	if attributed {
		b.counts.Attributed++
	} else {
		b.counts.Closed++
	}
	b.spans = append(b.spans, sp)
	b.digest = foldSpan(b.digest, sp)
	b.mu.Unlock()
}

// Add records an already-complete span (open and close in one step — the
// barrier spans, whose start and end are both known at collect time).
func (b *Buffer) Add(sp Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.counts.Opened++
	b.counts.Closed++
	b.spans = append(b.spans, sp)
	b.digest = foldSpan(b.digest, sp)
	b.mu.Unlock()
}

// AddAttributed records a zero-or-more-length span that opened and was
// attributed in one step (a shed at the admission door).
func (b *Buffer) AddAttributed(sp Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.counts.Opened++
	b.counts.Attributed++
	b.spans = append(b.spans, sp)
	b.digest = foldSpan(b.digest, sp)
	b.mu.Unlock()
}

// Mark records an instantaneous lifecycle point.
func (b *Buffer) Mark(p Point) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.points = append(b.points, p)
	b.digest = foldPoint(b.digest, p)
	b.mu.Unlock()
}

// Counts reports the ledger, with Open reflecting the live open-span count.
func (b *Buffer) Counts() Counts {
	if b == nil {
		return Counts{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.counts
	c.Open = uint64(len(b.open))
	return c
}

// Digest reports the incremental FNV-1a fold over all completed spans and
// marked points, in completion order. Two runs of the same build over the
// same inputs produce identical digests (see TestFleetTraceReplaysBitIdentically).
func (b *Buffer) Digest() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(b.digest)
}

// Spans returns a copy of the completed spans, in completion order.
func (b *Buffer) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Span(nil), b.spans...)
}

// Points returns a copy of the marked points, in mark order.
func (b *Buffer) Points() []Point {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Point(nil), b.points...)
}

// OpenSpans returns a copy of the still-open spans (the /trace timeline
// shows in-flight legs with End unset).
func (b *Buffer) OpenSpans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, 0, len(b.open))
	for _, sp := range b.open {
		out = append(out, sp)
	}
	return out
}

package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count. All methods are atomic; the zero
// value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store overwrites the total — the fold-in path for counts accumulated in
// plain per-agent fields on the hot path and aggregated once per market
// round (the new total must be ≥ the old one to stay a counter).
func (c *Counter) Store(total uint64) {
	if c != nil {
		c.v.Store(total)
	}
}

// Value reads the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. All methods are atomic; the zero value
// reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// instrument is a registered series' type. One name holds one instrument.
type instrument uint8

const (
	isCounter instrument = iota
	isGauge
	isGaugeFunc
	isHistogram
)

var instrumentNames = [...]string{"counter", "gauge", "gauge function", "histogram"}

// entry is one registered series; the field its instrument names is set.
type entry struct {
	base, help string
	kind       instrument
	c          *Counter
	g          *Gauge
	fn         func() float64
	h          *Histogram
}

// Registry holds named counters, gauges and histograms; Export snapshots
// them for the Prometheus text exposition (WriteSeriesProm, the /metrics
// endpoint). Registration is idempotent by full series name — components
// re-attached to the same registry share the instrument — and a name holds
// one kind: registering it as another kind panics. Series names may carry
// a label set in the standard `name{key="value"}` form; HELP/TYPE headers
// are emitted once per base name.
type Registry struct {
	mu     sync.Mutex
	series map[string]*entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*entry)}
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// entry returns the series registered under name, adding an empty one of
// kind k on first use; a name taken by another kind panics. r.mu is held.
func (r *Registry) entry(name, help string, k instrument) *entry {
	e, ok := r.series[name]
	if !ok {
		e = &entry{base: baseName(name), help: help, kind: k}
		r.series[name] = e
	} else if e.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q is a %s, not a %s", name, instrumentNames[e.kind], instrumentNames[k]))
	}
	return e
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(name, help, isCounter)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(name, help, isGauge)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. fn must be safe to call from the scrape goroutine while the
// simulation runs (read atomics, not live simulation state). Re-registering
// the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entry(name, help, isGaugeFunc).fn = fn
}

// Histogram returns the histogram registered under name, creating it with
// the NewLog layout (lo, growth, n) on first use.
func (r *Registry) Histogram(name, help string, lo, growth float64, n int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(name, help, isHistogram)
	if e.h == nil {
		e.h = NewLog(lo, growth, n)
	}
	return e.h
}

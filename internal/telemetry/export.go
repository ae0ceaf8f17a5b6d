package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one exported series — the unit of cross-registry aggregation
// and the one input of the Prometheus exposition. The fleet layer exports
// every board's registry, injects a `board` label into each series, and
// renders the merged set as one document (see WriteSeriesProm).
type Series struct {
	Name  string // full series name, possibly with {labels}
	Base  string // name without labels (groups HELP/TYPE headers)
	Help  string
	Type  string // "counter", "gauge" or "histogram"
	Value float64
	Int   bool
	Hist  *Histogram // histogram series: a snapshot, not the live instrument
}

// Export snapshots every registered series with its current value
// (histograms as snapshots). The result is sorted by family, then name,
// and independent of the registry — safe to relabel and merge with other
// registries' exports. A nil registry exports nothing.
func (r *Registry) Export() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	list := make([]Series, 0, len(r.series))
	for name, e := range r.series {
		s := Series{Name: name, Base: e.base, Help: e.help, Type: instrumentNames[e.kind]}
		switch e.kind {
		case isCounter:
			s.Value, s.Int = float64(e.c.Value()), true
		case isGauge:
			s.Value = e.g.Value()
		case isGaugeFunc:
			s.Type, s.Value = "gauge", e.fn()
		case isHistogram:
			s.Hist = e.h.Snapshot()
		}
		list = append(list, s)
	}
	r.mu.Unlock()
	sortSeries(list)
	return list
}

// sortSeries orders series by family (Base), then by full name, so each
// family's samples are contiguous: by name alone `x_total` would sort
// between `x` and `x{k="v"}`.
func sortSeries(list []Series) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].Base != list[j].Base {
			return list[i].Base < list[j].Base
		}
		return list[i].Name < list[j].Name
	})
}

// InjectLabel returns the series name with an extra `key="value"` label
// prepended, preserving any labels already present:
//
//	InjectLabel(`x`, "board", "3")        == `x{board="3"}`
//	InjectLabel(`x{k="v"}`, "board", "3") == `x{board="3",k="v"}`
func InjectLabel(name, key, value string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return fmt.Sprintf(`%s{%s=%q,%s`, name[:i], key, value, name[i+1:])
	}
	return fmt.Sprintf(`%s{%s=%q}`, name, key, value)
}

// AppendLabeled appends src to dst with an extra `key="value"` label
// injected into every series name (see InjectLabel). This is the one
// merge loop behind every multi-registry exposition: the fleet stacks a
// `board` label onto each board's export, and the federation stacks a
// `region` label onto each fleet's already-board-labeled export —
// labels nest, innermost injection first.
func AppendLabeled(dst, src []Series, key, value string) []Series {
	for _, s := range src {
		s.Name = InjectLabel(s.Name, key, value)
		dst = append(dst, s)
	}
	return dst
}

// WriteSeriesProm renders a series set — one registry's export or several
// merged and relabeled — in the Prometheus text exposition format: sorted
// by family, then name, with one HELP/TYPE pair per family (from its first
// series) ahead of the family's samples. A histogram renders as cumulative
// `_bucket` samples, `le` appended after the series' own labels and ending
// at "+Inf", each bucket carrying its exemplar in the OpenMetrics
// `# {trace_id="…"} value` form, then `_sum` and `_count`.
func WriteSeriesProm(w io.Writer, series []Series) error {
	list := append([]Series(nil), series...)
	sortSeries(list)
	bw := bufio.NewWriter(w) // write errors stick; Flush reports the first
	for i, s := range list {
		if i == 0 || s.Base != list[i-1].Base {
			if s.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Base, s.Help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Base, s.Type)
		}
		switch {
		case s.Hist != nil:
			writeHistogram(bw, s)
		case s.Int:
			fmt.Fprintf(bw, "%s %d\n", s.Name, uint64(s.Value))
		default:
			fmt.Fprintf(bw, "%s %g\n", s.Name, s.Value)
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, s Series) {
	labels := s.Name[len(s.Base):] // "" or `{k="v",…}`
	lead := "{"
	if labels != "" {
		lead = labels[:len(labels)-1] + ","
	}
	h := s.Hist
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < h.n-1 {
			le = fmt.Sprintf("%g", h.upperBound(i))
		}
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d", s.Base, lead, le, cum)
		if ex := h.exemplars[i]; ex.Valid {
			fmt.Fprintf(w, ` # {trace_id="%016x"} %g`, ex.Trace, ex.Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", s.Base, labels, h.sum, s.Base, labels, h.count)
}

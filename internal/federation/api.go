package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"pricepower/internal/fleet"
	"pricepower/internal/telemetry"
	"pricepower/internal/telemetry/trace"
)

// MaxSubmitBody caps a POST /submit request body. A full queue of
// richly-specified tasks fits comfortably; anything past the cap is a
// runaway client or an attack, refused with a structured 413 before a
// byte of it is parsed into memory.
const MaxSubmitBody = 4 << 20 // 4 MiB

// FedArrival is one trace entry: a fleet.Arrival (Count copies of
// bench×input at priority, the SLA tier key, due AtMS milliseconds of
// federation virtual time after acceptance), optionally pinned to a
// region by name.
type FedArrival struct {
	fleet.Arrival
	Region string `json:"region,omitempty"` // pin by region name ("" = price-routed)
}

// FedTrace is the POST /submit body and fedd's -trace file format.
type FedTrace = fleet.ArrivalTrace[FedArrival]

// fedResolved is one expanded arrival.
type fedResolved struct {
	fleet.TimedSpec
	Region int // -1 = price-routed
}

// resolve expands and validates the trace against the fleet's submit
// bounds, the workload registry and the federation's region names.
func (f *Federation) resolve(tr *FedTrace) ([]fedResolved, error) {
	ts, err := tr.Resolve()
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	names := map[string]int{}
	for _, r := range f.regions {
		names[r.Name] = r.ID
	}
	pins := make([]int, len(tr.Tasks))
	for i, a := range tr.Tasks {
		pins[i] = -1
		if a.Region != "" {
			id, ok := names[a.Region]
			if !ok {
				return nil, fmt.Errorf("federation: trace entry %d: unknown region %q", i, a.Region)
			}
			pins[i] = id
		}
	}
	out := make([]fedResolved, len(ts))
	for k, s := range ts {
		out[k] = fedResolved{TimedSpec: s, Region: pins[s.Entry]}
	}
	return out, nil
}

// ParseFedTrace decodes a FedTrace, rejecting unknown fields and empty
// traces.
func ParseFedTrace(r io.Reader) (*FedTrace, error) {
	tr, err := fleet.ParseTrace[FedArrival](r)
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	return tr, nil
}

// SubmitResult is the POST /submit response body.
type SubmitResult struct {
	Routed    int `json:"routed"`    // price-routed into a region now
	Pinned    int `json:"pinned"`    // region-pinned submissions handed off
	Scheduled int `json:"scheduled"` // deferred to a future virtual time
	Shed      int `json:"shed"`      // routed or pinned submissions a region's queue refused
}

// SubmitResolved feeds resolved arrivals into the federation. Due-now
// pinned entries submit directly; due-now routed entries go through the
// price router; future entries join the federation schedule (pins are
// not preserved across scheduling — the router prices them at release).
func (f *Federation) SubmitResolved(rs []fedResolved) (SubmitResult, error) {
	var res SubmitResult
	base := f.Now()
	for _, r := range rs {
		switch {
		case r.At > 0:
			f.SubmitAt(base+r.At, r.Spec)
			res.Scheduled++
		case r.Region >= 0:
			acc, err := f.SubmitTo(r.Region, r.Spec)
			if err != nil {
				return res, err
			}
			res.Pinned++
			res.Shed += 1 - acc
		default:
			f.mu.Lock()
			acc := f.routeLocked(r.Spec)
			f.mu.Unlock()
			res.Routed++
			res.Shed += 1 - acc
		}
	}
	return res, nil
}

// SubmitTrace validates a trace against the workload registry and the
// federation's region names, then feeds it in — the one-call path fedd
// and the /submit handler share.
func (f *Federation) SubmitTrace(tr *FedTrace) (SubmitResult, error) {
	rs, err := f.resolve(tr)
	if err != nil {
		return SubmitResult{}, err
	}
	return f.SubmitResolved(rs)
}

// LoadFedTrace reads a FedTrace file (validated on submission).
func LoadFedTrace(path string) (*FedTrace, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	tr, err := ParseFedTrace(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// WriteMetrics renders the full Prometheus document: the federation
// registry (with the per-region epoch revenue/cost histograms) and every
// region fleet's export under stacked region+board labels.
func (f *Federation) WriteMetrics(w io.Writer) error {
	return telemetry.WriteSeriesProm(w, f.ExportMetrics())
}

// tracedRegions lists the regions whose fleets carry a tracer.
func (f *Federation) tracedRegions() []*Region {
	var out []*Region
	for _, r := range f.regions {
		if r.fl.Tracer() != nil {
			out = append(out, r)
		}
	}
	return out
}

// RegionBoards is one region's GET /boards entry: its fleet's board
// snapshots, cluster detail included.
type RegionBoards struct {
	Region string           `json:"region"`
	Boards []fleet.Snapshot `json:"boards"`
}

// Boards snapshots every region fleet's boards, in region order.
func (f *Federation) Boards() []RegionBoards {
	out := make([]RegionBoards, len(f.regions))
	for i, r := range f.regions {
		out[i] = RegionBoards{Region: r.Name, Boards: r.fl.StateSnapshot().Boards}
	}
	return out
}

// RegionTrace is one traced region's span ledger and trace digest
// vector (index 0 = fleet, i+1 = board i), hex-encoded.
type RegionTrace struct {
	Region  string       `json:"region"`
	Counts  trace.Counts `json:"counts"`
	Digests []string     `json:"digests"`
}

// TraceSummary is the GET /trace response: the federation digest vector
// (index 0 = controller, i+1 = region i), the migration decisions, and
// each traced region's span ledger.
type TraceSummary struct {
	Digests   []string      `json:"digests"`
	Decisions []Decision    `json:"decisions"`
	Regions   []RegionTrace `json:"regions,omitempty"`
}

// Traces reports every traced region's span ledger and digest vector.
func (f *Federation) Traces() []RegionTrace {
	var out []RegionTrace
	for _, r := range f.tracedRegions() {
		tr := r.fl.Tracer()
		rt := RegionTrace{Region: r.Name, Counts: tr.Counts()}
		for _, d := range tr.Digests() {
			rt.Digests = append(rt.Digests, fmt.Sprintf("%016x", d))
		}
		out = append(out, rt)
	}
	return out
}

// apiError is the structured body every non-2xx API response carries,
// so clients never scrape free-text errors.
type apiError struct {
	Error string `json:"error"` // machine slug: bad-request, too-large, method, not-found
	Msg   string `json:"msg"`   // human detail
}

func writeAPIError(w http.ResponseWriter, status int, slug, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(apiError{Error: slug, Msg: msg}) //nolint:errcheck // headers already sent
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
	}
}

// NewMux serves the federation's HTTP surface — the one front door for
// every fleet, a single fleet being a one-region federation:
//
//	POST /submit      — batch submission (FedTrace JSON: tier via
//	                    priority, optional region pin, optional at_ms)
//	GET  /regions     — per-region economics, tiers, and fleet counters
//	GET  /boards      — per-region board snapshots incl. cluster detail
//	GET  /state       — federation state (epoch, counters, decisions,
//	                    digests); lean, no board rows
//	GET  /metrics     — Prometheus text: the federation registry and
//	                    every region fleet's under stacked region+board
//	                    labels — counters, gauges and histograms (the
//	                    traced stage histograms with trace-ID exemplars)
//	GET  /trace       — replay digest vector, migration-decision log and
//	                    each traced region's span ledger
//	GET  /trace?id=   — one trace's merged timeline, from whichever
//	                    region's tracer holds it
func NewMux(f *Federation) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "method", "POST only")
			return
		}
		body := http.MaxBytesReader(w, r.Body, MaxSubmitBody)
		tr, err := ParseFedTrace(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeAPIError(w, http.StatusRequestEntityTooLarge, "too-large",
					fmt.Sprintf("request body exceeds %d bytes", MaxSubmitBody))
				return
			}
			writeAPIError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		res, err := f.SubmitTrace(tr)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("/regions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.StateSnapshot().Regions)
	})
	mux.HandleFunc("/boards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.Boards())
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.StateSnapshot())
	})
	mux.Handle("/metrics", telemetry.MetricsHandler(f.ExportMetrics))
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		idStr := r.URL.Query().Get("id")
		if idStr == "" {
			st := f.StateSnapshot()
			writeJSON(w, TraceSummary{Digests: st.Digests, Decisions: st.Decisions, Regions: f.Traces()})
			return
		}
		id, err := trace.ParseID(idStr)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		for _, reg := range f.tracedRegions() {
			if tl := reg.fl.Tracer().Timeline(id); len(tl.Spans) > 0 || len(tl.Open) > 0 {
				writeJSON(w, tl)
				return
			}
		}
		writeAPIError(w, http.StatusNotFound, "not-found", fmt.Sprintf("no spans for trace %s", id))
	})
	return mux
}

package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
	"pricepower/internal/workload"
)

// FedArrival is one POST /submit entry: Count copies of bench×input at
// priority (the SLA tier key), due AtMS milliseconds of federation
// virtual time after acceptance, optionally pinned to a region by name.
// This is the fleet Arrival shape plus the region pin — a separate type
// because the fleet trace decoder rejects unknown fields.
type FedArrival struct {
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Priority int    `json:"priority,omitempty"` // default 1
	Count    int    `json:"count,omitempty"`    // default 1
	AtMS     int64  `json:"at_ms,omitempty"`
	Region   string `json:"region,omitempty"` // pin by region name ("" = price-routed)
}

// FedTrace is the POST /submit body and fedd's -trace file format.
type FedTrace struct {
	Tasks []FedArrival `json:"tasks"`
}

// fedResolved is one expanded arrival.
type fedResolved struct {
	At     sim.Time
	Region int // -1 = price-routed
	Spec   task.Spec
}

// resolve expands and validates the trace against the fleet's submit
// bounds, the workload registry and the federation's region names.
func (tr *FedTrace) resolve(f *Federation) ([]fedResolved, error) {
	total := 0
	for i, a := range tr.Tasks {
		n, err := fleet.ArrivalCount(total, a.Count, a.AtMS)
		if err != nil {
			return nil, fmt.Errorf("federation: trace entry %d: %w", i, err)
		}
		total += n
	}
	names := map[string]int{}
	for _, r := range f.Regions() {
		names[r.Name] = r.ID
	}
	out := make([]fedResolved, 0, total)
	for i, a := range tr.Tasks {
		b, ok := workload.ByName(a.Bench)
		if !ok {
			return nil, fmt.Errorf("federation: trace entry %d: unknown benchmark %q", i, a.Bench)
		}
		prio := a.Priority
		if prio == 0 {
			prio = 1
		}
		spec, err := b.Spec(a.Input, prio)
		if err != nil {
			return nil, fmt.Errorf("federation: trace entry %d: %w", i, err)
		}
		region := -1
		if a.Region != "" {
			id, ok := names[a.Region]
			if !ok {
				return nil, fmt.Errorf("federation: trace entry %d: unknown region %q", i, a.Region)
			}
			region = id
		}
		count := max(a.Count, 1)
		for n := 0; n < count; n++ {
			out = append(out, fedResolved{
				At: sim.Time(a.AtMS) * sim.Millisecond, Region: region, Spec: spec,
			})
		}
	}
	return out, nil
}

// ParseFedTrace decodes a FedTrace, rejecting unknown fields.
func ParseFedTrace(r io.Reader) (*FedTrace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr FedTrace
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("federation: trace: %w", err)
	}
	if len(tr.Tasks) == 0 {
		return nil, fmt.Errorf("federation: trace: no tasks")
	}
	return &tr, nil
}

// SubmitResult is the POST /submit response body.
type SubmitResult struct {
	Routed    int `json:"routed"`    // price-routed into a region now
	Pinned    int `json:"pinned"`    // region-pinned submissions handed off
	Scheduled int `json:"scheduled"` // deferred to a future virtual time
	Shed      int `json:"shed"`      // pinned submissions the region's queue refused
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
			f.Submit(r.Spec)
			res.Routed++
		}
	}
	return res, nil
}

// SubmitTrace validates a trace against the workload registry and the
// federation's region names, then feeds it in — the one-call path fedd
// and the /submit handler share.
func (f *Federation) SubmitTrace(tr *FedTrace) (SubmitResult, error) {
	rs, err := tr.resolve(f)
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

// WriteMetrics renders the full Prometheus document: federation
// registry, every region fleet's export under stacked region+board
// labels, and the per-region epoch revenue/cost histograms.
func (f *Federation) WriteMetrics(w io.Writer) error {
	if err := telemetry.WriteSeriesProm(w, f.ExportMetrics()); err != nil {
		return err
	}
	for _, r := range f.regions {
		lbl := fmt.Sprintf("region=%q", r.Name)
		if err := r.revHist.WriteProm(w, "pricepower_fed_epoch_revenue_usd",
			"SLA revenue earned per federation epoch ($).", lbl); err != nil {
			return err
		}
		if err := r.costHist.WriteProm(w, "pricepower_fed_epoch_cost_usd",
			"Electricity cost per federation epoch ($).", lbl); err != nil {
			return err
		}
	}
	return nil
}

// apiError mirrors the fleet API's structured error body.
type apiError struct {
	Error string `json:"error"`
	Msg   string `json:"msg"`
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

// TraceSummary is the GET /trace response: the federation digest vector
// (index 0 = controller, i+1 = region i) and the migration decisions.
type TraceSummary struct {
	Digests   []string   `json:"digests"`
	Decisions []Decision `json:"decisions"`
}

// NewMux serves the federation's HTTP surface:
//
//	POST /submit   — batch submission (FedTrace JSON: tier via priority,
//	                 optional region pin, optional at_ms deferral)
//	GET  /regions  — per-region economics, tiers, and fleet counters
//	GET  /state    — federation state (epoch, counters, decisions, digests)
//	GET  /metrics  — Prometheus text: federation + every region fleet
//	                 under stacked region+board labels + histograms
//	GET  /trace    — replay digest vector + migration-decision log
func NewMux(f *Federation) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "method", "POST only")
			return
		}
		body := http.MaxBytesReader(w, r.Body, fleet.MaxSubmitBody)
		tr, err := ParseFedTrace(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeAPIError(w, http.StatusRequestEntityTooLarge, "too-large",
					fmt.Sprintf("request body exceeds %d bytes", fleet.MaxSubmitBody))
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
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.StateSnapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := f.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		st := f.StateSnapshot()
		writeJSON(w, TraceSummary{Digests: st.Digests, Decisions: st.Decisions})
	})
	return mux
}

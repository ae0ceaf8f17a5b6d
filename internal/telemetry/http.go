package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// NewMux builds the live-introspection HTTP handler behind
// `ppmsim -http ADDR`:
//
//	/metrics      Prometheus text exposition of the emitter's registry
//	              (counters, gauges and histograms; MetricsHandler)
//	/events       the ring sink's current window as a JSON array
//	/state        the last published per-cluster price/frequency/power
//	              snapshot as JSON
//	/debug/pprof  the standard Go profiler endpoints
//
// em and ring may each be nil; the corresponding endpoints then serve an
// empty (but valid) document, so the handler set is stable regardless of
// what the run attached.
func NewMux(em *Emitter, ring *RingSink) *http.ServeMux {
	mux := http.NewServeMux()

	mux.Handle("/metrics", MetricsHandler(em.Registry().Export))

	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		evs := []Event{}
		if ring != nil {
			evs = ring.Snapshot()
		}
		json.NewEncoder(w).Encode(struct {
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{dropped(ring), evs})
	})

	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st, ok := em.StateSnapshot()
		if !ok {
			st.Clusters = []ClusterState{}
		}
		if st.Clusters == nil {
			st.Clusters = []ClusterState{}
		}
		json.NewEncoder(w).Encode(st)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// MetricsHandler serves /metrics: export's series as one Prometheus text
// document, rendered by WriteSeriesProm on every scrape.
func MetricsHandler(export func() []Series) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteSeriesProm(w, export()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func dropped(r *RingSink) uint64 {
	if r == nil {
		return 0
	}
	return r.Dropped()
}

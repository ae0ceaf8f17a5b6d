// The fleet's HTTP surface is its one front door: a one-region
// federation, as fedd serves a fleet run from a one-region config. These
// tests pin the fleet-facing contract through it (submission, the lean
// /state beside /boards, /metrics and /trace, and the 413,
// 405 and structured 400 refusals); the federation's own tests cover
// price routing and region pins across several regions.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"pricepower/internal/federation"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry/trace"
)

// flat is a constant price schedule: with one region, routing has no
// choice to make.
var flat = federation.PriceTrace{Intervals: []federation.PriceInterval{{StartH: 0, EndH: 24, PriceKWh: 0.1}}}

// mustStep steps the federation, absorbing board crashes (the region
// supervises their restarts).
func mustStep(t *testing.T, f *federation.Federation) {
	t.Helper()
	if err := f.Step(); err != nil {
		if _, only := fleet.CrashErrors(err); only {
			return
		}
		t.Fatal(err)
	}
}

// serveOneRegion boots a one-region federation ("r0", flat price, one
// barrier per epoch: a plain fleet behind the federation front door)
// and serves its mux.
func serveOneRegion(t *testing.T, fc fleet.Config) (*federation.Federation, *httptest.Server) {
	t.Helper()
	f, err := federation.New(federation.Config{Seed: 21, EpochBarriers: 1, Regions: []federation.RegionConfig{
		{Name: "r0", Fleet: fc, Price: flat},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(federation.NewMux(f))
	t.Cleanup(func() { srv.Close(); f.Close() })
	return f, srv
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s → %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

func getJSON(t *testing.T, url string, v interface{}) []byte {
	t.Helper()
	raw := getBody(t, url)
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return raw
}

// postStatus POSTs body to /submit and returns the status and the
// decoded error slug ("" for a non-JSON or success body).
func postStatus(t *testing.T, url, method, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url+"/submit", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr struct {
		Error string `json:"error"`
		Msg   string `json:"msg"`
	}
	if resp.StatusCode != http.StatusOK {
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: content-type = %q, want application/json", method, body, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Msg == "" {
			t.Errorf("%s %s: error body is not structured JSON (%v)", method, body, err)
		}
	}
	return resp.StatusCode, apiErr.Error
}

// TestAPISubmitStateBoardsMetrics drives a one-region federation over
// HTTP: a batch with a deferred entry, the lean /state, the board rows
// with cluster detail at /boards, the stacked region+board labels in
// /metrics, and the 400/405 refusals.
func TestAPISubmitStateBoardsMetrics(t *testing.T) {
	f, srv := serveOneRegion(t, fleet.Config{Boards: 2})
	body := `{"tasks":[
		{"bench":"swaptions","input":"n","count":3},
		{"bench":"x264","input":"n","at_ms":500}
	]}`
	resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res federation.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res != (federation.SubmitResult{Routed: 3, Scheduled: 1}) {
		t.Fatalf("submit result = %+v, want 3 routed / 1 scheduled", res)
	}

	// Drive the federation by hand (no background driver in this test).
	for i := 0; i < 8; i++ {
		mustStep(t, f)
	}

	var st federation.State
	raw := getJSON(t, srv.URL+"/state", &st)
	if r := st.Regions[0]; r.Live != 4 || r.QueueLen != 0 || st.Counters.Submitted != 4 {
		t.Errorf("state live=%d queue=%d submitted=%d, want 4/0/4 (deferred entry due by now)",
			r.Live, r.QueueLen, st.Counters.Submitted)
	}
	if bytes.Contains(raw, []byte(`"clusters"`)) {
		t.Error("/state carries cluster detail; that belongs to /boards")
	}

	var boards []federation.RegionBoards
	getJSON(t, srv.URL+"/boards", &boards)
	if len(boards) != 1 || boards[0].Region != "r0" || len(boards[0].Boards) != 2 {
		t.Fatalf("/boards = %+v, want region r0 with 2 boards", boards)
	}
	live := 0
	for _, b := range boards[0].Boards {
		live += b.Tasks
		if len(b.Clusters) == 0 {
			t.Errorf("board %d snapshot has no cluster detail", b.Board)
		}
	}
	if live != 4 {
		t.Errorf("/boards places %d tasks, want 4", live)
	}

	metrics := string(getBody(t, srv.URL+"/metrics"))
	for _, want := range []string{
		`pricepower_fleet_submitted_total{region="r0"} 4`,
		`pricepower_fleet_boards{region="r0"} 2`,
		`pricepower_ticks_total{region="r0",board="0"}`,
		`pricepower_ticks_total{region="r0",board="1"}`,
		`pricepower_market_rounds_total{region="r0",board="1"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// HELP/TYPE headers appear once per base name although two boards
	// export the same series.
	if n := strings.Count(metrics, "# TYPE pricepower_ticks_total "); n != 1 {
		t.Errorf("pricepower_ticks_total TYPE header appears %d times, want 1", n)
	}

	if code, _ := postStatus(t, srv.URL, http.MethodPost, `{"tasks":[{"bench":"nope","input":"n"}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown benchmark → status %d, want 400", code)
	}
	if code, _ := postStatus(t, srv.URL, http.MethodGet, ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /submit → status %d, want 405", code)
	}
}

// TestSubmitRejectsOversizedBody pins the POST /submit body cap: a
// payload past MaxSubmitBody gets a structured 413 without being
// parsed, and a sane request on the same server still succeeds.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	_, srv := serveOneRegion(t, fleet.Config{Boards: 1})
	// A syntactically valid body that only reveals its size by being
	// read: one giant padding field the strict decoder would reject
	// *after* the limit already fired.
	huge := `{"tasks":[{"bench":"swaptions","input":"n","pad":"` +
		strings.Repeat("x", federation.MaxSubmitBody+1024) + `"}]}`
	if code, slug := postStatus(t, srv.URL, http.MethodPost, huge); code != http.StatusRequestEntityTooLarge || slug != "too-large" {
		t.Fatalf("oversized body → %d %q, want 413 too-large", code, slug)
	}
	if code, _ := postStatus(t, srv.URL, http.MethodPost, `{"tasks":[{"bench":"swaptions","input":"n"}]}`); code != http.StatusOK {
		t.Fatalf("follow-up submit status = %d, want 200", code)
	}
}

// TestSubmitStructuredErrors pins the error contract on every /submit
// failure path: structured JSON with a machine slug, never free text.
func TestSubmitStructuredErrors(t *testing.T) {
	_, srv := serveOneRegion(t, fleet.Config{Boards: 1})
	for _, tc := range []struct {
		name, method, body string
		status             int
		slug               string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "method"},
		{"malformed json", http.MethodPost, `{"tasks":[`, http.StatusBadRequest, "bad-request"},
		{"unknown field", http.MethodPost, `{"tasks":[{"bench":"swaptions","input":"n","wat":1}]}`, http.StatusBadRequest, "bad-request"},
		{"unknown top-level field", http.MethodPost, `{"tasks":[],"typo":1}`, http.StatusBadRequest, "bad-request"},
		{"empty trace", http.MethodPost, `{"tasks":[]}`, http.StatusBadRequest, "bad-request"},
		{"unknown bench", http.MethodPost, `{"tasks":[{"bench":"nope","input":"n"}]}`, http.StatusBadRequest, "bad-request"},
		{"unknown region", http.MethodPost, `{"tasks":[{"bench":"x264","input":"n","region":"nowhere"}]}`, http.StatusBadRequest, "bad-request"},
	} {
		if code, slug := postStatus(t, srv.URL, tc.method, tc.body); code != tc.status || slug != tc.slug {
			t.Errorf("%s: %d %q, want %d %q", tc.name, code, slug, tc.status, tc.slug)
		}
	}
}

// TestSubmitRejectsUnboundedTraces: counts adding up past
// fleet.MaxSubmitTasks and an at_ms that would overflow virtual time get
// a structured 400 before any entry is expanded, and nothing is
// admitted. No test expands the counts.
func TestSubmitRejectsUnboundedTraces(t *testing.T) {
	f, srv := serveOneRegion(t, fleet.Config{Boards: 1})
	for name, body := range map[string]string{
		"huge count":      `{"tasks":[{"bench":"swaptions","input":"n","count":2000000000}]}`,
		"counts add up":   `{"tasks":[{"bench":"swaptions","input":"n","count":40000},{"bench":"x264","input":"n","count":40000}]}`,
		"overflow at_ms":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":9223372036854775807}]}`,
		"beyond horizon":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":1099511627777}]}`,
		"negative at_ms":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":-1}]}`,
		"late huge count": `{"tasks":[{"bench":"nope","input":"n"},{"bench":"swaptions","input":"n","count":9000000000000000000}]}`,
	} {
		if code, slug := postStatus(t, srv.URL, http.MethodPost, body); code != http.StatusBadRequest || slug != "bad-request" {
			t.Errorf("%s: %d %q, want 400 bad-request", name, code, slug)
		}
	}
	if st := f.StateSnapshot(); st.Counters.Submitted != 0 {
		t.Fatalf("rejected traces admitted %d submissions", st.Counters.Submitted)
	}
	// A bounded trace on the same server still goes through.
	if code, _ := postStatus(t, srv.URL, http.MethodPost, `{"tasks":[{"bench":"swaptions","input":"n","count":2}]}`); code != http.StatusOK {
		t.Fatalf("bounded submit status = %d, want 200", code)
	}
}

// TestAPITraceAndHistograms: with tracing on, /trace carries each
// region's span ledger and trace digests, /metrics the stage histograms
// under region (and board) labels with trace-ID exemplars, and
// /trace?id= the timeline of an exemplar's trace; bad and unknown IDs
// are refused. Without tracing /metrics carries no stage histogram
// (only the federation's always-on epoch revenue/cost ones) and
// /trace?id= 404s.
func TestAPITraceAndHistograms(t *testing.T) {
	f, srv := serveOneRegion(t, fleet.Config{Boards: 2, Trace: true})
	f.Submit(task.Spec{Name: "fin", Priority: 1, MinHR: 4, MaxHR: 6,
		Phases: []task.Phase{{Duration: 250 * sim.Millisecond, HBCostLittle: 20, SpeedupBig: 1.8}}})
	f.Submit(task.Spec{Name: "loop", Priority: 1, MinHR: 4, MaxHR: 6,
		Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 1.8}}, Loop: true})
	for i := 0; i < 8; i++ {
		mustStep(t, f)
	}

	var sum federation.TraceSummary
	getJSON(t, srv.URL+"/trace", &sum)
	if len(sum.Digests) != 2 || len(sum.Regions) != 1 {
		t.Fatalf("trace summary = %+v, want 2 federation digests and 1 traced region", sum)
	}
	if rt := sum.Regions[0]; rt.Region != "r0" || rt.Counts.Opened == 0 || len(rt.Digests) != 3 {
		t.Fatalf("region trace = %+v, want opened spans and 3 digests (fleet + 2 boards)", rt)
	}

	hist := string(getBody(t, srv.URL+"/metrics"))
	for _, want := range []string{
		`pricepower_fleet_routing_wall_ns_bucket{region="r0",`,
		`pricepower_fleet_queue_wait_ms_bucket{region="r0",`,
		`pricepower_fleet_barrier_lag_bucket{region="r0",`,
		`pricepower_board_round_ms_bucket{region="r0",board="1",`,
		`pricepower_fleet_round_ms_bucket{region="r0",`, // k-way merge
	} {
		if !strings.Contains(hist, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	m := regexp.MustCompile(`trace_id="([0-9a-f]+)"`).FindStringSubmatch(hist)
	if m == nil {
		t.Fatal("/metrics carries no trace-ID exemplar")
	}
	var tl trace.Timeline
	getJSON(t, srv.URL+"/trace?id="+m[1], &tl)
	if tl.Trace != m[1] || len(tl.Spans) == 0 {
		t.Fatalf("timeline = %+v, want spans for %s", tl, m[1])
	}

	for path, want := range map[string]int{
		"/trace?id=zzz":              http.StatusBadRequest,
		"/trace?id=00000000000000ff": http.StatusNotFound,
	} {
		if resp, err := http.Get(srv.URL + path); err != nil || resp.StatusCode != want {
			t.Errorf("GET %s = %v, %v; want %d", path, resp.StatusCode, err, want)
		}
	}

	// Tracing off: no stage histograms and no timelines.
	_, bare := serveOneRegion(t, fleet.Config{Boards: 1})
	bareMetrics := string(getBody(t, bare.URL+"/metrics"))
	if !strings.Contains(bareMetrics, `pricepower_fed_epoch_revenue_usd_bucket{region="r0",`) {
		t.Error("untraced /metrics lost the epoch revenue histogram")
	}
	for _, line := range strings.Split(bareMetrics, "\n") {
		if name, _, _ := strings.Cut(line, "{"); strings.HasSuffix(name, "_bucket") &&
			!strings.HasPrefix(name, "pricepower_fed_epoch_") {
			t.Errorf("untraced /metrics carries a stage histogram: %s", line)
		}
	}
	if resp, err := http.Get(bare.URL + "/trace?id=" + m[1]); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced /trace?id= status = %v, %v; want 404", resp.StatusCode, err)
	}
}

package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestAPISubmitStateBoardsMetrics(t *testing.T) {
	f, err := New(Config{Boards: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	// Batch submission with one immediate and one deferred entry.
	body := `{"tasks":[
		{"bench":"swaptions","input":"n","count":3},
		{"bench":"x264","input":"n","at_ms":500}
	]}`
	resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted != 3 || res.Scheduled != 1 || res.Shed != 0 {
		t.Fatalf("submit result = %+v, want 3 accepted / 1 scheduled", res)
	}

	// Drive the fleet manually (no background driver in this test).
	for i := 0; i < 8; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var st State
	getJSON(t, srv.URL+"/state", &st)
	if st.Live() != 4 || st.QueueLen != 0 {
		t.Errorf("state live=%d queue=%d, want 4/0", st.Live(), st.QueueLen)
	}
	if st.Counters.Submitted != 4 {
		t.Errorf("submitted = %d, want 4 (deferred entry due by now)", st.Counters.Submitted)
	}
	for _, b := range st.Boards {
		if b.Clusters != nil {
			t.Error("/state carries cluster detail; that belongs to /boards")
		}
	}

	var boards []Snapshot
	getJSON(t, srv.URL+"/boards", &boards)
	if len(boards) != 2 {
		t.Fatalf("%d boards, want 2", len(boards))
	}
	for _, b := range boards {
		if len(b.Clusters) == 0 {
			t.Errorf("board %d snapshot has no cluster detail", b.Board)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawB, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	raw := string(rawB)
	for _, want := range []string{
		"pricepower_fleet_submitted_total 4",
		"pricepower_fleet_boards 2",
		`pricepower_ticks_total{board="0"}`,
		`pricepower_ticks_total{board="1"}`,
		`pricepower_market_rounds_total{board="1"}`,
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// HELP/TYPE headers must appear once per base name despite two
	// boards exporting the same series.
	if n := strings.Count(raw, "# TYPE pricepower_ticks_total "); n != 1 {
		t.Errorf("pricepower_ticks_total TYPE header appears %d times, want 1", n)
	}

	// Bad submissions are rejected with 400, not absorbed.
	resp, err = http.Post(srv.URL+"/submit", "application/json",
		strings.NewReader(`{"tasks":[{"bench":"nope","input":"n"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark → status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /submit → status %d, want 405", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s → %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestSubmitRejectsOversizedBody pins the POST /submit body cap: a
// payload past MaxSubmitBody gets a structured 413 without being
// parsed, and a sane request on the same server still succeeds.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	// A syntactically valid JSON body that only reveals its size by
	// being read: one giant padding field the strict decoder would
	// reject *after* the limit already fired.
	huge := `{"tasks":[{"bench":"swaptions","input":"n","pad":"` +
		strings.Repeat("x", MaxSubmitBody+1024) + `"}]}`
	resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
		Msg   string `json:"msg"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("413 body is not structured JSON: %v", err)
	}
	if apiErr.Error != "too-large" || apiErr.Msg == "" {
		t.Fatalf("413 body = %+v, want slug too-large with detail", apiErr)
	}

	// The server is still healthy for well-formed submissions.
	resp2, err := http.Post(srv.URL+"/submit", "application/json",
		strings.NewReader(`{"tasks":[{"bench":"swaptions","input":"n"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up submit status = %d, want 200", resp2.StatusCode)
	}
}

// TestSubmitStructuredErrors pins the error contract on every /submit
// failure path: structured JSON with a machine slug, never free text.
func TestSubmitStructuredErrors(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	cases := []struct {
		name, method, body string
		status             int
		slug               string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "method"},
		{"malformed json", http.MethodPost, `{"tasks":[`, http.StatusBadRequest, "bad-request"},
		{"unknown field", http.MethodPost, `{"tasks":[{"bench":"swaptions","input":"n","wat":1}]}`, http.StatusBadRequest, "bad-request"},
		{"empty trace", http.MethodPost, `{"tasks":[]}`, http.StatusBadRequest, "bad-request"},
		{"unknown bench", http.MethodPost, `{"tasks":[{"bench":"nope","input":"n"}]}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+"/submit", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content-type = %q, want application/json", tc.name, ct)
		}
		var apiErr struct {
			Error string `json:"error"`
			Msg   string `json:"msg"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("%s: error body is not structured JSON: %v", tc.name, err)
		} else if apiErr.Error != tc.slug {
			t.Errorf("%s: slug = %q, want %q", tc.name, apiErr.Error, tc.slug)
		}
		resp.Body.Close()
	}
}

// TestSubmitRejectsUnboundedTraces: a small body whose counts add up past
// MaxSubmitTasks, or whose at_ms would overflow virtual time, is refused
// with a structured 400 before any entry is expanded, and admits nothing.
// The counts are rejected by the bound check alone; no test expands them.
func TestSubmitRejectsUnboundedTraces(t *testing.T) {
	f, err := New(Config{Boards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	for name, body := range map[string]string{
		"huge count":      `{"tasks":[{"bench":"swaptions","input":"n","count":2000000000}]}`,
		"counts add up":   `{"tasks":[{"bench":"swaptions","input":"n","count":40000},{"bench":"x264","input":"n","count":40000}]}`,
		"overflow at_ms":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":9223372036854775807}]}`,
		"beyond horizon":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":1099511627777}]}`,
		"negative at_ms":  `{"tasks":[{"bench":"swaptions","input":"n","at_ms":-1}]}`,
		"late huge count": `{"tasks":[{"bench":"nope","input":"n"},{"bench":"swaptions","input":"n","count":9000000000000000000}]}`,
	} {
		resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
			Msg   string `json:"msg"`
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		} else if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error != "bad-request" {
			t.Errorf("%s: body = %+v (%v), want slug bad-request", name, apiErr, err)
		}
		resp.Body.Close()
	}
	if st := f.StateSnapshot(); st.Counters.Submitted != 0 {
		t.Fatalf("rejected traces admitted %d submissions", st.Counters.Submitted)
	}
}

// TestArrivalCountBounds pins the bound check at its edges.
func TestArrivalCountBounds(t *testing.T) {
	for _, c := range []struct {
		total, count int
		at           int64
		want         int
		ok           bool
	}{
		{0, 0, 0, 1, true},
		{0, -5, 0, 1, true},
		{0, MaxSubmitTasks, MaxAtMS, MaxSubmitTasks, true},
		{1, MaxSubmitTasks, 0, 0, false},
		{MaxSubmitTasks, 0, 0, 0, false},
		{MaxSubmitTasks - 1, 1, 0, 1, true},
		{0, 1, MaxAtMS + 1, 0, false},
		{0, 1, -1, 0, false},
		{0, int(^uint(0) >> 1), 0, 0, false},
	} {
		n, err := ArrivalCount(c.total, c.count, c.at)
		if (err == nil) != c.ok || n != c.want {
			t.Errorf("ArrivalCount(%d, %d, %d) = %d, %v; want %d, ok %v", c.total, c.count, c.at, n, err, c.want, c.ok)
		}
	}
}

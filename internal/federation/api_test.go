package federation

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pricepower/internal/fleet"
)

// TestSubmitRejectsUnboundedTraces: the federation's POST /submit shares
// the fleet's submit bounds. Counts adding up past fleet.MaxSubmitTasks
// and an at_ms that would overflow virtual time get a structured 400
// before any entry is expanded, and nothing is admitted. No test expands
// the counts.
func TestSubmitRejectsUnboundedTraces(t *testing.T) {
	f, err := New(Config{Seed: 3, Regions: []RegionConfig{
		{Name: "r0", Fleet: fleet.Config{Boards: 1}, Price: flat(0.1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	for name, body := range map[string]string{
		"huge count":     `{"tasks":[{"bench":"swaptions","input":"n","count":2000000000}]}`,
		"counts add up":  `{"tasks":[{"bench":"swaptions","input":"n","count":40000,"region":"r0"},{"bench":"x264","input":"n","count":40000}]}`,
		"overflow at_ms": `{"tasks":[{"bench":"swaptions","input":"n","at_ms":9223372036854775807}]}`,
		"negative at_ms": `{"tasks":[{"bench":"swaptions","input":"n","at_ms":-1}]}`,
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

	// A bounded trace on the same server still goes through.
	resp, err := http.Post(srv.URL+"/submit", "application/json",
		strings.NewReader(`{"tasks":[{"bench":"swaptions","input":"n","count":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded submit status = %d, want 200", resp.StatusCode)
	}
}
